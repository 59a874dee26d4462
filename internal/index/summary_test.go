package index

import (
	"reflect"
	"testing"
)

func TestSummaryDigest(t *testing.T) {
	ix := New()
	mustAdd(t, ix, 1, 1, "free", "jazz")
	mustAdd(t, ix, 1, 2, "cool", "jazz")
	mustAdd(t, ix, 2, 1, "blues")

	s := ix.Summary()
	if want := []string{"blues", "cool", "free", "jazz"}; !reflect.DeepEqual(s.Terms(), want) {
		t.Fatalf("Terms = %v, want %v", s.Terms(), want)
	}
}

func TestSummaryTracksIndexMutation(t *testing.T) {
	ix := New()
	mustAdd(t, ix, 1, 1, "solo", "jazz")
	mustAdd(t, ix, 2, 1, "jazz")
	if got, want := ix.Summary().Terms(), []string{"jazz", "solo"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
	// Removing an owner drops its terms, but not a term still indexed for
	// another owner.
	ix.RemoveOwner(1)
	if got, want := ix.Summary().Terms(), []string{"jazz"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms after RemoveOwner = %v, want %v", got, want)
	}
}

func TestNewSummaryFromTerms(t *testing.T) {
	s := NewSummary([]string{"b", "a", "b"})
	if got, want := s.Terms(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestMergeSummary(t *testing.T) {
	a := New()
	mustAdd(t, a, 1, 1, "free", "jazz")
	b := New()
	mustAdd(t, b, 2, 1, "blues", "jazz")

	// Nil dst allocates; nil srcs are skipped.
	m := MergeSummary(nil, a.Summary(), nil, b.Summary())
	if want := []string{"blues", "free", "jazz"}; !reflect.DeepEqual(m.Terms(), want) {
		t.Fatalf("merged Terms = %v, want %v", m.Terms(), want)
	}

	// Merging into an existing dst accumulates and returns it.
	dst := a.Summary()
	if got := MergeSummary(dst, b.Summary()); got != dst {
		t.Fatal("MergeSummary should return dst")
	}
	if want := []string{"blues", "free", "jazz"}; !reflect.DeepEqual(dst.Terms(), want) {
		t.Fatalf("dst Terms = %v, want %v", dst.Terms(), want)
	}

	// Sources are unchanged.
	if got, want := b.Summary().Terms(), []string{"blues", "jazz"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merge mutated source index digest: %v, want %v", got, want)
	}
}
