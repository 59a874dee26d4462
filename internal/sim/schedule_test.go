package sim

import "testing"

func TestExponentialScheduleDeterministic(t *testing.T) {
	a := ExponentialSchedule(42, 5, 2, 500, 3000)
	b := ExponentialSchedule(42, 5, 2, 500, 3000)
	if len(a) == 0 {
		t.Fatal("no failures scheduled over 6 partner-lifetimes")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	for _, ev := range a {
		if ev.At < 0 || ev.At >= 3000 {
			t.Errorf("event time %v outside [0, 3000)", ev.At)
		}
		if ev.Cluster < 0 || ev.Cluster >= 5 || ev.Partner < 0 || ev.Partner >= 2 {
			t.Errorf("event target out of range: %+v", ev)
		}
	}
	if c := ExponentialSchedule(43, 5, 2, 500, 3000); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestScheduleTruncate(t *testing.T) {
	s := Schedule{{At: 5, Cluster: 1}, {At: 1, Cluster: 0}, {At: 9, Cluster: 2}}
	got := s.Truncate(6)
	if len(got) != 2 || got[0].At != 1 || got[1].At != 5 {
		t.Errorf("Truncate(6) = %+v, want the sorted events before t=6", got)
	}
}
