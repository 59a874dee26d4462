package gnutella

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestDecodersCopyOut is the rule that lets ReadMessage recycle its frame
// buffers: a decoded message holds no byte of its frame, so overwriting the
// frame leaves it re-encoding to the original bytes. The one exception, the
// keepsFrame row, is ChunkData, whose Data aliases its frame.
func TestDecodersCopyOut(t *testing.T) {
	for _, m := range seedMessages(t) {
		typ, row := m.Type(), &frames[m.Type()]
		if row.keepsFrame != (typ == TypeChunkData) {
			t.Errorf("%v keepsFrame = %v, want it for ChunkData alone", typ, row.keepsFrame)
		}
		want := encodeMsg(t, m)
		frame := bytes.Clone(want)
		back, err := row.decode(frame)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		for i := range frame {
			frame[i] = 0xff
		}
		if row.keepsFrame {
			if cd := back.(*ChunkData); &cd.Data[0] != &frame[chunkDataHead] {
				t.Errorf("%v Data does not alias its frame", typ)
			}
			continue
		}
		got, err := back.appendFrame(nil)
		if err != nil {
			t.Fatalf("%v re-encode: %v", typ, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v changed with its overwritten frame:\n got % x\nwant % x", typ, got, want)
		}
	}
}

// TestAppendFrameOverStaleBytes: a pooled buffer holds an old frame's bytes,
// so every encoder must write each byte of its frame, the NUL padding of
// titles and the reserved bytes too. Appending into a buffer full of 0xFF,
// after a prefix or not, gives exactly Encode's bytes and keeps the prefix.
func TestAppendFrameOverStaleBytes(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range seedMessages(t) {
		want, err := m.appendFrame(nil)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		for _, keep := range []int{0, len(prefix)} {
			stale := bytes.Repeat([]byte{0xff}, 4096)
			copy(stale, prefix[:keep])
			got, err := m.appendFrame(stale[:keep])
			if err != nil {
				t.Fatalf("%v: %v", m.Type(), err)
			}
			if !bytes.Equal(got[:keep], prefix[:keep]) || !bytes.Equal(got[keep:], want) {
				t.Errorf("%v after %d bytes of stale buffer:\n got % x\nwant % x", m.Type(), keep, got[keep:], want)
			}
		}
	}
}

// TestBackToBackHitReads: the second of two hits read from one stream reuses
// the first's frame buffer, and the first hit's titles stay as they were.
func TestBackToBackHitReads(t *testing.T) {
	first, second := hitOf(25, "first"), hitOf(25, "second hit, longer titles")
	var stream bytes.Buffer
	for _, m := range []Message{first, second} {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	a, err := ReadMessage(&stream)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadMessage(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, first) {
		t.Errorf("the first hit changed when the second was read: %+v", a.(*QueryHit).Results[0])
	}
	if !reflect.DeepEqual(b, second) {
		t.Errorf("the second hit read back as %+v", b.(*QueryHit).Results[0])
	}
}

// hitOf is a QueryHit from one responder with n results titled
// "<title> <i>".
func hitOf(n int, title string) *QueryHit {
	qh := &QueryHit{ID: GUID{5}, TTL: 7,
		Responders: []ResponderRecord{{IP: [4]byte{10, 0, 0, 1}, Port: 6346, ResultCount: uint16(n)}}}
	for i := 0; i < n; i++ {
		qh.Results = append(qh.Results, ResultRecord{FileIndex: uint32(i), Title: fmt.Sprintf("%s %d", title, i)})
	}
	return qh
}

// TestCodecAllocs pins what a frame costs the heap once the pool is warm:
// writing allocates nothing, and reading allocates the decoded message
// alone. A 25-result hit is the struct, its two slices and 25 titles; a
// Query is the struct and its text.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of Puts, so a warm pool still allocates")
	}
	for _, tc := range []struct {
		m           Message
		write, read float64
	}{
		{&Query{ID: GUID{4}, TTL: 7, Text: "free jazz"}, 0, 2},
		{hitOf(25, "free jazz classics"), 0, 28},
	} {
		var w bytes.Buffer
		w.Grow(4096)
		if allocs := testing.AllocsPerRun(100, func() { w.Reset(); WriteMessage(&w, tc.m) }); allocs > tc.write {
			t.Errorf("WriteMessage(%v) allocates %v times, want %v", tc.m.Type(), allocs, tc.write)
		}
		frame := bytes.Clone(w.Bytes())
		r := bytes.NewReader(frame)
		if allocs := testing.AllocsPerRun(100, func() { r.Reset(frame); ReadMessage(r) }); allocs > tc.read {
			t.Errorf("ReadMessage(%v) allocates %v times, want %v", tc.m.Type(), allocs, tc.read)
		}
	}
}
