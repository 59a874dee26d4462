package gnutella

import (
	"bytes"
	"reflect"
	"testing"
)

// damagedFrames is every seed message's frame, then each cut in half, then
// each with one byte flipped under three corruption seeds.
func damagedFrames(t testing.TB) [][]byte {
	frames := encodes(t, seedMessages(t))
	out := append([][]byte(nil), frames...)
	out = append(out, truncated(frames)...)
	for _, seed := range []uint64{7, 12, 22} {
		out = append(out, corrupted(seed, frames)...)
	}
	return out
}

// TestReadFrameAcceptsAsReadMessage: the header-first read and the decoding
// read run one structural check, so over whole, cut and corrupted frames of
// every type they accept the same frames, and an accepted Frame decodes to
// what ReadMessage returns and is metered as it is.
func TestReadFrameAcceptsAsReadMessage(t *testing.T) {
	var f Frame // one Frame for every read, as a reader keeps it
	for i, data := range damagedFrames(t) {
		want, werr := ReadMessage(bytes.NewReader(data))
		ferr := ReadFrame(bytes.NewReader(data), 0, &f)
		if (werr == nil) != (ferr == nil) {
			t.Fatalf("frame %d (% x): ReadMessage error %v, ReadFrame error %v", i, data, werr, ferr)
		}
		if werr != nil {
			if ferr.Error() != werr.Error() {
				t.Errorf("frame %d: ReadFrame error %v, ReadMessage error %v", i, ferr, werr)
			}
			continue
		}
		got, err := f.Decode()
		if err != nil {
			t.Fatalf("frame %d: a read Frame does not decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: Frame decodes to %+v, ReadMessage read %+v", i, got, want)
		}
		if f.WireSize() != want.WireSize() || MessageClass(&f) != MessageClass(want) || HitResponders(&f) != HitResponders(want) {
			t.Errorf("frame %d: Frame meters as %v %d bytes, %d responders; decoded as %v %d, %d", i,
				MessageClass(&f), f.WireSize(), HitResponders(&f), MessageClass(want), want.WireSize(), HitResponders(want))
		}
	}
}

// FuzzRelayQueryHit: a relay reads a hit header first and passes its bytes
// on. For any input, ReadFrame reads it whole as a QueryHit exactly when
// DecodeQueryHit accepts it, and Relay leaves the bytes the decoded hit
// encodes to with Hops + 1, so a relay sends what decoding and re-encoding
// sent, titles' stale padding included.
func FuzzRelayQueryHit(f *testing.F) {
	hits := []Message{
		hitOf(1, "free jazz"),
		hitOf(25, "free jazz classics"),
		&QueryHit{ID: GUID{6}, TTL: 7, Hops: 255},
		&QueryHit{ID: GUID{7}, TTL: 3, Responders: []ResponderRecord{{Port: 1}, {IP: [4]byte{10, 0, 0, 2}}}},
	}
	frames := encodes(f, hits)
	// A title with bytes after its NUL: the decode ends the title at the NUL.
	stale := bytes.Clone(frames[0])
	copy(stale[24+ResponderRecordLen+10+4:], "\x00junk")
	frames = append(frames, stale)
	for _, b := range append(frames, append(truncated(frames), corrupted(31, frames)...)...) {
		f.Add(b)
	}
	for _, b := range encodes(f, seedMessages(f)) {
		f.Add(b)
	}
	// The read is bounded as FuzzReadMessage's is, so a length field that
	// claims megabytes costs no megabyte buffer per input; DecodeQueryHit
	// applies no bound, so longer inputs are out of the comparison.
	const limit = 1 << 16
	var fr Frame
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > DescriptorHeaderLen+limit {
			return
		}
		err := ReadFrame(bytes.NewReader(data), limit, &fr)
		relayed := err == nil && fr.Type() == TypeQueryHit && len(fr.buf) == len(data)
		hit, derr := DecodeQueryHit(data)
		if relayed != (derr == nil) {
			t.Fatalf("ReadFrame takes it as a whole hit: %v (error %v); DecodeQueryHit error: %v", relayed, err, derr)
		}
		if !relayed {
			return
		}
		fr.Relay()
		hit.Hops++
		want, err := hit.Encode()
		if err != nil {
			t.Fatalf("decoded hit does not re-encode: %v", err)
		}
		if !bytes.Equal(fr.buf, want) {
			t.Fatalf("relayed bytes differ from the re-encoded hit:\n got % x\nwant % x", fr.buf, want)
		}
	})
}
