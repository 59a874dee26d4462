package gnutella

import (
	"bytes"
	"errors"
	"testing"
)

func TestChunkRequestRoundTrip(t *testing.T) {
	in := &ChunkRequest{ID: GUID{1, 2, 3}, FileIndex: 7, Chunk: 42}
	buf := in.Encode()
	if len(buf) != DescriptorHeaderLen+chunkRequestPayload {
		t.Fatalf("encoded %d bytes, want %d", len(buf), DescriptorHeaderLen+chunkRequestPayload)
	}
	out, err := DecodeChunkRequest(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	if got, want := in.WireSize(), ChunkRequestSize(); got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	if want := FrameOverhead + len(buf); in.WireSize() != want {
		t.Errorf("WireSize = %d, want framing + encoded = %d", in.WireSize(), want)
	}
}

func TestChunkDataRoundTrip(t *testing.T) {
	in := &ChunkData{
		ID: GUID{4}, FileIndex: 1, Chunk: 3, TotalChunks: 16,
		FileSize: 1 << 20, Data: []byte("some chunk bytes"),
	}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeChunkData(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.FileIndex != in.FileIndex || out.Chunk != in.Chunk ||
		out.TotalChunks != in.TotalChunks || out.FileSize != in.FileSize ||
		!bytes.Equal(out.Data, in.Data) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	if got, want := in.WireSize(), ChunkDataSize(len(in.Data)); got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	if want := FrameOverhead + len(buf); in.WireSize() != want {
		t.Errorf("WireSize = %d, want framing + encoded = %d", in.WireSize(), want)
	}
}

func TestChunkDataEmptyPayload(t *testing.T) {
	in := &ChunkData{ID: GUID{5}, FileIndex: 2, Chunk: 0, TotalChunks: 1}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeChunkData(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Data) != 0 {
		t.Errorf("empty chunk decoded with %d data bytes", len(out.Data))
	}
}

func TestChunkDataRejectsOversize(t *testing.T) {
	in := &ChunkData{Data: make([]byte, MaxChunkLen+1)}
	if _, err := in.Encode(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("encoding %d-byte chunk: err = %v, want ErrBadMessage", len(in.Data), err)
	}
}

func TestChunkNackRoundTrip(t *testing.T) {
	for _, code := range []uint8{NackNotFound, NackBusy, NackBadRequest} {
		in := &ChunkNack{ID: GUID{6}, FileIndex: 9, Chunk: 1, Code: code}
		out, err := DecodeChunkNack(in.Encode())
		if err != nil {
			t.Fatalf("decode code %d: %v", code, err)
		}
		if *out != *in {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestDecodeChunkFramesRejectDamage(t *testing.T) {
	req := (&ChunkRequest{FileIndex: 1, Chunk: 2}).Encode()
	data, _ := (&ChunkData{FileIndex: 1, Chunk: 2, TotalChunks: 3, Data: []byte("x")}).Encode()
	nack := (&ChunkNack{FileIndex: 1, Chunk: 2, Code: NackBusy}).Encode()

	cases := []struct {
		name string
		buf  []byte
	}{
		{"request truncated", req[:len(req)-1]},
		{"request trailing byte", append(append([]byte(nil), req...), 0)},
		{"data truncated below fixed part", data[:DescriptorHeaderLen+chunkDataPayload-1]},
		{"nack truncated", nack[:len(nack)-1]},
		{"nack bad code", func() []byte {
			b := append([]byte(nil), nack...)
			b[31] = 99
			return b
		}()},
		{"wrong type for request", data},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.buf
			// Re-stamp the header's payload length to match the damaged body so
			// the length check isn't the only line of defense being exercised.
			var err error
			switch {
			case tc.name == "wrong type for request":
				_, err = DecodeChunkRequest(buf)
			case buf[16] == byte(TypeChunkRequest):
				_, err = DecodeChunkRequest(buf)
			case buf[16] == byte(TypeChunkData):
				_, err = DecodeChunkData(buf)
			default:
				_, err = DecodeChunkNack(buf)
			}
			if !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrShortMessage) {
				t.Errorf("%s: err = %v, want ErrBadMessage/ErrShortMessage", tc.name, err)
			}
		})
	}
}

func TestChunkFramesOverStream(t *testing.T) {
	msgs := []Message{
		&ChunkRequest{ID: GUID{1}, FileIndex: 3, Chunk: 0},
		&ChunkData{ID: GUID{2}, FileIndex: 3, Chunk: 0, TotalChunks: 4,
			FileSize: 999, Data: bytes.Repeat([]byte("ab"), 500)},
		&ChunkNack{ID: GUID{3}, FileIndex: 3, Chunk: 7, Code: NackBusy},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("writing %T: %v", m, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("reading back %T: %v", want, err)
		}
		if wantCls, gotCls := MessageClass(want), MessageClass(got); wantCls != gotCls || gotCls.String() != "transfer" {
			t.Errorf("%T classed %v, want transfer", got, gotCls)
		}
		if got.WireSize() != want.WireSize() {
			t.Errorf("%T wire size %d after round trip, want %d", got, got.WireSize(), want.WireSize())
		}
	}
}

// TestChunkDataFramesDoNotShareBuffers: a decoded ChunkData's Data aliases
// its frame, so two frames read back to back from one stream must land in
// separate buffers. A reader that reused its frame buffer would overwrite the
// first chunk's bytes with the second's.
func TestChunkDataFramesDoNotShareBuffers(t *testing.T) {
	var stream bytes.Buffer
	for _, fill := range []byte{'a', 'b'} {
		m := &ChunkData{FileIndex: 1, Chunk: uint32(fill), TotalChunks: 256, Data: bytes.Repeat([]byte{fill}, 1000)}
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ReadMessage(&stream)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadMessage(&stream)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.(*ChunkData), second.(*ChunkData)
	if !bytes.Equal(a.Data, bytes.Repeat([]byte{'a'}, 1000)) {
		t.Error("the first frame's Data changed when the second frame was read")
	}
	if !bytes.Equal(b.Data, bytes.Repeat([]byte{'b'}, 1000)) {
		t.Error("the second frame's Data is wrong")
	}
	if cap(a.Data) != len(a.Data) {
		t.Errorf("Data has cap %d beyond its length %d: an append would write into the frame", cap(a.Data), len(a.Data))
	}
}

// copyEncode is cd encoded through the copying path: the same fields, with
// Data in a slice cd does not own.
func copyEncode(t *testing.T, cd *ChunkData) []byte {
	t.Helper()
	c := &ChunkData{ID: cd.ID, FileIndex: cd.FileIndex, Chunk: cd.Chunk,
		TotalChunks: cd.TotalChunks, FileSize: cd.FileSize, Data: bytes.Clone(cd.Data)}
	buf, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestChunkDataInFrameEncodesLikeCopy: a ChunkData filled through Reserve
// encodes in place, to the bytes the copying encode gives, for a full chunk
// and a short last one; shrinking reuses the frame, and growing past it
// regrows it.
func TestChunkDataInFrameEncodesLikeCopy(t *testing.T) {
	var cd ChunkData
	var base *byte // the owned frame's first byte
	for i, tc := range []struct {
		name  string
		n     int
		reuse bool
	}{
		{"full", 64 << 10, false},
		{"short last", 1000, true},
		{"regrow within", 64 << 10, true},
		{"regrow past", 64<<10 + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := cd.Reserve(tc.n)
			if len(data) != tc.n || cap(data) != tc.n {
				t.Fatalf("Reserve(%d) gave len %d cap %d", tc.n, len(data), cap(data))
			}
			if reused := &cd.owned[0] == base; reused != tc.reuse {
				t.Errorf("frame reused = %v, want %v", reused, tc.reuse)
			}
			base = &cd.owned[0]
			for j := range data {
				data[j] = byte(j*7 + i)
			}
			cd.ID, cd.FileIndex, cd.Chunk = GUID{byte(i + 1)}, 9, uint32(i)
			cd.TotalChunks, cd.FileSize = 4, 3<<16+1000
			frame, err := cd.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if &frame[chunkDataHead] != &data[0] {
				t.Error("Encode copied a Data that lives in its frame")
			}
			if want := copyEncode(t, &cd); !bytes.Equal(frame, want) {
				t.Error("in-frame encode differs from the copying encode")
			}
			if out, err := DecodeChunkData(frame); err != nil || !bytes.Equal(out.Data, data) {
				t.Errorf("in-frame encode does not decode back: %v", err)
			}
		})
	}
}

// TestChunkDataRepointedDataCopies: once Data no longer starts where Reserve
// put it, Encode falls back to copying and leaves the owned frame alone.
func TestChunkDataRepointedDataCopies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		repoint func(cd *ChunkData)
	}{
		{"elsewhere", func(cd *ChunkData) { cd.Data = bytes.Repeat([]byte{'x'}, 500) }},
		{"inside, shifted", func(cd *ChunkData) { cd.Data = cd.Data[1:] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cd := &ChunkData{ID: GUID{7}, FileIndex: 1, Chunk: 2, TotalChunks: 3, FileSize: 5000}
			copy(cd.Reserve(1000), bytes.Repeat([]byte{'y'}, 1000))
			tc.repoint(cd)
			frame, err := cd.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if &frame[0] == &cd.owned[0] {
				t.Error("Encode wrote into the owned frame for a re-pointed Data")
			}
			if !bytes.Equal(cd.owned[:chunkDataHead], make([]byte, chunkDataHead)) {
				t.Error("Encode wrote a header into the owned frame")
			}
			if want := copyEncode(t, cd); !bytes.Equal(frame, want) {
				t.Error("re-pointed encode differs from the copying encode")
			}
		})
	}
}
