package transfer

import (
	"bytes"
	"errors"
	"testing"

	"spnet/internal/stats"
)

// FuzzDecodeManifest hammers the manifest decoder, whose input rides inside a
// ChunkData payload and so is reached by no wire-level fuzzer: it must never
// panic, every error must wrap ErrBadManifest, and whatever decodes must
// re-encode to exactly the bytes it came from.
func FuzzDecodeManifest(f *testing.F) {
	var seeds [][]byte
	for _, m := range []*Manifest{
		BuildManifest("empty", 0, 1<<10),
		BuildManifest("one chunk", 100, 1<<10),
		BuildManifest("exact chunks", 4<<10, 1<<10),
		BuildManifest("short tail", 10_000, 1<<10),
	} {
		seeds = append(seeds, m.Encode())
	}
	for _, b := range seeds {
		f.Add(b)
	}
	// Damaged copies: one byte flipped, then cut to the first half. Each flip
	// takes three draws from one stream: a Float64 it discards, then the
	// position, then a non-zero XOR mask. The discarded draw keeps the corpus
	// byte-identical to the one this seed has always produced.
	rng := stats.NewRNG(21)
	for _, b := range seeds {
		rng.Float64()
		d := append([]byte(nil), b...)
		d[rng.Uint64()%uint64(len(d))] ^= byte(1 + rng.Uint64()%255)
		f.Add(d)
	}
	for _, b := range seeds {
		f.Add(b[:len(b)/2])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("error does not wrap ErrBadManifest: %v", err)
			}
			return
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded manifest re-encodes to different bytes:\n got %x\nwant %x", enc, data)
		}
	})
}
