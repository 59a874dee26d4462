package transfer

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"spnet/internal/faults"
)

// sinkConn keeps what is written to it, so the fault injector's write path
// can damage encoded manifests for the fuzz corpus. The injector reaches only
// Write and Close; the nil net.Conn stands in for everything else.
type sinkConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *sinkConn) Close() error                { return nil }

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
	// Damaged copies through the fault injector: flipped bytes and writes cut
	// short.
	for i, rule := range []faults.Rule{{CorruptProb: 1}, {TruncateProb: 1}} {
		ctrl := faults.NewController(uint64(21 + i))
		ctrl.SetRule("sender", rule)
		for _, b := range seeds {
			var sink sinkConn
			ctrl.Wrap("sender", &sink).Write(b) // a truncating rule reports its reset
			f.Add(sink.buf.Bytes())
		}
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
