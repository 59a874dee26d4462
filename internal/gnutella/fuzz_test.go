package gnutella

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"spnet/internal/stats"
)

// seedMessages is one valid encode of every wire message type, the corpus
// the decoder fuzzing starts from.
func seedMessages(t testing.TB) []Message {
	t.Helper()
	return []Message{
		&Ping{ID: GUID{1}, TTL: 7},
		&Pong{ID: GUID{2}, TTL: 1, Hops: 3},
		&Busy{ID: GUID{3}, TTL: 1, Hops: 2},
		&Query{ID: GUID{4}, TTL: 7, MinSpeed: 1, Text: "free jazz"},
		&QueryHit{
			ID:         GUID{5},
			TTL:        7,
			Responders: []ResponderRecord{{ClientGUID: GUID{6}, Port: 6346, ResultCount: 1}},
			Results:    []ResultRecord{{FileIndex: 9, Title: "free jazz classics"}},
		},
		&Join{ID: GUID{7}, Files: []MetadataRecord{{FileIndex: 1, FileSize: 2, Title: "a.mp3"}}},
		&Update{ID: GUID{8}, Op: OpInsert, File: MetadataRecord{FileIndex: 3, Title: "b.mp3"}},
		&Summary{ID: GUID{9}, TTL: 1, Terms: []string{"free", "jazz"}},
		&Register{ID: GUID{10}, Flags: RegisterHello, Epoch: 42, In: 386, Out: 290, Clients: 1},
		&Directive{ID: GUID{11}, Epoch: 43, Action: ActionPromotePartner, MaxClients: 200},
		&Poll{ID: GUID{12}},
		&ChunkRequest{ID: GUID{13}, FileIndex: 4, Chunk: 2},
		&ChunkData{ID: GUID{14}, FileIndex: 4, Chunk: 2, TotalChunks: 8,
			FileSize: 1 << 20, Data: []byte("chunk payload bytes")},
		&ChunkNack{ID: GUID{15}, FileIndex: 4, Chunk: 9, Code: NackNotFound},
	}
}

func encodeMsg(t testing.TB, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("encoding seed %T: %v", m, err)
	}
	return buf.Bytes()
}

// encodes is encodeMsg over msgs.
func encodes(t testing.TB, msgs []Message) [][]byte {
	t.Helper()
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = encodeMsg(t, m)
	}
	return out
}

// truncated cuts each frame to its first half, what a link that dies
// mid-write delivers.
func truncated(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, b := range frames {
		out[i] = b[:len(b)/2]
	}
	return out
}

// corrupted returns a copy of each frame with one byte flipped. Each flip
// takes three draws from one stream seeded by seed: a Float64 it discards,
// then the position, then a non-zero XOR mask. The discarded draw keeps the
// corpus byte-identical to the one these seeds have always produced.
func corrupted(seed uint64, frames [][]byte) [][]byte {
	rng := stats.NewRNG(seed)
	out := make([][]byte, len(frames))
	for i, b := range frames {
		rng.Float64()
		d := append([]byte(nil), b...)
		d[rng.Uint64()%uint64(len(d))] ^= byte(1 + rng.Uint64()%255)
		out[i] = d
	}
	return out
}

// FuzzReadMessage hammers the stream decoder with arbitrary bytes: it must
// never panic, never hang (the input is finite), and fail only with the typed
// stream errors — io.EOF / io.ErrUnexpectedEOF at stream ends, ErrShortMessage
// or the ErrBadMessage family (including ErrPayloadTooLarge) for damage.
func FuzzReadMessage(f *testing.F) {
	frames := encodes(f, seedMessages(f))
	for _, b := range frames {
		f.Add(b)
	}
	// Damaged variants of every message: streams cut mid-frame and streams
	// with flipped bytes.
	for _, b := range truncated(frames) {
		f.Add(b)
	}
	for _, b := range corrupted(12, frames) {
		f.Add(b)
	}
	// A header whose length field vastly overstates the payload.
	huge := encodeMsg(f, &Query{Text: "x"})
	huge[19], huge[20], huge[21], huge[22] = 0xff, 0xff, 0xff, 0x7f
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessageLimit(bytes.NewReader(data), 1<<16)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrShortMessage) && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if msg == nil {
			t.Fatal("nil message with nil error")
		}
		// Whatever decoded must re-encode: decode may not accept frames the
		// encoder cannot produce.
		var buf bytes.Buffer
		if werr := WriteMessage(&buf, msg); werr != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, werr)
		}
	})
}

// encoder is a message whose Encode is the exact inverse of its decoder.
type encoder interface {
	Encode() ([]byte, error)
}

// fuzzDecode fuzzes one payload decoder on its own, seeded from the given
// messages' encodes plus truncated and corrupted copies of them. The
// decoder must never panic, must fail only with errors wrapping
// ErrBadMessage, and must accept only canonical bytes: whatever decodes
// re-encodes to exactly the input.
func fuzzDecode[M encoder](f *testing.F, decode func([]byte) (M, error), msgs ...Message) {
	frames := encodes(f, msgs)
	for _, b := range frames {
		f.Add(b)
	}
	for _, b := range truncated(frames) {
		f.Add(b)
	}
	for _, b := range corrupted(22, frames) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decode error does not wrap ErrBadMessage: %v", err)
			}
			return
		}
		re, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical input accepted:\n in % x\nout % x", data, re)
		}
	})
}

func FuzzDecodeSummary(f *testing.F) {
	fuzzDecode(f, DecodeSummary,
		&Summary{ID: GUID{9}, TTL: 1, Terms: []string{"free", "jazz"}},
		&Summary{ID: GUID{10}, TTL: 3, Hops: 2},
		&Summary{ID: GUID{11}, TTL: 1, Terms: []string{"", strings.Repeat("t", 255)}})
}

func FuzzDecodeRegister(f *testing.F) {
	fuzzDecode(f, DecodeRegister,
		&Register{ID: GUID{10}, Flags: RegisterHello, Epoch: 42, In: 386, Out: 290, Clients: 1},
		&Register{ID: GUID{11}, Flags: RegisterBye, Epoch: 1 << 63, In: 1 << 40, Out: 1<<63 + 1, Clients: 65535})
}

func FuzzDecodeDirective(f *testing.F) {
	fuzzDecode(f, DecodeDirective,
		&Directive{ID: GUID{11}, Epoch: 43, Action: ActionPromotePartner, MaxClients: 200},
		&Directive{ID: GUID{12}, Epoch: 1, Action: ActionSplitCluster, TTL: 3},
		&Directive{ID: GUID{13}, Epoch: 1 << 63, Action: ActionCoalesce, TTL: 255, MaxClients: 65535})
}

func FuzzDecodePoll(f *testing.F) {
	fuzzDecode(f, DecodePoll, &Poll{ID: GUID{12}}, &Poll{})
}

// TestReadMessageFaultedStream replays damaged frames over a real
// connection pair and checks the reader's behavior is bounded: typed errors
// for damage, no hangs past the read deadline.
func TestReadMessageFaultedStream(t *testing.T) {
	msgs := seedMessages(t)
	frames := encodes(t, msgs)
	cases := []struct {
		name   string
		frames [][]byte
	}{
		{"truncate", truncated(frames)},
		{"corrupt", corrupted(7, frames)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, frame := range tc.frames {
				m := msgs[i]
				a, b := net.Pipe()
				// Both ends are deadline-bounded: a corrupted length field may
				// make the reader wait for bytes that never come (or leave the
				// writer with bytes never read), and either way the exchange
				// must end promptly rather than hang.
				a.SetWriteDeadline(time.Now().Add(2 * time.Second))
				b.SetReadDeadline(time.Now().Add(2 * time.Second))
				done := make(chan error, 1)
				go func() {
					var err error
					for err == nil {
						_, err = ReadMessage(b)
					}
					done <- err
				}()
				a.Write(frame)
				a.Close()
				select {
				case err := <-done:
					var ne net.Error
					timeout := errors.As(err, &ne) && ne.Timeout()
					if err != nil && !timeout &&
						!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
						!errors.Is(err, ErrShortMessage) && !errors.Is(err, ErrBadMessage) &&
						!errors.Is(err, io.ErrClosedPipe) {
						t.Errorf("%T over %s stream: untyped error %v", m, tc.name, err)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("%T over %s stream: reader hung past its deadline", m, tc.name)
				}
				b.Close()
			}
		})
	}
}
