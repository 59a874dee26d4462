package gnutella

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"spnet/internal/faults"
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
		&Register{ID: GUID{10}, Flags: RegisterHello, Epoch: 42},
		&Directive{ID: GUID{11}, Epoch: 43, Action: ActionPromotePartner, MaxClients: 200},
		&DirectiveAck{ID: GUID{12}, Epoch: 43, Applied: 1},
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

// bufferConn adapts a bytes.Buffer to net.Conn so the fault injector's write
// path can produce damaged frames for the fuzz corpus.
type bufferConn struct {
	bytes.Buffer
}

func (*bufferConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (*bufferConn) Close() error                     { return nil }
func (*bufferConn) LocalAddr() net.Addr              { return nil }
func (*bufferConn) RemoteAddr() net.Addr             { return nil }
func (*bufferConn) SetDeadline(time.Time) error      { return nil }
func (*bufferConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufferConn) SetWriteDeadline(time.Time) error { return nil }

// faultedEncodes runs each message through a faults.Controller applying the
// given rule to each write, returning whatever bytes reached the "wire".
func faultedEncodes(t testing.TB, seed uint64, rule faults.Rule, msgs []Message) [][]byte {
	t.Helper()
	ctrl := faults.NewController(seed)
	ctrl.SetRule("sender", rule)
	var out [][]byte
	for _, m := range msgs {
		var buf bufferConn
		fc := ctrl.Wrap("sender", &buf)
		WriteMessage(fc, m) // error expected for truncating rules
		if buf.Len() > 0 {
			out = append(out, append([]byte(nil), buf.Bytes()...))
		}
	}
	return out
}

// FuzzReadMessage hammers the stream decoder with arbitrary bytes: it must
// never panic, never hang (the input is finite), and fail only with the typed
// stream errors — io.EOF / io.ErrUnexpectedEOF at stream ends, ErrShortMessage
// or the ErrBadMessage family (including ErrPayloadTooLarge) for damage.
func FuzzReadMessage(f *testing.F) {
	for _, m := range seedMessages(f) {
		f.Add(encodeMsg(f, m))
	}
	// Damaged variants of every message via the fault injector: streams cut
	// mid-frame and streams with flipped bytes.
	for _, b := range faultedEncodes(f, 11, faults.Rule{TruncateProb: 1}, seedMessages(f)) {
		f.Add(b)
	}
	for _, b := range faultedEncodes(f, 12, faults.Rule{CorruptProb: 1}, seedMessages(f)) {
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
// messages' encodes plus fault-injected truncated and corrupted copies. The
// decoder must never panic, must fail only with errors wrapping
// ErrBadMessage, and must accept only canonical bytes: whatever decodes
// re-encodes to exactly the input.
func fuzzDecode[M encoder](f *testing.F, decode func([]byte) (M, error), msgs ...Message) {
	for _, m := range msgs {
		f.Add(encodeMsg(f, m))
	}
	for _, b := range faultedEncodes(f, 21, faults.Rule{TruncateProb: 1}, msgs) {
		f.Add(b)
	}
	for _, b := range faultedEncodes(f, 22, faults.Rule{CorruptProb: 1}, msgs) {
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
		&Register{ID: GUID{10}, Flags: RegisterHello, Epoch: 42},
		&Register{ID: GUID{11}, Flags: RegisterBye, Epoch: 1 << 63})
}

func FuzzDecodeDirective(f *testing.F) {
	fuzzDecode(f, DecodeDirective,
		&Directive{ID: GUID{11}, Epoch: 43, Action: ActionPromotePartner, MaxClients: 200},
		&Directive{ID: GUID{12}, Epoch: 1, Action: ActionSplitCluster, TTL: 3},
		&Directive{ID: GUID{13}, Epoch: 1 << 63, Action: ActionCoalesce, TTL: 255, MaxClients: 65535})
}

func FuzzDecodeDirectiveAck(f *testing.F) {
	fuzzDecode(f, DecodeDirectiveAck,
		&DirectiveAck{ID: GUID{12}, Epoch: 43, Applied: 1},
		&DirectiveAck{ID: GUID{13}, Epoch: 1 << 63})
}

// TestReadMessageFaultedStream replays injector-damaged frames over a real
// connection pair and checks the reader's behavior is bounded: typed errors
// for damage, no hangs past the read deadline.
func TestReadMessageFaultedStream(t *testing.T) {
	cases := []struct {
		name string
		rule faults.Rule
	}{
		{"truncate", faults.Rule{TruncateProb: 1}},
		{"corrupt", faults.Rule{CorruptProb: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := faults.NewController(7)
			ctrl.SetRule("sender", tc.rule)
			for _, m := range seedMessages(t) {
				a, b := net.Pipe()
				// Both ends are deadline-bounded: a corrupted length field may
				// make the reader wait for bytes that never come (or leave the
				// writer with bytes never read), and either way the exchange
				// must end promptly rather than hang.
				a.SetWriteDeadline(time.Now().Add(2 * time.Second))
				b.SetReadDeadline(time.Now().Add(2 * time.Second))
				fc := ctrl.Wrap("sender", a)
				done := make(chan error, 1)
				go func() {
					var err error
					for err == nil {
						_, err = ReadMessage(b)
					}
					done <- err
				}()
				WriteMessage(fc, m) // error expected under injected faults
				fc.Close()
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
