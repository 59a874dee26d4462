package gnutella

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"spnet/internal/metrics"
)

// Message is any wire message. The interface is sealed: the frame table
// below lists every implementation.
type Message interface {
	// Type returns the payload descriptor the message travels under.
	Type() MsgType
	// WireSize returns the on-the-wire size including framing, as the cost
	// model prices it.
	WireSize() int
	// appendFrame appends the message's frame, descriptor header plus
	// payload, to dst and returns the extended slice. It writes every byte of
	// the frame, so dst's spare capacity may hold anything.
	appendFrame(dst []byte) ([]byte, error)
}

// frameRow describes one frame type. Everything that varies by type and is
// not the payload layout itself lives here, so a new frame is its struct, its
// three Message methods, its decoder and one row.
type frameRow struct {
	name   string        // MsgType.String
	class  metrics.Class // load-taxonomy class MessageClass and Meter charge
	decode func(buf []byte) (Message, error)
	// keepsFrame marks a decoder whose message aliases its frame instead of
	// copying out of it, so the frame is never a pooled buffer.
	keepsFrame bool
}

// frames is the frame table, indexed by payload descriptor; a type without a
// row (empty name) is not a message this stack speaks.
var frames = [256]frameRow{
	TypePing:         {"Ping", metrics.ClassPing, decoder(DecodePing), false},
	TypePong:         {"Pong", metrics.ClassPing, decoder(DecodePong), false},
	TypeQuery:        {"Query", metrics.ClassQuery, decoder(DecodeQuery), false},
	TypeQueryHit:     {"QueryHit", metrics.ClassResponse, decoder(DecodeQueryHit), false},
	TypeJoin:         {"Join", metrics.ClassJoin, decoder(DecodeJoin), false},
	TypeUpdate:       {"Update", metrics.ClassUpdate, decoder(DecodeUpdate), false},
	TypeBusy:         {"Busy", metrics.ClassBusy, decoder(DecodeBusy), false},
	TypeSummary:      {"Summary", metrics.ClassOther, decoder(DecodeSummary), false},
	TypeRegister:     {"Register", metrics.ClassOther, decoder(DecodeRegister), false},
	TypeDirective:    {"Directive", metrics.ClassOther, decoder(DecodeDirective), false},
	TypePoll:         {"Poll", metrics.ClassOther, decoder(DecodePoll), false},
	TypeChunkRequest: {"ChunkRequest", metrics.ClassTransfer, decoder(DecodeChunkRequest), false},
	TypeChunkData:    {"ChunkData", metrics.ClassTransfer, decoder(DecodeChunkData), true},
	TypeChunkNack:    {"ChunkNack", metrics.ClassTransfer, decoder(DecodeChunkNack), false},
}

// decoder adapts a typed DecodeX to the table's signature. Its constraint is
// also the compile-time check that every message type satisfies Message.
func decoder[M Message](dec func([]byte) (M, error)) func([]byte) (Message, error) {
	return func(buf []byte) (Message, error) { return dec(buf) }
}

// MaxPayloadLen is the hard upper bound on accepted payloads, protecting
// readers from malicious or corrupt length fields: a frame header can never
// make ReadMessage allocate more than this (plus the 23-byte header).
const MaxPayloadLen = 1 << 22 // 4 MiB: ~55k result records

// ErrPayloadTooLarge reports a frame whose header claims a payload above the
// reader's limit. It is returned before any payload byte is read or
// allocated, so an attacker-controlled length field costs nothing. Shared by
// the node's read path and the decoder fuzz target. An oversized frame is a
// kind of malformed message, so errors.Is also matches ErrBadMessage.
var ErrPayloadTooLarge error = payloadTooLargeError{}

type payloadTooLargeError struct{}

func (payloadTooLargeError) Error() string { return "gnutella: payload exceeds limit" }

// Is makes ErrPayloadTooLarge a refinement of ErrBadMessage.
func (payloadTooLargeError) Is(target error) bool { return target == ErrBadMessage }

// Who owns a frame's bytes (DESIGN.md §17): WriteMessage and
// ReadMessageLimit borrow their frame buffers from framePool and return them
// before they do. A writer may: an io.Writer must not retain the slice it is
// given. A reader may because every decoder copies its fields out of the
// frame, except the keepsFrame row's, whose frame is always a fresh buffer,
// as is any frame over maxPooledFrame, which would pin its size in the pool.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame is the largest frame buffer the pool keeps: a Join of 900
// files, far above any QueryHit the live workloads send.
const maxPooledFrame = 64 << 10

// WriteMessage serializes one message to w (descriptor header + payload;
// TCP provides the framing the cost model's fixed overhead accounts for).
// A keepsFrame message is written from its own frame or a fresh one; every
// other frame is encoded into a pooled buffer.
func WriteMessage(w io.Writer, m Message) error {
	if frames[m.Type()].keepsFrame {
		buf, err := m.appendFrame(nil)
		if err == nil {
			_, err = w.Write(buf)
		}
		return err
	}
	bp := framePool.Get().(*[]byte)
	buf, err := m.appendFrame((*bp)[:0])
	if err == nil {
		_, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0] // buf may be a regrown replacement of bp's buffer
	}
	framePool.Put(bp)
	return err
}

// ReadMessage reads and decodes the next message from r, accepting payloads
// up to MaxPayloadLen. It returns io.EOF (or io.ErrUnexpectedEOF mid-message)
// when the stream ends.
func ReadMessage(r io.Reader) (Message, error) {
	return ReadMessageLimit(r, MaxPayloadLen)
}

// ReadMessageLimit is ReadMessage with an explicit payload bound: frames
// whose header claims more than maxPayload bytes are rejected with
// ErrPayloadTooLarge before any payload is read. maxPayload is clamped to
// [0, MaxPayloadLen]; 0 selects MaxPayloadLen.
func ReadMessageLimit(r io.Reader, maxPayload uint32) (Message, error) {
	if maxPayload == 0 || maxPayload > MaxPayloadLen {
		maxPayload = MaxPayloadLen
	}
	bp := framePool.Get().(*[]byte)
	m, err := readFrame(r, maxPayload, bp)
	framePool.Put(bp)
	return m, err
}

// readFrame reads and decodes one frame for ReadMessageLimit in the pooled
// buffer bp, grown to fit, unless the frame's row keeps its frame or the
// frame is over maxPooledFrame: those get a fresh buffer.
func readFrame(r io.Reader, maxPayload uint32, bp *[]byte) (Message, error) {
	*bp = slices.Grow((*bp)[:0], DescriptorHeaderLen)
	head := (*bp)[:DescriptorHeaderLen]
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	h, err := decodeHeader(head)
	if err != nil {
		return nil, err
	}
	if h.PayloadLen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d > %d", ErrPayloadTooLarge, h.PayloadLen, maxPayload)
	}
	row := &frames[h.Type]
	if row.decode == nil {
		return nil, fmt.Errorf("%w: unknown message type 0x%02x", ErrBadMessage, byte(h.Type))
	}
	n := DescriptorHeaderLen + int(h.PayloadLen)
	var buf []byte
	if row.keepsFrame || n > maxPooledFrame {
		buf = make([]byte, n)
		copy(buf, head)
	} else {
		*bp = slices.Grow(head, int(h.PayloadLen))
		buf = (*bp)[:n]
	}
	if _, err := io.ReadFull(r, buf[DescriptorHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return row.decode(buf)
}
