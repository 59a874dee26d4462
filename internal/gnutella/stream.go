package gnutella

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"spnet/internal/metrics"
)

// Message is any wire message. The interface is sealed: the frame table
// below lists every implementation but one, Frame, a frame read and not
// decoded.
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
// three Message methods, its check, its decoder and one row.
type frameRow struct {
	name  string        // MsgType.String
	class metrics.Class // load-taxonomy class MessageClass and Meter charge
	// check is the type's structural check (wire.go): it accepts exactly the
	// frames decode accepts, and ReadFrame runs it on every frame it reads.
	check  func(h Header, buf []byte) error
	decode func(buf []byte) (Message, error)
	// keepsFrame marks a decoder whose message aliases its frame instead of
	// copying out of it, so the frame is never a pooled buffer.
	keepsFrame bool
}

// frames is the frame table, indexed by payload descriptor; a type without a
// row (empty name) is not a message this stack speaks.
var frames = [256]frameRow{
	TypePing:         {"Ping", metrics.ClassPing, checkEmpty, decoder(DecodePing), false},
	TypePong:         {"Pong", metrics.ClassPing, checkEmpty, decoder(DecodePong), false},
	TypeQuery:        {"Query", metrics.ClassQuery, checkQuery, decoder(DecodeQuery), false},
	TypeQueryHit:     {"QueryHit", metrics.ClassResponse, checkQueryHit, decoder(DecodeQueryHit), false},
	TypeJoin:         {"Join", metrics.ClassJoin, checkJoin, decoder(DecodeJoin), false},
	TypeUpdate:       {"Update", metrics.ClassUpdate, checkUpdate, decoder(DecodeUpdate), false},
	TypeBusy:         {"Busy", metrics.ClassBusy, checkEmpty, decoder(DecodeBusy), false},
	TypeSummary:      {"Summary", metrics.ClassOther, checkSummary, decoder(DecodeSummary), false},
	TypeRegister:     {"Register", metrics.ClassOther, checkRegister, decoder(DecodeRegister), false},
	TypeDirective:    {"Directive", metrics.ClassOther, checkDirective, decoder(DecodeDirective), false},
	TypePoll:         {"Poll", metrics.ClassOther, checkPoll, decoder(DecodePoll), false},
	TypeChunkRequest: {"ChunkRequest", metrics.ClassTransfer, checkChunkRequest, decoder(DecodeChunkRequest), false},
	TypeChunkData:    {"ChunkData", metrics.ClassTransfer, checkChunkData, decoder(DecodeChunkData), true},
	TypeChunkNack:    {"ChunkNack", metrics.ClassTransfer, checkChunkNack, decoder(DecodeChunkNack), false},
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
// A Frame is the third owner: its reader's, reused by the next ReadFrame.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame is the largest frame buffer the pool or a Frame keeps: a
// Join of 900 files, far above any QueryHit the live workloads send.
const maxPooledFrame = 64 << 10

// WriteMessage serializes one message to w (descriptor header + payload;
// TCP provides the framing the cost model's fixed overhead accounts for).
// A Frame and a keepsFrame message are written from their own bytes or a
// fresh frame; every other frame is encoded into a pooled buffer.
func WriteMessage(w io.Writer, m Message) error {
	if f, ok := m.(*Frame); ok {
		_, err := w.Write(f.buf)
		return err
	}
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
// [0, MaxPayloadLen]; 0 selects MaxPayloadLen. It is ReadFrame's read, into
// a pooled buffer, and then a decode.
func ReadMessageLimit(r io.Reader, maxPayload uint32) (Message, error) {
	bp := framePool.Get().(*[]byte)
	buf, err := readFrame(r, maxPayload, bp)
	var m Message
	if err == nil {
		m, err = frames[buf[16]].decode(buf)
	}
	framePool.Put(bp)
	return m, err
}

// Frame is one frame as a reader read it, descriptor header then payload,
// undecoded: what a relay needs to route by its header and pass the bytes
// on. ReadFrame fills it in a buffer the Frame keeps and reuses for the next
// frame, so a Frame belongs to one reader, and its bytes, and anything that
// aliases them, are good until that reader's next ReadFrame. A Frame is a
// Message: writing it writes its bytes as they are.
type Frame struct {
	buf []byte // the frame
	own []byte // the storage ReadFrame reuses; buf is in it unless fresh
}

// ReadFrame reads the next frame from r into f, in place of the one before,
// under ReadMessageLimit's payload bound, and runs its type's structural
// check, so f.Decode cannot fail. Its errors are ReadMessageLimit's.
func ReadFrame(r io.Reader, maxPayload uint32, f *Frame) error {
	buf, err := readFrame(r, maxPayload, &f.own)
	f.buf = buf
	return err
}

// Header decodes the frame's descriptor header.
func (f *Frame) Header() Header {
	h, _ := decodeHeader(f.buf) // ReadFrame read the whole header
	return h
}

// Type returns the frame's payload descriptor.
func (f *Frame) Type() MsgType { return MsgType(f.buf[16]) }

// WireSize returns the frame's on-the-wire size including framing, as its
// decoded message's WireSize would.
func (f *Frame) WireSize() int { return FrameOverhead + len(f.buf) }

func (f *Frame) appendFrame(dst []byte) ([]byte, error) { return append(dst, f.buf...), nil }

// Decode decodes the frame into a message that owns its fields, as
// ReadMessage would have returned it.
func (f *Frame) Decode() (Message, error) { return frames[f.Type()].decode(f.buf) }

// Responder returns a QueryHit frame's i-th responder record, for
// 0 <= i < its responder count, buf[23].
func (f *Frame) Responder(i int) ResponderRecord {
	return responderAt(f.buf[24+ResponderRecordLen*i:])
}

// Relay readies a QueryHit or Busy frame to go one hop further along its
// reverse path: Hops + 1, and each title's bytes after its first NUL zeroed.
// The frame is then the bytes its decoded form, with Hops + 1, encodes to, so
// a relay sends what a decode and re-encode would have sent.
func (f *Frame) Relay() {
	f.buf[18]++
	if f.Type() != TypeQueryHit {
		return
	}
	for off := 24 + ResponderRecordLen*int(f.buf[23]); off < len(f.buf); off += ResultRecordLen {
		title := f.buf[off+10 : off+10+titleFieldLen]
		if i := bytes.IndexByte(title, 0); i >= 0 {
			clear(title[i:])
		}
	}
}

// readFrame reads and checks one frame in the buffer bp, grown to fit,
// unless the frame's row keeps its frame or the frame is over
// maxPooledFrame: those get a fresh buffer. maxPayload is clamped as
// ReadMessageLimit says.
func readFrame(r io.Reader, maxPayload uint32, bp *[]byte) ([]byte, error) {
	if maxPayload == 0 || maxPayload > MaxPayloadLen {
		maxPayload = MaxPayloadLen
	}
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
	if err := row.check(h, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
