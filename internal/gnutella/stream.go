package gnutella

import (
	"fmt"
	"io"

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
	// frame serializes the message: descriptor header plus payload.
	frame() ([]byte, error)
}

// frameRow describes one frame type. Everything that varies by type and is
// not the payload layout itself lives here, so a new frame is its struct, its
// three Message methods, its decoder and one row.
type frameRow struct {
	name   string        // MsgType.String
	class  metrics.Class // load-taxonomy class MessageClass and Meter charge
	decode func(buf []byte) (Message, error)
}

// frames is the frame table, indexed by payload descriptor; a type without a
// row (empty name) is not a message this stack speaks.
var frames = [256]frameRow{
	TypePing:         {"Ping", metrics.ClassPing, decoder(DecodePing)},
	TypePong:         {"Pong", metrics.ClassPing, decoder(DecodePong)},
	TypeQuery:        {"Query", metrics.ClassQuery, decoder(DecodeQuery)},
	TypeQueryHit:     {"QueryHit", metrics.ClassResponse, decoder(DecodeQueryHit)},
	TypeJoin:         {"Join", metrics.ClassJoin, decoder(DecodeJoin)},
	TypeUpdate:       {"Update", metrics.ClassUpdate, decoder(DecodeUpdate)},
	TypeBusy:         {"Busy", metrics.ClassBusy, decoder(DecodeBusy)},
	TypeSummary:      {"Summary", metrics.ClassOther, decoder(DecodeSummary)},
	TypeRegister:     {"Register", metrics.ClassOther, decoder(DecodeRegister)},
	TypeDirective:    {"Directive", metrics.ClassOther, decoder(DecodeDirective)},
	TypeDirectiveAck: {"DirectiveAck", metrics.ClassOther, decoder(DecodeDirectiveAck)},
	TypeChunkRequest: {"ChunkRequest", metrics.ClassTransfer, decoder(DecodeChunkRequest)},
	TypeChunkData:    {"ChunkData", metrics.ClassTransfer, decoder(DecodeChunkData)},
	TypeChunkNack:    {"ChunkNack", metrics.ClassTransfer, decoder(DecodeChunkNack)},
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

// WriteMessage serializes one message to w (descriptor header + payload;
// TCP provides the framing the cost model's fixed overhead accounts for).
func WriteMessage(w io.Writer, m Message) error {
	buf, err := m.frame()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
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
	head := make([]byte, DescriptorHeaderLen)
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
	buf := make([]byte, DescriptorHeaderLen+int(h.PayloadLen))
	copy(buf, head)
	if _, err := io.ReadFull(r, buf[DescriptorHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if row := &frames[h.Type]; row.decode != nil {
		return row.decode(buf)
	}
	return nil, fmt.Errorf("%w: unknown message type 0x%02x", ErrBadMessage, byte(h.Type))
}
