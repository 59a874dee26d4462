package gnutella

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType identifies a message's payload descriptor. Query and QueryHit use
// the Gnutella 0.4 descriptor values; Join and Update are the super-peer
// extensions the paper introduces (Section 3.2).
type MsgType byte

// Payload descriptor values.
const (
	TypePing     MsgType = 0x00
	TypePong     MsgType = 0x01
	TypeQuery    MsgType = 0x80
	TypeQueryHit MsgType = 0x81
	TypeJoin     MsgType = 0x10
	TypeUpdate   MsgType = 0x11
	TypeBusy     MsgType = 0x12
	TypeSummary  MsgType = 0x13
)

// String returns the type's name from the frame table.
func (t MsgType) String() string {
	if name := frames[t].name; name != "" {
		return name
	}
	return fmt.Sprintf("MsgType(0x%02x)", byte(t))
}

// GUID is a 16-byte descriptor identifier. Super-peers use it for duplicate
// detection when the same query arrives over a cycle.
type GUID [16]byte

// NewGUID returns a random descriptor id. It panics if the system's secure
// random source fails, which crypto/rand itself treats as fatal from Go 1.24.
func NewGUID() GUID {
	var g GUID
	if _, err := rand.Read(g[:]); err != nil {
		panic("gnutella: reading a random GUID: " + err.Error())
	}
	return g
}

// Header is the 23-byte Gnutella descriptor header.
type Header struct {
	ID         GUID
	Type       MsgType
	TTL        uint8
	Hops       uint8
	PayloadLen uint32
}

// ErrBadMessage is returned for structurally invalid messages.
var ErrBadMessage = errors.New("gnutella: malformed message")

// ErrShortMessage is returned when a buffer is too small to hold the claimed
// message. A short buffer is malformed too, so it wraps ErrBadMessage.
var ErrShortMessage = fmt.Errorf("%w: short message", ErrBadMessage)

func (h *Header) encode(buf []byte) {
	copy(buf[0:16], h.ID[:])
	buf[16] = byte(h.Type)
	buf[17] = h.TTL
	buf[18] = h.Hops
	binary.LittleEndian.PutUint32(buf[19:23], h.PayloadLen)
}

func decodeHeader(buf []byte) (Header, error) {
	if len(buf) < DescriptorHeaderLen {
		return Header{}, fmt.Errorf("%w: %d bytes for header", ErrShortMessage, len(buf))
	}
	var h Header
	copy(h.ID[:], buf[0:16])
	h.Type = MsgType(buf[16])
	h.TTL = buf[17]
	h.Hops = buf[18]
	h.PayloadLen = binary.LittleEndian.Uint32(buf[19:23])
	return h, nil
}

// decodeHeaderAs is decodeHeader for a buffer that must hold a want frame.
func decodeHeaderAs(buf []byte, want MsgType) (Header, error) {
	h, err := decodeHeader(buf)
	if err == nil && h.Type != want {
		err = fmt.Errorf("%w: type %v, want %v", ErrBadMessage, h.Type, want)
	}
	return h, err
}

// Single-hop frames (Join, Update, the control frames and the transfer
// frames) have no TTL or hops of their own: they cross one link and are never
// relayed. Their encoders stamp TTL 1 and hops 0 through encodeOneHop, and
// their decoders accept nothing else, so every frame they accept re-encodes
// to its input.

// encodeOneHop returns a t frame with room for payload bytes and its
// single-hop header written.
func encodeOneHop(id GUID, t MsgType, payload int) []byte {
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: id, Type: t, TTL: 1, PayloadLen: uint32(payload)}
	h.encode(buf)
	return buf
}

// decodeOneHop is decodeHeaderAs for a single-hop frame: any TTL but 1 or
// hops but 0 is not a frame encodeOneHop made.
func decodeOneHop(buf []byte, want MsgType) (Header, error) {
	h, err := decodeHeaderAs(buf, want)
	if err == nil && (h.TTL != 1 || h.Hops != 0) {
		err = fmt.Errorf("%w: %v ttl %d hops %d, want 1 and 0", ErrBadMessage, want, h.TTL, h.Hops)
	}
	return h, err
}

// decodeFixed is decodeOneHop for a frame whose payload is always payload
// bytes long.
func decodeFixed(buf []byte, want MsgType, payload int) (Header, error) {
	h, err := decodeOneHop(buf, want)
	if err == nil && (int(h.PayloadLen) != payload || len(buf) != DescriptorHeaderLen+payload) {
		err = fmt.Errorf("%w: %v payload %d, want %d", ErrBadMessage, want, h.PayloadLen, payload)
	}
	return h, err
}

// headerOnly is the body of a frame that is its descriptor header alone,
// with no payload. Ping, Pong and Busy have its fields and share its codec.
type headerOnly struct {
	ID   GUID
	TTL  uint8
	Hops uint8
}

func (b *headerOnly) encode(t MsgType) []byte {
	buf := make([]byte, DescriptorHeaderLen)
	h := Header{ID: b.ID, Type: t, TTL: b.TTL, Hops: b.Hops}
	h.encode(buf)
	return buf
}

// decodeHeaderOnly parses a want frame, which must carry no payload; name
// is the frame's in errors.
func decodeHeaderOnly[M Ping | Pong | Busy](buf []byte, want MsgType, name string) (*M, error) {
	h, err := decodeHeaderAs(buf, want)
	if err != nil {
		return nil, err
	}
	if h.PayloadLen != 0 || len(buf) != DescriptorHeaderLen {
		return nil, fmt.Errorf("%w: %s payload %d, want 0", ErrBadMessage, name, h.PayloadLen)
	}
	m := M(headerOnly{ID: h.ID, TTL: h.TTL, Hops: h.Hops})
	return &m, nil
}

// Ping is the Gnutella 0.4 keep-alive probe, reused by the live super-peer
// stack as the heartbeat that detects dead peers and partitioned links. The
// payload is empty: the descriptor header alone carries the GUID.
type Ping struct {
	ID   GUID
	TTL  uint8
	Hops uint8
}

// Encode serializes the ping (descriptor header only, no payload).
func (p *Ping) Encode() []byte { return (*headerOnly)(p).encode(TypePing) }

// WireSize returns the on-the-wire size including framing: PingLen.
func (p *Ping) WireSize() int { return PingSize() }

// Type returns TypePing.
func (p *Ping) Type() MsgType { return TypePing }

func (p *Ping) frame() ([]byte, error) { return p.Encode(), nil }

// DecodePing parses an encoded ping.
func DecodePing(buf []byte) (*Ping, error) { return decodeHeaderOnly[Ping](buf, TypePing, "ping") }

// Pong answers a Ping, echoing its GUID. Like the heartbeat Ping it carries
// no payload: liveness, not peer discovery, is the information.
type Pong struct {
	ID   GUID
	TTL  uint8
	Hops uint8
}

// Encode serializes the pong (descriptor header only, no payload).
func (p *Pong) Encode() []byte { return (*headerOnly)(p).encode(TypePong) }

// WireSize returns the on-the-wire size including framing: PingLen.
func (p *Pong) WireSize() int { return PingSize() }

// Type returns TypePong.
func (p *Pong) Type() MsgType { return TypePong }

func (p *Pong) frame() ([]byte, error) { return p.Encode(), nil }

// DecodePong parses an encoded pong.
func DecodePong(buf []byte) (*Pong, error) { return decodeHeaderOnly[Pong](buf, TypePong, "pong") }

// Busy is the explicit load-shed signal of the overload-protected super-peer
// stack: a node that cannot accept a Query (dispatch queue full, per-link
// inflight cap hit, or client rate limit exceeded) answers Busy echoing the
// query's GUID instead of silently dropping it, and intermediate super-peers
// relay it along the reverse path so the originator can count degraded
// coverage. Like the heartbeat frames it is outside the paper's cost model;
// the payload is empty.
type Busy struct {
	ID   GUID
	TTL  uint8
	Hops uint8
}

// Encode serializes the busy signal (descriptor header only, no payload).
func (b *Busy) Encode() []byte { return (*headerOnly)(b).encode(TypeBusy) }

// WireSize returns the on-the-wire size including framing: PingLen.
func (b *Busy) WireSize() int { return PingSize() }

// Type returns TypeBusy.
func (b *Busy) Type() MsgType { return TypeBusy }

func (b *Busy) frame() ([]byte, error) { return b.Encode(), nil }

// DecodeBusy parses an encoded busy signal.
func DecodeBusy(buf []byte) (*Busy, error) { return decodeHeaderOnly[Busy](buf, TypeBusy, "busy") }

// Query is a keyword search request flooded over the super-peer overlay.
type Query struct {
	ID       GUID
	TTL      uint8
	Hops     uint8
	MinSpeed uint16
	Text     string
}

// Encode serializes the query (descriptor header + payload, no framing).
func (q *Query) Encode() []byte {
	payload := 2 + len(q.Text) + 1
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: q.ID, Type: TypeQuery, TTL: q.TTL, Hops: q.Hops, PayloadLen: uint32(payload)}
	h.encode(buf)
	binary.LittleEndian.PutUint16(buf[23:25], q.MinSpeed)
	copy(buf[25:], q.Text)
	buf[len(buf)-1] = 0 // NUL terminator
	return buf
}

// WireSize returns the on-the-wire size including framing; it equals
// QuerySize(len(Text)).
func (q *Query) WireSize() int { return QuerySize(len(q.Text)) }

// Type returns TypeQuery.
func (q *Query) Type() MsgType { return TypeQuery }

func (q *Query) frame() ([]byte, error) { return q.Encode(), nil }

// DecodeQuery parses an encoded query.
func DecodeQuery(buf []byte) (*Query, error) {
	h, err := decodeHeaderAs(buf, TypeQuery)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < 3 {
		return nil, fmt.Errorf("%w: payload length %d vs buffer %d", ErrBadMessage, h.PayloadLen, len(buf)-DescriptorHeaderLen)
	}
	if buf[len(buf)-1] != 0 {
		return nil, fmt.Errorf("%w: query text not NUL-terminated", ErrBadMessage)
	}
	return &Query{
		ID:       h.ID,
		TTL:      h.TTL,
		Hops:     h.Hops,
		MinSpeed: binary.LittleEndian.Uint16(buf[23:25]),
		Text:     string(buf[25 : len(buf)-1]),
	}, nil
}

// titleFieldLen is the fixed-width title field in result and metadata
// records. Records are fixed-size at the measured Gnutella averages
// (Table 3) so that encoded sizes equal the cost model's size formulas.
const titleFieldLen = 66

// ResultRecord describes one matching file in a QueryHit: exactly
// ResultRecordLen (76) bytes on the wire.
type ResultRecord struct {
	FileIndex uint32
	FileSize  uint32
	AddrRef   uint16 // index into the QueryHit's Responders
	Title     string // truncated/padded to titleFieldLen bytes
}

// ResponderRecord names a client whose collection produced results: exactly
// ResponderRecordLen (28) bytes on the wire.
type ResponderRecord struct {
	IP          [4]byte
	Port        uint16
	Speed       uint32
	ClientGUID  GUID
	ResultCount uint16
}

// QueryHit is the Response message: one per responding super-peer, carrying
// the results and the address of each client whose collection produced a
// result (Section 3.2).
type QueryHit struct {
	ID         GUID
	TTL        uint8
	Hops       uint8
	Responders []ResponderRecord
	Results    []ResultRecord
}

// Encode serializes the query hit (descriptor header + payload, no framing).
func (r *QueryHit) Encode() ([]byte, error) {
	if len(r.Responders) > 255 {
		return nil, fmt.Errorf("%w: %d responders, max 255", ErrBadMessage, len(r.Responders))
	}
	payload := 1 + ResponderRecordLen*len(r.Responders) + ResultRecordLen*len(r.Results)
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: r.ID, Type: TypeQueryHit, TTL: r.TTL, Hops: r.Hops, PayloadLen: uint32(payload)}
	h.encode(buf)
	buf[23] = byte(len(r.Responders))
	off := 24
	for _, a := range r.Responders {
		copy(buf[off:off+4], a.IP[:])
		binary.LittleEndian.PutUint16(buf[off+4:off+6], a.Port)
		binary.LittleEndian.PutUint32(buf[off+6:off+10], a.Speed)
		copy(buf[off+10:off+26], a.ClientGUID[:])
		binary.LittleEndian.PutUint16(buf[off+26:off+28], a.ResultCount)
		off += ResponderRecordLen
	}
	for _, res := range r.Results {
		binary.LittleEndian.PutUint32(buf[off:off+4], res.FileIndex)
		binary.LittleEndian.PutUint32(buf[off+4:off+8], res.FileSize)
		binary.LittleEndian.PutUint16(buf[off+8:off+10], res.AddrRef)
		copy(buf[off+10:off+10+titleFieldLen], res.Title)
		off += ResultRecordLen
	}
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// ResponseSize(len(Responders), len(Results)).
func (r *QueryHit) WireSize() int { return ResponseSize(len(r.Responders), len(r.Results)) }

// Type returns TypeQueryHit.
func (r *QueryHit) Type() MsgType { return TypeQueryHit }

func (r *QueryHit) frame() ([]byte, error) { return r.Encode() }

// DecodeQueryHit parses an encoded query hit.
func DecodeQueryHit(buf []byte) (*QueryHit, error) {
	h, err := decodeHeaderAs(buf, TypeQueryHit)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < 1 {
		return nil, fmt.Errorf("%w: payload length %d vs buffer %d", ErrBadMessage, h.PayloadLen, len(buf)-DescriptorHeaderLen)
	}
	numAddrs := int(buf[23])
	rest := int(h.PayloadLen) - 1 - ResponderRecordLen*numAddrs
	if rest < 0 || rest%ResultRecordLen != 0 {
		return nil, fmt.Errorf("%w: %d responders do not fit payload %d", ErrBadMessage, numAddrs, h.PayloadLen)
	}
	numResults := rest / ResultRecordLen
	qh := &QueryHit{
		ID:         h.ID,
		TTL:        h.TTL,
		Hops:       h.Hops,
		Responders: make([]ResponderRecord, numAddrs),
		Results:    make([]ResultRecord, numResults),
	}
	off := 24
	for i := range qh.Responders {
		a := &qh.Responders[i]
		copy(a.IP[:], buf[off:off+4])
		a.Port = binary.LittleEndian.Uint16(buf[off+4 : off+6])
		a.Speed = binary.LittleEndian.Uint32(buf[off+6 : off+10])
		copy(a.ClientGUID[:], buf[off+10:off+26])
		a.ResultCount = binary.LittleEndian.Uint16(buf[off+26 : off+28])
		off += ResponderRecordLen
	}
	for i := range qh.Results {
		res := &qh.Results[i]
		res.FileIndex = binary.LittleEndian.Uint32(buf[off : off+4])
		res.FileSize = binary.LittleEndian.Uint32(buf[off+4 : off+8])
		res.AddrRef = binary.LittleEndian.Uint16(buf[off+8 : off+10])
		res.Title = trimNUL(buf[off+10 : off+10+titleFieldLen])
		off += ResultRecordLen
	}
	return qh, nil
}

// MetadataRecord is the per-file metadata a client ships to its super-peer
// at join time: exactly MetadataRecordLen (72) bytes on the wire.
type MetadataRecord struct {
	FileIndex uint32
	FileSize  uint32
	Title     string // truncated/padded to 64 bytes
}

const metadataTitleLen = MetadataRecordLen - 8

// Join is the message a client sends each (partner) super-peer when it
// connects, carrying metadata for its whole collection.
type Join struct {
	ID    GUID
	Files []MetadataRecord
}

// Encode serializes the join (descriptor header + payload, no framing).
func (j *Join) Encode() []byte {
	buf := encodeOneHop(j.ID, TypeJoin, 1+MetadataRecordLen*len(j.Files))
	buf[23] = 0 // flags, reserved
	off := 24
	for _, f := range j.Files {
		binary.LittleEndian.PutUint32(buf[off:off+4], f.FileIndex)
		binary.LittleEndian.PutUint32(buf[off+4:off+8], f.FileSize)
		copy(buf[off+8:off+8+metadataTitleLen], f.Title)
		off += MetadataRecordLen
	}
	return buf
}

// WireSize returns the on-the-wire size including framing; it equals
// JoinSize(len(Files)).
func (j *Join) WireSize() int { return JoinSize(len(j.Files)) }

// Type returns TypeJoin.
func (j *Join) Type() MsgType { return TypeJoin }

func (j *Join) frame() ([]byte, error) { return j.Encode(), nil }

// DecodeJoin parses an encoded join.
func DecodeJoin(buf []byte) (*Join, error) {
	h, err := decodeOneHop(buf, TypeJoin)
	if err != nil {
		return nil, err
	}
	rest := int(h.PayloadLen) - 1
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || rest < 0 || rest%MetadataRecordLen != 0 {
		return nil, fmt.Errorf("%w: join payload %d", ErrBadMessage, h.PayloadLen)
	}
	j := &Join{ID: h.ID, Files: make([]MetadataRecord, rest/MetadataRecordLen)}
	off := 24
	for i := range j.Files {
		f := &j.Files[i]
		f.FileIndex = binary.LittleEndian.Uint32(buf[off : off+4])
		f.FileSize = binary.LittleEndian.Uint32(buf[off+4 : off+8])
		f.Title = trimNUL(buf[off+8 : off+8+metadataTitleLen])
		off += MetadataRecordLen
	}
	return j, nil
}

// UpdateOp distinguishes the kinds of collection changes a client reports.
type UpdateOp byte

// Update operations.
const (
	OpInsert UpdateOp = 1
	OpDelete UpdateOp = 2
	OpModify UpdateOp = 3
)

// Update is a single-item collection change sent from a client to its
// (partner) super-peer(s): exactly UpdateLen (152) bytes on the wire.
type Update struct {
	ID   GUID
	Op   UpdateOp
	File MetadataRecord
}

// updatePayload is an Update's fixed payload length: op byte plus one record.
const updatePayload = 1 + MetadataRecordLen

// Encode serializes the update (descriptor header + payload, no framing).
func (u *Update) Encode() []byte {
	buf := encodeOneHop(u.ID, TypeUpdate, updatePayload)
	buf[23] = byte(u.Op)
	binary.LittleEndian.PutUint32(buf[24:28], u.File.FileIndex)
	binary.LittleEndian.PutUint32(buf[28:32], u.File.FileSize)
	copy(buf[32:32+metadataTitleLen], u.File.Title)
	return buf
}

// WireSize returns the on-the-wire size including framing: UpdateLen.
func (u *Update) WireSize() int { return UpdateSize() }

// Type returns TypeUpdate.
func (u *Update) Type() MsgType { return TypeUpdate }

func (u *Update) frame() ([]byte, error) { return u.Encode(), nil }

// DecodeUpdate parses an encoded update.
func DecodeUpdate(buf []byte) (*Update, error) {
	h, err := decodeFixed(buf, TypeUpdate, updatePayload)
	if err != nil {
		return nil, err
	}
	u := &Update{ID: h.ID, Op: UpdateOp(buf[23])}
	if u.Op < OpInsert || u.Op > OpModify {
		return nil, fmt.Errorf("%w: update op %d", ErrBadMessage, u.Op)
	}
	u.File.FileIndex = binary.LittleEndian.Uint32(buf[24:28])
	u.File.FileSize = binary.LittleEndian.Uint32(buf[28:32])
	u.File.Title = trimNUL(buf[32 : 32+metadataTitleLen])
	return u, nil
}

// Summary advertises a super-peer's routing-index digest for one overlay
// edge: the set of terms reachable through the sender (its own index merged
// with its other neighbors' summaries, split-horizon). Receivers feed it to
// the routingindex strategy, which forwards a query over an edge only if the
// edge's summary covers every query term. Payload: 2-byte term count, then
// each term as a 1-byte length prefix followed by its bytes.
type Summary struct {
	ID    GUID
	TTL   uint8
	Hops  uint8
	Terms []string
}

// Encode serializes the summary (descriptor header + payload, no framing).
// Terms longer than 255 bytes or counts above 65535 are rejected.
func (s *Summary) Encode() ([]byte, error) {
	if len(s.Terms) > 65535 {
		return nil, fmt.Errorf("%w: %d summary terms, max 65535", ErrBadMessage, len(s.Terms))
	}
	payload := 2
	for _, t := range s.Terms {
		if len(t) > 255 {
			return nil, fmt.Errorf("%w: summary term %d bytes, max 255", ErrBadMessage, len(t))
		}
		payload += 1 + len(t)
	}
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: s.ID, Type: TypeSummary, TTL: s.TTL, Hops: s.Hops, PayloadLen: uint32(payload)}
	h.encode(buf)
	binary.LittleEndian.PutUint16(buf[23:25], uint16(len(s.Terms)))
	off := 25
	for _, t := range s.Terms {
		buf[off] = byte(len(t))
		copy(buf[off+1:], t)
		off += 1 + len(t)
	}
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// SummarySize(#terms, total term bytes).
func (s *Summary) WireSize() int {
	bytes := 0
	for _, t := range s.Terms {
		bytes += len(t)
	}
	return SummarySize(len(s.Terms), bytes)
}

// Type returns TypeSummary.
func (s *Summary) Type() MsgType { return TypeSummary }

func (s *Summary) frame() ([]byte, error) { return s.Encode() }

// DecodeSummary parses an encoded summary.
func DecodeSummary(buf []byte) (*Summary, error) {
	h, err := decodeHeaderAs(buf, TypeSummary)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < 2 {
		return nil, fmt.Errorf("%w: summary payload %d", ErrBadMessage, h.PayloadLen)
	}
	n := int(binary.LittleEndian.Uint16(buf[23:25]))
	s := &Summary{ID: h.ID, TTL: h.TTL, Hops: h.Hops}
	if n > 0 {
		s.Terms = make([]string, 0, n)
	}
	off := 25
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return nil, fmt.Errorf("%w: summary truncated at term %d/%d", ErrBadMessage, i, n)
		}
		l := int(buf[off])
		off++
		if off+l > len(buf) {
			return nil, fmt.Errorf("%w: summary term %d overruns payload", ErrBadMessage, i)
		}
		s.Terms = append(s.Terms, string(buf[off:off+l]))
		off += l
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing summary bytes", ErrBadMessage, len(buf)-off)
	}
	return s, nil
}

// trimNUL interprets a fixed-width field as a NUL-padded string.
func trimNUL(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
