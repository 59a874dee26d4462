package gnutella

import (
	"encoding/binary"
	"fmt"
)

// Control-plane payload descriptors. These frames carry the fleet control
// plane of Section 5.3 made operational: nodes announce themselves with
// Register, the controller pushes versioned Directives, and nodes confirm
// with DirectiveAck. Like heartbeats and summaries they are outside the
// paper's Table 2 cost model (metered as ClassOther).
const (
	TypeRegister     MsgType = 0x14
	TypeDirective    MsgType = 0x15
	TypeDirectiveAck MsgType = 0x16
)

// Register flags.
const (
	// RegisterHello announces a live node (sent when a control link opens).
	RegisterHello uint8 = 0
	// RegisterBye deregisters gracefully (sent on node shutdown, so the
	// controller distinguishes a drain from a crash).
	RegisterBye uint8 = 1
)

// controlStringMax bounds each length-prefixed string field (1-byte prefix).
const controlStringMax = 255

// Register is the node → controller announcement: the node's identity, its
// addresses, and the highest directive epoch it has applied — the state the
// controller rebuilds its database from after its own restart. Payload:
// 1-byte flags, 8-byte little-endian epoch, then NodeID, Addr and Telemetry
// each as a 1-byte length prefix followed by its bytes.
type Register struct {
	ID    GUID
	Flags uint8
	// Epoch is the highest directive epoch the node has applied; the
	// controller adopts the fleet-wide maximum so epochs stay monotonic
	// across controller restarts.
	Epoch uint64
	// NodeID is the node's stable operator-assigned label.
	NodeID string
	// Addr is the node's p2p listen address.
	Addr string
	// Telemetry is the node's metrics HTTP address ("" when not serving).
	Telemetry string
}

// registerPayload is the fixed part of a Register payload.
const registerPayload = 1 + 8

// Encode serializes the register (descriptor header + payload, no framing).
// String fields longer than 255 bytes are rejected.
func (rg *Register) Encode() ([]byte, error) {
	for _, s := range []string{rg.NodeID, rg.Addr, rg.Telemetry} {
		if len(s) > controlStringMax {
			return nil, fmt.Errorf("%w: register field %d bytes, max %d", ErrBadMessage, len(s), controlStringMax)
		}
	}
	payload := registerPayload + 3 + len(rg.NodeID) + len(rg.Addr) + len(rg.Telemetry)
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: rg.ID, Type: TypeRegister, TTL: 1, PayloadLen: uint32(payload)}
	h.encode(buf)
	buf[23] = rg.Flags
	binary.LittleEndian.PutUint64(buf[24:32], rg.Epoch)
	off := 32
	for _, s := range []string{rg.NodeID, rg.Addr, rg.Telemetry} {
		buf[off] = byte(len(s))
		copy(buf[off+1:], s)
		off += 1 + len(s)
	}
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// RegisterSize(total string bytes).
func (rg *Register) WireSize() int {
	return RegisterSize(len(rg.NodeID) + len(rg.Addr) + len(rg.Telemetry))
}

// Type returns TypeRegister.
func (rg *Register) Type() MsgType { return TypeRegister }

func (rg *Register) frame() ([]byte, error) { return rg.Encode() }

// DecodeRegister parses an encoded register.
func DecodeRegister(buf []byte) (*Register, error) {
	h, err := decodeHeaderAs(buf, TypeRegister)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < registerPayload+3 {
		return nil, fmt.Errorf("%w: register payload %d", ErrBadMessage, h.PayloadLen)
	}
	rg := &Register{ID: h.ID, Flags: buf[23]}
	if rg.Flags > RegisterBye {
		return nil, fmt.Errorf("%w: register flags 0x%02x", ErrBadMessage, rg.Flags)
	}
	rg.Epoch = binary.LittleEndian.Uint64(buf[24:32])
	off := 32
	for _, dst := range []*string{&rg.NodeID, &rg.Addr, &rg.Telemetry} {
		if off >= len(buf) {
			return nil, fmt.Errorf("%w: register truncated at offset %d", ErrBadMessage, off)
		}
		l := int(buf[off])
		off++
		if off+l > len(buf) {
			return nil, fmt.Errorf("%w: register field overruns payload", ErrBadMessage)
		}
		*dst = string(buf[off : off+l])
		off += l
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing register bytes", ErrBadMessage, len(buf)-off)
	}
	return rg, nil
}

// DirectiveAction identifies which Section 5.3 local decision a Directive
// carries.
type DirectiveAction uint8

// Directive actions.
const (
	// ActionPromotePartner tells a surviving partner to take over a dead
	// partner's cluster: raise its client capacity to MaxClients and,
	// when Target is set, peer with that super-peer address (rule I's
	// partner-promotion overload/failure response).
	ActionPromotePartner DirectiveAction = 1
	// ActionSplitCluster sheds load by capping the cluster at MaxClients
	// (rule I, overload response).
	ActionSplitCluster DirectiveAction = 2
	// ActionCoalesce absorbs another cluster's clients by raising capacity
	// to MaxClients (rule I, underload response).
	ActionCoalesce DirectiveAction = 3
	// ActionSetTTL changes the TTL the node stamps on queries (rule III /
	// TTL decay under bandwidth pressure).
	ActionSetTTL DirectiveAction = 4
)

func (a DirectiveAction) String() string {
	switch a {
	case ActionPromotePartner:
		return "promote-partner"
	case ActionSplitCluster:
		return "split-cluster"
	case ActionCoalesce:
		return "coalesce"
	case ActionSetTTL:
		return "set-ttl"
	}
	return fmt.Sprintf("DirectiveAction(%d)", uint8(a))
}

// Directive is a controller → node control message: one versioned Section 5.3
// decision. Epochs make directives idempotent — a node applies a directive
// only if its epoch exceeds the highest epoch it has applied, so replays and
// stale retries are rejected harmlessly. Payload: 8-byte little-endian epoch,
// 1-byte action, 1-byte TTL, 2-byte little-endian MaxClients, then Target as
// a 1-byte length prefix followed by its bytes.
type Directive struct {
	ID     GUID
	Epoch  uint64
	Action DirectiveAction
	// TTL is the new query TTL for ActionSetTTL (ignored otherwise).
	TTL uint8
	// MaxClients is the new client capacity for the capacity-changing
	// actions (0 = leave unchanged).
	MaxClients uint16
	// Target is a super-peer address the node should peer with (used by
	// ActionPromotePartner; "" = none).
	Target string
}

// directivePayload is the fixed part of a Directive payload.
const directivePayload = 8 + 1 + 1 + 2

// Encode serializes the directive (descriptor header + payload, no framing).
func (d *Directive) Encode() ([]byte, error) {
	if len(d.Target) > controlStringMax {
		return nil, fmt.Errorf("%w: directive target %d bytes, max %d", ErrBadMessage, len(d.Target), controlStringMax)
	}
	payload := directivePayload + 1 + len(d.Target)
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: d.ID, Type: TypeDirective, TTL: 1, PayloadLen: uint32(payload)}
	h.encode(buf)
	binary.LittleEndian.PutUint64(buf[23:31], d.Epoch)
	buf[31] = byte(d.Action)
	buf[32] = d.TTL
	binary.LittleEndian.PutUint16(buf[33:35], d.MaxClients)
	buf[35] = byte(len(d.Target))
	copy(buf[36:], d.Target)
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// DirectiveSize(len(Target)).
func (d *Directive) WireSize() int { return DirectiveSize(len(d.Target)) }

// Type returns TypeDirective.
func (d *Directive) Type() MsgType { return TypeDirective }

func (d *Directive) frame() ([]byte, error) { return d.Encode() }

// DecodeDirective parses an encoded directive.
func DecodeDirective(buf []byte) (*Directive, error) {
	h, err := decodeHeaderAs(buf, TypeDirective)
	if err != nil {
		return nil, err
	}
	if h.TTL != 1 || h.Hops != 0 {
		// Directives travel one controller link, never relayed; Encode
		// stamps TTL 1, hops 0, and anything else is not a frame it made.
		return nil, fmt.Errorf("%w: directive ttl %d hops %d, want 1 and 0", ErrBadMessage, h.TTL, h.Hops)
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < directivePayload+1 {
		return nil, fmt.Errorf("%w: directive payload %d", ErrBadMessage, h.PayloadLen)
	}
	d := &Directive{
		ID:         h.ID,
		Epoch:      binary.LittleEndian.Uint64(buf[23:31]),
		Action:     DirectiveAction(buf[31]),
		TTL:        buf[32],
		MaxClients: binary.LittleEndian.Uint16(buf[33:35]),
	}
	if d.Action < ActionPromotePartner || d.Action > ActionSetTTL {
		return nil, fmt.Errorf("%w: directive action %d", ErrBadMessage, d.Action)
	}
	tlen := int(buf[35])
	if 36+tlen != len(buf) {
		return nil, fmt.Errorf("%w: directive target length %d vs %d remaining", ErrBadMessage, tlen, len(buf)-36)
	}
	d.Target = string(buf[36 : 36+tlen])
	return d, nil
}

// DirectiveAck is the node → controller receipt for one Directive: it echoes
// the directive's epoch and reports whether the node applied it (Applied=1)
// or rejected it as stale (Applied=0 — the node had already applied an equal
// or newer epoch, so the directive was an idempotent no-op). Payload: 8-byte
// little-endian epoch, 1-byte applied flag, then NodeID as a 1-byte length
// prefix followed by its bytes.
type DirectiveAck struct {
	ID      GUID
	Epoch   uint64
	Applied uint8 // 1 = applied, 0 = stale (already superseded)
	NodeID  string
}

// ackPayload is the fixed part of a DirectiveAck payload.
const ackPayload = 8 + 1

// Encode serializes the ack (descriptor header + payload, no framing).
func (a *DirectiveAck) Encode() ([]byte, error) {
	if len(a.NodeID) > controlStringMax {
		return nil, fmt.Errorf("%w: ack node id %d bytes, max %d", ErrBadMessage, len(a.NodeID), controlStringMax)
	}
	payload := ackPayload + 1 + len(a.NodeID)
	buf := make([]byte, DescriptorHeaderLen+payload)
	h := Header{ID: a.ID, Type: TypeDirectiveAck, TTL: 1, PayloadLen: uint32(payload)}
	h.encode(buf)
	binary.LittleEndian.PutUint64(buf[23:31], a.Epoch)
	buf[31] = a.Applied
	buf[32] = byte(len(a.NodeID))
	copy(buf[33:], a.NodeID)
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// DirectiveAckSize(len(NodeID)).
func (a *DirectiveAck) WireSize() int { return DirectiveAckSize(len(a.NodeID)) }

// Type returns TypeDirectiveAck.
func (a *DirectiveAck) Type() MsgType { return TypeDirectiveAck }

func (a *DirectiveAck) frame() ([]byte, error) { return a.Encode() }

// DecodeDirectiveAck parses an encoded directive ack.
func DecodeDirectiveAck(buf []byte) (*DirectiveAck, error) {
	h, err := decodeHeaderAs(buf, TypeDirectiveAck)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < ackPayload+1 {
		return nil, fmt.Errorf("%w: ack payload %d", ErrBadMessage, h.PayloadLen)
	}
	a := &DirectiveAck{
		ID:      h.ID,
		Epoch:   binary.LittleEndian.Uint64(buf[23:31]),
		Applied: buf[31],
	}
	if a.Applied > 1 {
		return nil, fmt.Errorf("%w: ack applied flag %d", ErrBadMessage, a.Applied)
	}
	nlen := int(buf[32])
	if 33+nlen != len(buf) {
		return nil, fmt.Errorf("%w: ack node id length %d vs %d remaining", ErrBadMessage, nlen, len(buf)-33)
	}
	a.NodeID = string(buf[33 : 33+nlen])
	return a, nil
}
