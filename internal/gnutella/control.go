package gnutella

import (
	"encoding/binary"
	"fmt"
)

// Control-plane payload descriptors. These frames carry the fleet control
// plane of Section 5.3 made operational: the controller sends versioned
// Directives and Polls; the node sends a Register, carrying its epoch and
// load, when the link opens and in answer to each. Like heartbeats and
// summaries they are outside the paper's Table 2 cost model (metered as
// ClassOther). All three are fixed-size and travel one controller link,
// never relayed. 0x16 is unassigned.
const (
	TypeRegister  MsgType = 0x14
	TypeDirective MsgType = 0x15
	TypePoll      MsgType = 0x1A
)

// Register flags.
const (
	// RegisterHello announces a live node (sent when a control link opens).
	RegisterHello uint8 = 0
	// RegisterBye deregisters gracefully (sent on node shutdown, so the
	// controller distinguishes a drain from a crash).
	RegisterBye uint8 = 1
)

// Register is the node → controller report, the only frame a node sends on
// its control link: the highest directive epoch the node has applied — the
// state the controller rebuilds its database from after its own restart —
// and the node's load. The controller already knows which node a link
// reaches, because it dialed it. Payload: 1-byte flags, then little-endian
// 8-byte epoch, 8-byte In, 8-byte Out and 2-byte Clients.
type Register struct {
	ID    GUID
	Flags uint8
	// Epoch is the highest directive epoch the node has applied; the
	// controller adopts the fleet-wide maximum so epochs stay monotonic
	// across controller restarts.
	Epoch uint64
	// In and Out are the node's metered wire bytes over every load class
	// since it started, this frame's own excluded.
	In, Out uint64
	// Clients is the node's client count.
	Clients uint16
}

// registerPayload is a Register's fixed payload length.
const registerPayload = 1 + 8 + 8 + 8 + 2

// Encode serializes the register (descriptor header + payload, no framing).
func (rg *Register) Encode() ([]byte, error) { return rg.appendFrame(nil) }

func (rg *Register) appendFrame(dst []byte) ([]byte, error) {
	dst, buf := appendOneHop(dst, rg.ID, TypeRegister, registerPayload)
	buf[23] = rg.Flags
	binary.LittleEndian.PutUint64(buf[24:32], rg.Epoch)
	binary.LittleEndian.PutUint64(buf[32:40], rg.In)
	binary.LittleEndian.PutUint64(buf[40:48], rg.Out)
	binary.LittleEndian.PutUint16(buf[48:50], rg.Clients)
	return dst, nil
}

// WireSize returns the on-the-wire size including framing: RegisterSize().
func (rg *Register) WireSize() int { return RegisterSize() }

// Type returns TypeRegister.
func (rg *Register) Type() MsgType { return TypeRegister }

// checkRegister checks a Register frame: its fixed size and known flags.
func checkRegister(h Header, buf []byte) error {
	if err := checkFixed(h, buf, registerPayload); err != nil {
		return err
	}
	if buf[23] > RegisterBye {
		return fmt.Errorf("%w: register flags 0x%02x", ErrBadMessage, buf[23])
	}
	return nil
}

// DecodeRegister parses an encoded register.
func DecodeRegister(buf []byte) (*Register, error) {
	h, err := decodeChecked(buf, TypeRegister, checkRegister)
	if err != nil {
		return nil, err
	}
	return &Register{
		ID:      h.ID,
		Flags:   buf[23],
		Epoch:   binary.LittleEndian.Uint64(buf[24:32]),
		In:      binary.LittleEndian.Uint64(buf[32:40]),
		Out:     binary.LittleEndian.Uint64(buf[40:48]),
		Clients: binary.LittleEndian.Uint16(buf[48:50]),
	}, nil
}

// DirectiveAction identifies which Section 5.3 local decision a Directive
// carries. The node applies every action the same way (see Directive); the
// action names the rule that fired.
type DirectiveAction uint8

// Directive actions.
const (
	// ActionPromotePartner tells a surviving partner to take over a dead
	// partner's cluster by raising its client capacity to MaxClients (rule
	// I's partner-promotion failure response).
	ActionPromotePartner DirectiveAction = 1
	// ActionSplitCluster sheds load by capping the cluster at MaxClients
	// (rule I, overload response).
	ActionSplitCluster DirectiveAction = 2
	// ActionCoalesce absorbs another cluster's clients by raising capacity
	// to MaxClients (rule I, underload response).
	ActionCoalesce DirectiveAction = 3
)

func (a DirectiveAction) String() string {
	switch a {
	case ActionPromotePartner:
		return "promote-partner"
	case ActionSplitCluster:
		return "split-cluster"
	case ActionCoalesce:
		return "coalesce"
	}
	return fmt.Sprintf("DirectiveAction(%d)", uint8(a))
}

// Directive is a controller → node control message: one versioned Section 5.3
// decision. Epochs make directives idempotent — a node applies a directive
// only if its epoch exceeds the highest epoch it has applied, so replays and
// stale retries are rejected harmlessly. Payload: 8-byte little-endian epoch,
// 1-byte action, 1-byte TTL, 2-byte little-endian MaxClients.
type Directive struct {
	ID     GUID
	Epoch  uint64
	Action DirectiveAction
	// TTL is the new query TTL, for every action (0 = leave unchanged).
	TTL uint8
	// MaxClients is the new client capacity, for every action (0 = leave
	// unchanged).
	MaxClients uint16
}

// directivePayload is a Directive's fixed payload length.
const directivePayload = 8 + 1 + 1 + 2

// Encode serializes the directive (descriptor header + payload, no framing).
func (d *Directive) Encode() ([]byte, error) { return d.appendFrame(nil) }

func (d *Directive) appendFrame(dst []byte) ([]byte, error) {
	dst, buf := appendOneHop(dst, d.ID, TypeDirective, directivePayload)
	binary.LittleEndian.PutUint64(buf[23:31], d.Epoch)
	buf[31] = byte(d.Action)
	buf[32] = d.TTL
	binary.LittleEndian.PutUint16(buf[33:35], d.MaxClients)
	return dst, nil
}

// WireSize returns the on-the-wire size including framing: DirectiveSize().
func (d *Directive) WireSize() int { return DirectiveSize() }

// Type returns TypeDirective.
func (d *Directive) Type() MsgType { return TypeDirective }

// checkDirective checks a Directive frame: its fixed size and a known
// action.
func checkDirective(h Header, buf []byte) error {
	if err := checkFixed(h, buf, directivePayload); err != nil {
		return err
	}
	if a := DirectiveAction(buf[31]); a < ActionPromotePartner || a > ActionCoalesce {
		return fmt.Errorf("%w: directive action %d", ErrBadMessage, a)
	}
	return nil
}

// DecodeDirective parses an encoded directive.
func DecodeDirective(buf []byte) (*Directive, error) {
	h, err := decodeChecked(buf, TypeDirective, checkDirective)
	if err != nil {
		return nil, err
	}
	return &Directive{
		ID:         h.ID,
		Epoch:      binary.LittleEndian.Uint64(buf[23:31]),
		Action:     DirectiveAction(buf[31]),
		TTL:        buf[32],
		MaxClients: binary.LittleEndian.Uint16(buf[33:35]),
	}, nil
}

// Poll is the controller → node request for a fresh Register, sent once per
// decision tick. It has no payload.
type Poll struct {
	ID GUID
}

// Encode serializes the poll (descriptor header only, no framing).
func (p *Poll) Encode() ([]byte, error) { return p.appendFrame(nil) }

// WireSize returns the on-the-wire size including framing: PollSize().
func (p *Poll) WireSize() int { return PollSize() }

// Type returns TypePoll.
func (p *Poll) Type() MsgType { return TypePoll }

func (p *Poll) appendFrame(dst []byte) ([]byte, error) {
	dst, _ = appendOneHop(dst, p.ID, TypePoll, 0)
	return dst, nil
}

// checkPoll checks a Poll frame: a single-hop header alone.
func checkPoll(h Header, buf []byte) error { return checkFixed(h, buf, 0) }

// DecodePoll parses an encoded poll.
func DecodePoll(buf []byte) (*Poll, error) {
	h, err := decodeChecked(buf, TypePoll, checkPoll)
	if err != nil {
		return nil, err
	}
	return &Poll{ID: h.ID}, nil
}
