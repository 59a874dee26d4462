// Package faults is a deterministic, seed-driven fault injector for the live
// super-peer stack. A Controller wraps each named node's transport so that
// its connections can drop, truncate, corrupt or reset traffic according to
// per-node rules, and can isolate whole nodes (blackholing their links) — the
// failure vocabulary the paper's Section 3.2 reliability argument is about,
// made concrete so tests and the live network harness can kill a super-peer
// mid-search and watch k-redundant failover happen.
//
// All probabilistic decisions flow through one splittable PRNG seeded at
// construction, so a fixed seed and a fixed sequence of operations yield the
// same injected faults on every run. The same package also defines the
// failure-schedule types shared between the discrete-event simulator
// (internal/sim, virtual time) and the live harness (internal/network, wall
// time), so the two layers can replay identical failure histories.
package faults

import (
	"fmt"
	"net"
	"sync"
	"time"

	"spnet/internal/stats"
)

// Kind classifies one injected fault, for accounting.
type Kind int

// Fault kinds.
const (
	// Drop silently discards a message write.
	Drop Kind = iota
	// Truncate writes a prefix of the message and then kills the
	// connection, corrupting the stream mid-message.
	Truncate
	// Reset kills the connection outright, as a remote RST would.
	Reset
	// Partition discards traffic because an endpoint is partitioned.
	Partition
	// Corrupt flips one byte of a message write, letting the damaged frame
	// through to exercise the receiver's decoder hardening.
	Corrupt
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	case Reset:
		return "reset"
	case Partition:
		return "partition"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule is a per-node probabilistic fault policy, evaluated independently on
// every message write through the node's wrapped connections. Probabilities
// are checked in order drop, truncate, corrupt, reset; at most one fault
// fires per write.
type Rule struct {
	// DropProb is the probability a write is silently discarded.
	DropProb float64
	// TruncateProb is the probability a write is cut short mid-message and
	// the connection killed.
	TruncateProb float64
	// CorruptProb is the probability one byte of the write is flipped before
	// delivery, leaving the connection up.
	CorruptProb float64
	// ResetProb is the probability the connection is killed before the
	// write.
	ResetProb float64
}

// Controller owns the fault state for a set of named nodes and the
// deterministic RNG behind every probabilistic decision.
type Controller struct {
	mu    sync.Mutex
	rng   *stats.RNG
	rules map[string]Rule
	// isolated maps an isolated node to the channel Restore closes.
	isolated map[string]chan struct{}
	conns    map[string]map[*Conn]struct{}
	counts   [numKinds]int
}

// NewController returns a fault controller whose decisions derive from seed.
func NewController(seed uint64) *Controller {
	return &Controller{
		rng:      stats.NewRNG(seed),
		rules:    make(map[string]Rule),
		isolated: make(map[string]chan struct{}),
		conns:    make(map[string]map[*Conn]struct{}),
	}
}

// Wrap registers c as a link of node `local` and returns the
// fault-injecting wrapper.
func (f *Controller) Wrap(local string, c net.Conn) *Conn {
	fc := &Conn{Conn: c, ctrl: f, local: local}
	f.mu.Lock()
	fc.heal = f.isolated[local]
	set := f.conns[local]
	if set == nil {
		set = make(map[*Conn]struct{})
		f.conns[local] = set
	}
	set[fc] = struct{}{}
	f.mu.Unlock()
	return fc
}

// WrapAccept returns a wrapper suitable for a node's accept path.
func (f *Controller) WrapAccept(local string) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return f.Wrap(local, c) }
}

// Transport is a network to listen and dial on; link.Net is one, and so is
// what Net returns.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// Net returns base as node `local` sees it: every connection its listeners
// accept and every dial it makes is wrapped, and dials fail while the node
// is isolated.
func (f *Controller) Net(local string, base Transport) Transport {
	return nodeNet{f, local, base}
}

type nodeNet struct {
	f     *Controller
	local string
	base  Transport
}

func (n nodeNet) Listen(addr string) (net.Listener, error) {
	ln, err := n.base.Listen(addr)
	if err != nil {
		return nil, err
	}
	return listener{ln, n}, nil
}

func (n nodeNet) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	n.f.mu.Lock()
	isolated := n.f.isolated[n.local] != nil
	if isolated {
		n.f.counts[Partition]++
	}
	n.f.mu.Unlock()
	if isolated {
		return nil, &timeoutError{fmt.Sprintf("faults: %s is partitioned from %s", n.local, addr)}
	}
	c, err := n.base.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return n.f.Wrap(n.local, c), nil
}

// listener wraps every connection it accepts; Addr is the base listener's,
// so a node relistening on its pinned address keeps it.
type listener struct {
	net.Listener
	n nodeNet
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.f.Wrap(l.n.local, c), nil
}

// SetRule installs (or replaces) node's probabilistic fault rule.
func (f *Controller) SetRule(node string, r Rule) {
	f.mu.Lock()
	f.rules[node] = r
	f.mu.Unlock()
}

// Isolate partitions a node from everything: writes on its links are
// silently dropped and reads stall — those already waiting included —
// exactly as if every packet to and from it were lost. Its dials fail.
func (f *Controller) Isolate(node string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	heal := f.isolated[node]
	if heal == nil {
		heal = make(chan struct{})
		f.isolated[node] = heal
	}
	for c := range f.conns[node] {
		c.isolate(heal)
	}
}

// Restore heals an isolated node; its stalled reads resume.
func (f *Controller) Restore(node string) {
	f.mu.Lock()
	if heal := f.isolated[node]; heal != nil {
		close(heal)
		delete(f.isolated, node)
	}
	f.mu.Unlock()
}

// ResetNode kills every registered connection of a node — the abrupt crash
// the paper's failure model assumes.
func (f *Controller) ResetNode(node string) {
	f.mu.Lock()
	var victims []*Conn
	for c := range f.conns[node] {
		victims = append(victims, c)
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	f.count(Reset)
}

// Counts reports how many faults of each kind have been injected.
func (f *Controller) Counts() map[Kind]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Kind]int, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if f.counts[k] > 0 {
			out[k] = f.counts[k]
		}
	}
	return out
}

func (f *Controller) count(k Kind) {
	f.mu.Lock()
	f.counts[k]++
	f.mu.Unlock()
}

// writeAction decides, deterministically given the call sequence, what to do
// with one write at a node. The RNG is consumed only when a rule with
// non-zero probabilities is installed, so fault-free nodes do not perturb
// the stream.
type action int

const (
	actPass action = iota
	actDrop
	actTruncate
	actCorrupt
	actReset
	actPartition
)

// writeFault is one write's decided fate: the action plus, for actCorrupt,
// the flip position and XOR mask.
type writeFault struct {
	act  action
	pos  int
	mask byte
}

func (f *Controller) writeAction(local string, n int) writeFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.isolated[local] != nil {
		f.counts[Partition]++
		return writeFault{act: actPartition}
	}
	r, ok := f.rules[local]
	if !ok {
		return writeFault{act: actPass}
	}
	if r.DropProb > 0 && f.rng.Float64() < r.DropProb {
		f.counts[Drop]++
		return writeFault{act: actDrop}
	}
	if r.TruncateProb > 0 && f.rng.Float64() < r.TruncateProb {
		f.counts[Truncate]++
		return writeFault{act: actTruncate}
	}
	if r.CorruptProb > 0 && n > 0 && f.rng.Float64() < r.CorruptProb {
		f.counts[Corrupt]++
		return writeFault{
			act:  actCorrupt,
			pos:  int(f.rng.Uint64() % uint64(n)),
			mask: byte(1 + f.rng.Uint64()%255), // non-zero: always a real flip
		}
	}
	if r.ResetProb > 0 && f.rng.Float64() < r.ResetProb {
		f.counts[Reset]++
		return writeFault{act: actReset}
	}
	return writeFault{act: actPass}
}

func (f *Controller) unregister(node string, c *Conn) {
	f.mu.Lock()
	delete(f.conns[node], c)
	f.mu.Unlock()
}

// Conn is a fault-injecting net.Conn wrapper. Reads stall while the local
// node is isolated, until it is restored, the Conn is closed or the read
// deadline passes; writes consult the controller and may be dropped,
// truncated, corrupted or turned into a connection reset.
type Conn struct {
	net.Conn
	ctrl  *Controller
	local string

	mu sync.Mutex
	// heal is the channel Restore closes, from the node's isolation until
	// the first Read after the heal; meanwhile the socket's read deadline
	// is in the past, so no read reaches it.
	heal         chan struct{}
	readDeadline time.Time // the caller's
	closed       bool
	// wake, made by a stalled Read, is closed when readDeadline changes or
	// the Conn closes, so the Read looks again.
	wake chan struct{}
}

// errReset reports a connection killed by fault injection.
var errReset = fmt.Errorf("faults: connection reset by injector")

// past is a read deadline long gone: setting it ends a pending read.
var past = time.Unix(1, 0)

// timeoutError is a net.Error with Timeout() == true, returned when a read
// deadline expires while the node is partitioned.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// Write applies the node's fault policy to one message write.
func (c *Conn) Write(p []byte) (int, error) {
	w := c.ctrl.writeAction(c.local, len(p))
	switch w.act {
	case actDrop, actPartition:
		// The caller sees success; the bytes vanish.
		return len(p), nil
	case actTruncate:
		n := len(p) / 2
		if n > 0 {
			c.Conn.Write(p[:n])
		}
		c.Close()
		return n, errReset
	case actCorrupt:
		damaged := make([]byte, len(p))
		copy(damaged, p)
		damaged[w.pos] ^= w.mask
		return c.Conn.Write(damaged)
	case actReset:
		c.Close()
		return 0, errReset
	}
	return c.Conn.Write(p)
}

// Read delivers data unless the local node is isolated, in which case it
// stalls — like packets lost in the network — until the node is restored,
// the read deadline passes, or the Conn is closed. Bytes that arrive in the
// meantime wait in the socket for the heal.
func (c *Conn) Read(p []byte) (int, error) {
	for {
		if err := c.stall(); err != nil {
			return 0, err
		}
		n, err := c.Conn.Read(p)
		if n > 0 || err == nil || !c.isolated() {
			return n, err
		}
		// Isolate ended this read: stall instead.
	}
}

// isolate cuts the Conn off until heal closes, ending a read already waiting
// on the socket.
func (c *Conn) isolate(heal chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heal = heal
	c.Conn.SetReadDeadline(past)
}

func (c *Conn) isolated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heal != nil
}

// stall returns at once unless the Conn is isolated. Then it waits for the
// heal, which puts the caller's read deadline back on the socket, and fails
// once the Conn closes or that deadline — moved meanwhile or not — passes.
func (c *Conn) stall() error {
	for {
		c.mu.Lock()
		select {
		case <-c.heal:
			c.heal = nil
			c.Conn.SetReadDeadline(c.readDeadline)
		default:
		}
		heal, dl, closed := c.heal, c.readDeadline, c.closed
		if heal != nil && c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake := c.wake
		c.mu.Unlock()
		switch {
		case heal == nil:
			return nil
		case closed:
			return net.ErrClosed
		}
		var expired <-chan time.Time // nil: no deadline
		if !dl.IsZero() {
			expired = time.After(time.Until(dl))
		}
		select {
		case <-heal:
		case <-wake:
		case <-expired:
			return &timeoutError{"faults: read timeout while partitioned"}
		}
	}
}

// wakeLocked wakes a stalled Read.
func (c *Conn) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// SetReadDeadline records the deadline, so a stalled Read honors it, and
// sets it on the socket unless isolation holds the socket's in the past.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	c.wakeLocked()
	if c.heal != nil {
		return nil
	}
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline sets both deadlines, the read one as SetReadDeadline does.
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.Conn.SetWriteDeadline(t)
}

// Close unregisters the wrapper, wakes a stalled Read and closes the
// underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.wakeLocked()
	c.mu.Unlock()
	if !already {
		c.ctrl.unregister(c.local, c)
	}
	return c.Conn.Close()
}
