// Package faults is a deterministic, seed-driven fault injector for the live
// super-peer stack. A Controller hands out net.Conn wrappers that can drop,
// delay, truncate or reset traffic according to per-node rules, and can
// partition whole nodes (blackholing their links) — the failure vocabulary
// the paper's Section 3.2 reliability argument is about, made concrete so
// tests and the live network harness can kill a super-peer mid-search and
// watch k-redundant failover happen.
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
	// Delay stalls a write before letting it through.
	Delay
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
	case Delay:
		return "delay"
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
// are checked in order drop, delay, truncate, reset; at most one fault fires
// per write.
type Rule struct {
	// DropProb is the probability a write is silently discarded.
	DropProb float64
	// DelayProb is the probability a write is stalled by DelayFor.
	DelayProb float64
	// DelayFor is how long a delayed write stalls.
	DelayFor time.Duration
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
	mu       sync.Mutex
	rng      *stats.RNG
	rules    map[string]Rule
	isolated map[string]bool
	cut      map[[2]string]bool
	conns    map[string]map[*Conn]struct{}
	counts   [numKinds]int
}

// NewController returns a fault controller whose decisions derive from seed.
func NewController(seed uint64) *Controller {
	return &Controller{
		rng:      stats.NewRNG(seed),
		rules:    make(map[string]Rule),
		isolated: make(map[string]bool),
		cut:      make(map[[2]string]bool),
		conns:    make(map[string]map[*Conn]struct{}),
	}
}

// Wrap registers c as a link of node `local` (remote names the far endpoint
// when known, "" otherwise) and returns the fault-injecting wrapper.
func (f *Controller) Wrap(local, remote string, c net.Conn) *Conn {
	fc := &Conn{Conn: c, ctrl: f, local: local, remote: remote}
	f.mu.Lock()
	set := f.conns[local]
	if set == nil {
		set = make(map[*Conn]struct{})
		f.conns[local] = set
	}
	set[fc] = struct{}{}
	f.mu.Unlock()
	return fc
}

// WrapAccept returns a wrapper suitable for a node's accept path, where the
// remote identity is unknown.
func (f *Controller) WrapAccept(local string) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return f.Wrap(local, "", c) }
}

// Dialer returns a dial function for node `local` whose connections are
// wrapped with the dialed address as the remote label.
func (f *Controller) Dialer(local string) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		f.mu.Lock()
		blocked := f.isolated[local] || f.isolated[addr] || f.cut[pairKey(local, addr)]
		f.mu.Unlock()
		if blocked {
			f.count(Partition)
			return nil, &timeoutError{fmt.Sprintf("faults: %s is partitioned from %s", local, addr)}
		}
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return f.Wrap(local, addr, c), nil
	}
}

// SetRule installs (or replaces) node's probabilistic fault rule.
func (f *Controller) SetRule(node string, r Rule) {
	f.mu.Lock()
	f.rules[node] = r
	f.mu.Unlock()
}

// Isolate partitions a node from everything: writes on its links are
// silently dropped and reads stall, exactly as if every packet to and from
// it were lost. Dials to or from it fail.
func (f *Controller) Isolate(node string) {
	f.mu.Lock()
	f.isolated[node] = true
	f.mu.Unlock()
}

// Restore heals an isolated node.
func (f *Controller) Restore(node string) {
	f.mu.Lock()
	delete(f.isolated, node)
	f.mu.Unlock()
}

// Partition cuts traffic between two named endpoints in both directions.
// Only links whose remote endpoint is known (dialed links) are affected;
// use Isolate for accept-side blackholing.
func (f *Controller) Partition(a, b string) {
	f.mu.Lock()
	f.cut[pairKey(a, b)] = true
	f.mu.Unlock()
}

// Heal removes a pairwise partition.
func (f *Controller) Heal(a, b string) {
	f.mu.Lock()
	delete(f.cut, pairKey(a, b))
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

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// writeAction decides, deterministically given the call sequence, what to do
// with one write at a node. The RNG is consumed only when a rule with
// non-zero probabilities is installed, so fault-free nodes do not perturb
// the stream.
type action int

const (
	actPass action = iota
	actDrop
	actDelay
	actTruncate
	actCorrupt
	actReset
	actPartition
)

// writeFault is one write's decided fate: the action plus its parameters
// (delay length for actDelay; flip position and XOR mask for actCorrupt).
type writeFault struct {
	act   action
	delay time.Duration
	pos   int
	mask  byte
}

func (f *Controller) writeAction(local, remote string, n int) writeFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.isolated[local] || (remote != "" && (f.isolated[remote] || f.cut[pairKey(local, remote)])) {
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
	if r.DelayProb > 0 && f.rng.Float64() < r.DelayProb {
		f.counts[Delay]++
		return writeFault{act: actDelay, delay: r.DelayFor}
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

func (f *Controller) blackholed(node string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.isolated[node]
}

func (f *Controller) unregister(node string, c *Conn) {
	f.mu.Lock()
	delete(f.conns[node], c)
	f.mu.Unlock()
}

// Conn is a fault-injecting net.Conn wrapper. Reads stall while the local
// node is partitioned (honoring read deadlines); writes consult the
// controller and may be dropped, delayed, truncated or turned into a
// connection reset.
type Conn struct {
	net.Conn
	ctrl   *Controller
	local  string
	remote string

	dmu          sync.Mutex
	readDeadline time.Time
	closed       bool
}

// errReset reports a connection killed by fault injection.
var errReset = fmt.Errorf("faults: connection reset by injector")

// timeoutError is a net.Error with Timeout() == true, returned when a read
// deadline expires while the node is partitioned.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// Write applies the node's fault policy to one message write.
func (c *Conn) Write(p []byte) (int, error) {
	w := c.ctrl.writeAction(c.local, c.remote, len(p))
	switch w.act {
	case actDrop, actPartition:
		// The caller sees success; the bytes vanish.
		return len(p), nil
	case actDelay:
		time.Sleep(w.delay)
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

// Read delivers data unless the local node is partitioned, in which case it
// stalls — like packets lost in the network — until the partition heals, the
// read deadline expires, or the connection is closed.
func (c *Conn) Read(p []byte) (int, error) {
	for c.ctrl.blackholed(c.local) {
		c.dmu.Lock()
		dl, closed := c.readDeadline, c.closed
		c.dmu.Unlock()
		if closed {
			return 0, net.ErrClosed
		}
		if !dl.IsZero() && time.Now().After(dl) {
			return 0, &timeoutError{"faults: read timeout while partitioned"}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c.Conn.Read(p)
}

// SetReadDeadline tracks the deadline so partitioned reads can honor it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dmu.Lock()
	c.readDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline tracks the read half like SetReadDeadline.
func (c *Conn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.readDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Close unregisters the wrapper and closes the underlying connection.
func (c *Conn) Close() error {
	c.dmu.Lock()
	already := c.closed
	c.closed = true
	c.dmu.Unlock()
	if !already {
		c.ctrl.unregister(c.local, c)
	}
	return c.Conn.Close()
}
