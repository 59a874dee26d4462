// Package faults injects the two failures the paper's Section 3.2
// reliability argument is about into the live super-peer stack: a node that
// crashes (ResetNode kills all its connections) and a node that is cut off
// (Isolate blackholes its links until Restore). A Controller wraps each named
// node's link.Net, so tests and the live network harness can kill a
// super-peer mid-search and watch k-redundant failover happen.
package faults

import (
	"fmt"
	"net"
	"sync"
	"time"

	"spnet/internal/link"
)

// Controller owns the partition and crash state of a set of named nodes.
type Controller struct {
	mu sync.Mutex
	// isolated maps an isolated node to the channel Restore closes.
	isolated map[string]chan struct{}
	conns    map[string]map[*Conn]struct{}
}

// NewController returns a fault controller. The seed is unused: partition
// and crash draw nothing at random.
func NewController(seed uint64) *Controller {
	return &Controller{
		isolated: make(map[string]chan struct{}),
		conns:    make(map[string]map[*Conn]struct{}),
	}
}

// wrap registers c as a link of node `local` and returns the fault-injecting
// wrapper.
func (f *Controller) wrap(local string, c net.Conn) *Conn {
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
	return func(c net.Conn) net.Conn { return f.wrap(local, c) }
}

// Net returns base as node `local` sees it: every connection its listeners
// accept and every dial it makes is wrapped, and dials fail while the node
// is isolated.
func (f *Controller) Net(local string, base link.Net) link.Net {
	return link.Net{
		ListenFunc: func(addr string) (net.Listener, error) {
			ln, err := base.Listen(addr)
			if err != nil {
				return nil, err
			}
			return listener{ln, f.WrapAccept(local)}, nil
		},
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			f.mu.Lock()
			isolated := f.isolated[local] != nil
			f.mu.Unlock()
			if isolated {
				return nil, &timeoutError{fmt.Sprintf("faults: %s is partitioned from %s", local, addr)}
			}
			c, err := base.Dial(addr, timeout)
			if err != nil {
				return nil, err
			}
			return f.wrap(local, c), nil
		},
	}
}

// listener wraps every connection it accepts; Addr is the base listener's,
// so a node relistening on its pinned address keeps it.
type listener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
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
	defer f.mu.Unlock()
	heal := f.isolated[node]
	if heal == nil {
		return
	}
	close(heal)
	delete(f.isolated, node)
	for c := range f.conns[node] {
		c.mu.Lock()
		c.wakeLocked()
		c.mu.Unlock()
	}
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
}

func (f *Controller) unregister(node string, c *Conn) {
	f.mu.Lock()
	delete(f.conns[node], c)
	f.mu.Unlock()
}

// Conn is a fault-injecting net.Conn wrapper. While the local node is
// isolated its writes vanish and its reads stall, until the node is
// restored, the Conn is closed or the read deadline passes.
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
	// wake, made by a stalled Read, is closed when readDeadline changes,
	// the node is restored or the Conn closes, so the Read looks again.
	wake chan struct{}
}

// past is a read deadline long gone: setting it ends a pending read.
var past = time.Unix(1, 0)

// timeoutError is a net.Error with Timeout() == true, returned when a read
// deadline expires while the node is partitioned.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// Write delivers p unless the local node is isolated; then the caller sees
// success and the bytes vanish.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	heal := c.heal
	c.mu.Unlock()
	if heal != nil {
		select {
		case <-heal:
		default:
			return len(p), nil
		}
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
		if n > 0 || err == nil || !c.cut() {
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

// cut reports whether the socket's read deadline is held in the past: the
// node was isolated and no Read has seen the heal yet.
func (c *Conn) cut() bool {
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
		if dl.IsZero() {
			<-wake
		} else if link.Sleep(time.Until(dl), wake) {
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
