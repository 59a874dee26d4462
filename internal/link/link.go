// Package link owns every connection a node's listener serves, from the
// hello to the last frame. A node serves clients, peers, fleet controllers and
// downloaders on one port; the first line a dialer sends names its plane, and
// the acceptor answers OK or BUSY. This package declares those lines once,
// bounds how many bytes either side may spend on them, holds the one
// transport (Net) and the one redial Backoff that p2p, control and transfer
// share, and hands each side one Conn whose Send and Recv are the planes'
// only frame I/O and whose Recv keeps the link alive. Sleep and Every are the
// planes' waits.
package link

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/stats"
)

// Hello lines: a dialer sends one of the first four, the acceptor answers
// with OK or Busy.
const (
	Client   = "SPNET/1.0 CLIENT"
	Peer     = "SPNET/1.0 PEER"
	Control  = "SPNET/1.0 CONTROL"
	Transfer = "SPNET/1.0 TRANSFER"
	OK       = "SPNET/1.0 OK"
	Busy     = "SPNET/1.0 BUSY"
)

// maxLine bounds a hello or reply line, newline included: a few times the
// longest line, so a peer that never sends '\n' costs the reader maxLine
// bytes and not whatever it manages to send before the setup deadline.
const maxLine = 64

var (
	// ErrBusy is a BUSY reply: the role is full, so callers redial on Backoff.
	ErrBusy = errors.New("link: busy")
	// ErrIdle is Recv's error when its deadline passes before a frame
	// starts. The Conn is intact and its deadline cleared; every other Recv
	// error means the Conn must be retired.
	ErrIdle = errors.New("link: no frame before the deadline")
	// errLineTooLong reports a hello or reply line longer than maxLine.
	errLineTooLong = errors.New("link: hello line too long")
)

// Net is the transport every listener and dialer of the live stack goes
// through, and the one seam fault injection (faults.Controller.Net) and
// metering hook into. Either func left nil is TCP, so the zero Net is the
// real network.
type Net struct {
	// ListenFunc binds addr in place of a TCP listener.
	ListenFunc func(addr string) (net.Listener, error)
	// DialFunc connects to addr within timeout in place of a TCP dial.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
}

// Listen binds addr on n.
func (n Net) Listen(addr string) (net.Listener, error) {
	if n.ListenFunc == nil {
		return net.Listen("tcp", addr)
	}
	return n.ListenFunc(addr)
}

// Dial connects to addr on n within timeout.
func (n Net) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if n.DialFunc == nil {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return n.DialFunc(addr, timeout)
}

// Metered returns n with every connection it accepts or dials counting its
// socket bytes, the hello exchange included, into nm's ConnBytes. A nil nm
// returns n unchanged.
func (n Net) Metered(nm *metrics.NodeMetrics) Net {
	if nm == nil {
		return n
	}
	meter := func(c net.Conn) net.Conn {
		return metrics.NewMeteredConn(c, nm.ConnBytes[metrics.DirIn], nm.ConnBytes[metrics.DirOut])
	}
	return Net{
		ListenFunc: func(addr string) (net.Listener, error) {
			ln, err := n.Listen(addr)
			if err != nil {
				return nil, err
			}
			return meteredListener{ln, meter}, nil
		},
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := n.Dial(addr, timeout)
			if err != nil {
				return nil, err
			}
			return meter(c), nil
		},
	}
}

// meteredListener meters every connection it accepts.
type meteredListener struct {
	net.Listener
	meter func(net.Conn) net.Conn
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.meter(c), nil
}

// Framing is what a plane sets once for every Conn it makes.
type Framing struct {
	// Bound is how long a frame may take to finish arriving once its first
	// byte is in, for a Recv with no deadline of its own (0: unbounded).
	Bound time.Duration
	// MaxPayload caps a frame's payload (0: gnutella.MaxPayloadLen).
	MaxPayload uint32
	// Meter, when set, is charged every frame sent and received.
	Meter func(metrics.Dir, gnutella.Message)
}

// LoadMeter is a Framing.Meter charging every frame to nm's Table 2 load
// meter; nil for a nil nm.
func LoadMeter(nm *metrics.NodeMetrics) func(metrics.Dir, gnutella.Message) {
	if nm == nil {
		return nil
	}
	return func(d metrics.Dir, m gnutella.Message) { gnutella.Meter(nm.Load, d, m) }
}

// pongWithin bounds the Pong that answers a Ping on a Conn without a frame
// bound.
const pongWithin = 30 * time.Second

// Conn is one set-up connection of any plane. It is a net.Conn whose reads
// go through the reader that read the hello or reply, so bytes that arrived
// right behind it are never lost. Send and Recv are the only frame I/O, the
// only deadlines, the only metering and the only keepalive a plane needs
// after setup.
type Conn struct {
	net.Conn
	br  *bufio.Reader
	wmu sync.Mutex
	f   Framing
	// last is the unix-nano time the latest frame started arriving, or the
	// Conn was made.
	last atomic.Int64
}

func newConn(c net.Conn, f Framing) *Conn {
	lc := &Conn{Conn: c, br: bufio.NewReader(c), f: f}
	lc.last.Store(time.Now().UnixNano())
	return lc
}

// LastFrame reports when the latest frame, liveness frames included, started
// arriving; before the first, when the Conn was made.
func (c *Conn) LastFrame() time.Time { return time.Unix(0, c.last.Load()) }

// Read reads through the handshake reader.
func (c *Conn) Read(p []byte) (int, error) { return c.br.Read(p) }

// Send writes one frame within the given time, serialized against the
// Conn's other senders. Each Send sets its own write deadline, so a stale
// one never outlives the next. The frame is metered before it is written, so
// a reader that holds it can rely on the sender's out meter already counting
// it; a frame whose write fails is counted as sent, and since the Conn is
// then retired that is at most one frame per dead link.
func (c *Conn) Send(m gnutella.Message, within time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.Conn.SetWriteDeadline(time.Now().Add(within)); err != nil {
		return err
	}
	if c.f.Meter != nil {
		c.f.Meter(metrics.DirOut, m)
	}
	return gnutella.WriteMessage(c.Conn, m)
}

// Recv reads, meters and decodes the next frame. With a zero deadline the
// wait for the frame's first byte is unbounded, and once it is in the rest
// must arrive within Framing.Bound. With a non-zero deadline the whole read
// must finish by it, and a deadline that passes before the frame starts
// returns ErrIdle. Every return leaves the socket with no read deadline, or
// is an error other than ErrIdle, after which the Conn must be retired: a
// frame cut off part way leaves the stream out of step.
//
// Liveness frames never reach the caller. Recv stamps LastFrame as every
// frame starts, answers a Ping with a Pong within Framing.Bound (pongWithin
// when unset), absorbs a Pong, and reads on under the same deadline.
func (c *Conn) Recv(deadline time.Time) (gnutella.Message, error) {
	for {
		m, err := c.recv(deadline, gnutella.ReadMessageLimit)
		if err != nil {
			return nil, err
		}
		var id gnutella.GUID
		if p, ok := m.(*gnutella.Ping); ok {
			id = p.ID
		}
		if live, err := c.absorb(m.Type(), id); err != nil || !live {
			return m, err
		}
	}
}

// RecvFrame is Recv for a reader that routes frames by their header: it
// reads the next frame into f, which the caller's goroutine owns, checks it
// as its decoder would, meters it and leaves it undecoded. f holds the frame
// until the next RecvFrame into it. Deadlines, liveness frames and errors are
// Recv's.
func (c *Conn) RecvFrame(deadline time.Time, f *gnutella.Frame) error {
	for {
		_, err := c.recv(deadline, func(r io.Reader, max uint32) (gnutella.Message, error) {
			return f, gnutella.ReadFrame(r, max, f)
		})
		if err != nil {
			return err
		}
		if live, err := c.absorb(f.Type(), f.Header().ID); err != nil || !live {
			return err
		}
	}
}

// absorb reports whether a frame of type t is a liveness frame, which the
// caller never sees, and answers a Ping, whose GUID is id, with a Pong.
func (c *Conn) absorb(t gnutella.MsgType, id gnutella.GUID) (bool, error) {
	switch t {
	case gnutella.TypePing:
		within := pongWithin
		if c.f.Bound > 0 {
			within = c.f.Bound
		}
		return true, c.Send(&gnutella.Pong{ID: id, TTL: 1}, within)
	case gnutella.TypePong:
		return true, nil
	}
	return false, nil
}

// recv is Recv and RecvFrame for one frame of any type, which read reads
// from the Conn under the Framing's payload bound.
func (c *Conn) recv(deadline time.Time, read func(io.Reader, uint32) (gnutella.Message, error)) (gnutella.Message, error) {
	if !deadline.IsZero() {
		if err := c.Conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
	}
	if _, err := c.br.Peek(1); err != nil {
		var ne net.Error
		if deadline.IsZero() || !errors.As(err, &ne) || !ne.Timeout() {
			return nil, err
		}
		// No byte of a frame was taken: the Conn is whole once the deadline
		// is gone.
		if err := c.Conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
		return nil, ErrIdle
	}
	now := time.Now()
	c.last.Store(now.UnixNano())
	if deadline.IsZero() && c.f.Bound > 0 {
		deadline = now.Add(c.f.Bound)
		if err := c.Conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
	}
	m, err := read(c.br, c.f.MaxPayload)
	if err == nil && !deadline.IsZero() {
		err = c.Conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		return nil, err
	}
	if c.f.Meter != nil {
		c.f.Meter(metrics.DirIn, m)
	}
	return m, nil
}

// Open dials addr on n, sends hello and reads the acceptor's reply. timeout
// bounds the dial and, separately, the exchange. On success the Conn's
// deadlines are clear and its frames follow f. A BUSY reply returns an error
// wrapping ErrBusy.
func (n Net) Open(addr, hello string, timeout time.Duration, f Framing) (*Conn, error) {
	c, err := n.Dial(addr, timeout)
	if err == nil {
		var lc *Conn
		if lc, err = exchange(c, hello, timeout, f); err == nil {
			return lc, nil
		}
		c.Close()
	}
	return nil, fmt.Errorf("link: %s: %w", addr, err)
}

func exchange(c net.Conn, hello string, timeout time.Duration, f Framing) (*Conn, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c, hello+"\n"); err != nil {
		return nil, err
	}
	lc := newConn(c, f)
	reply, err := readLine(lc.br)
	if err != nil {
		return nil, err
	}
	switch reply {
	case OK:
	case Busy:
		return nil, ErrBusy
	default:
		return nil, fmt.Errorf("link: unexpected reply %q to %q", reply, hello)
	}
	return lc, c.SetDeadline(time.Time{})
}

// ReadHello is the acceptor's side of Open: it reads the dialer's hello
// within timeout and returns the Conn, whose frames follow f. The deadline
// stays set so the Reply that follows is bounded by the same setup timeout;
// Reply clears it.
func ReadHello(c net.Conn, timeout time.Duration, f Framing) (string, *Conn, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return "", nil, err
	}
	lc := newConn(c, f)
	hello, err := readLine(lc.br)
	if err != nil {
		return "", nil, err
	}
	return hello, lc, nil
}

// Reply answers a hello — OK when the plane admitted the connection, BUSY
// when it is at capacity — and clears ReadHello's setup deadline.
func (c *Conn) Reply(admitted bool) error {
	line := Busy
	if admitted {
		line = OK
	}
	if _, err := io.WriteString(c.Conn, line+"\n"); err != nil {
		return err
	}
	return c.Conn.SetDeadline(time.Time{})
}

// readLine reads one '\n'-terminated line of at most maxLine bytes and
// returns it trimmed. It reads no byte past the newline out of br.
func readLine(br *bufio.Reader) (string, error) {
	var buf [maxLine]byte
	for n := 0; n < maxLine; n++ {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return strings.TrimSpace(string(buf[:n])), nil
		}
		buf[n] = b
	}
	return "", errLineTooLong
}

// jitter is Backoff's ± spread around each doubling step.
const jitter = 0.2

// Backoff is the one redial schedule. Attempt 0 is immediate; attempt n ≥ 1
// waits Initial·2^(n-1), spread by ±20 % seeded jitter, and the result is
// capped at Max after the jitter, so Max bounds every wait and not only the
// pre-jitter base.
type Backoff struct {
	// Initial is the wait before attempt 1.
	Initial time.Duration
	// Max caps every wait.
	Max time.Duration
}

// Or fills b's unset (non-positive) fields from def: each plane keeps its
// own default pace.
func (b Backoff) Or(def Backoff) Backoff {
	if b.Initial <= 0 {
		b.Initial = def.Initial
	}
	if b.Max <= 0 {
		b.Max = def.Max
	}
	return b
}

// Delay returns the wait before attempt (0-based). It draws from rng only
// for attempt ≥ 1, so a fixed seed replays a fixed sequence.
func (b Backoff) Delay(attempt int, rng *stats.RNG) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := float64(b.Initial)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	d *= 1 + jitter*(2*rng.Float64()-1)
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	return time.Duration(d)
}

// Sleep waits d or until stop closes, whichever is first, and reports
// whether d elapsed. Its timer is stopped either way, so nothing is left
// waiting to fire. It is every one-shot wait of p2p, control and transfer.
func Sleep(d time.Duration, stop <-chan struct{}) (elapsed bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// Every calls fn with the tick's time every d until stop closes, and returns
// then. It is every periodic loop of p2p and control.
func Every(stop <-chan struct{}, d time.Duration, fn func(now time.Time)) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			fn(now)
		}
	}
}
