// Package link owns connection setup for every plane that shares a node's
// listener. A node serves clients, peers, fleet controllers and downloaders on
// one port; the first line a dialer sends names its plane, and the acceptor
// answers OK or BUSY. This package declares those lines once, bounds how many
// bytes either side may spend on them, and holds the one Dialer and the one
// redial Backoff that p2p, control and transfer share.
package link

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

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
	// errLineTooLong reports a hello or reply line longer than maxLine.
	errLineTooLong = errors.New("link: hello line too long")
)

// Dialer opens a transport connection — net.DialTimeout's shape, and the one
// seam fault injection (faults.Controller.Dialer) and metering hook into. A
// nil Dialer dials the real network.
type Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dial calls d, or net.DialTimeout when d is nil.
func (d Dialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	if d == nil {
		return net.DialTimeout(network, addr, timeout)
	}
	return d(network, addr, timeout)
}

// Metered returns d with every connection it opens counting its socket
// bytes, the hello exchange included, into nm's ConnBytes. A nil nm returns
// d unchanged.
func (d Dialer) Metered(nm *metrics.NodeMetrics) Dialer {
	if nm == nil {
		return d
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := d.Dial(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return metrics.NewMeteredConn(c, nm.ConnBytes[metrics.DirIn], nm.ConnBytes[metrics.DirOut]), nil
	}
}

// Open dials addr over TCP, sends hello and reads the acceptor's reply.
// timeout bounds the dial and, separately, the exchange. On success the
// connection's deadlines are clear and the returned reader holds any bytes
// that arrived right behind the reply, so every later read must go through
// it. A BUSY reply returns an error wrapping ErrBusy.
func (d Dialer) Open(addr, hello string, timeout time.Duration) (net.Conn, *bufio.Reader, error) {
	c, err := d.Dial("tcp", addr, timeout)
	if err == nil {
		var br *bufio.Reader
		if br, err = exchange(c, hello, timeout); err == nil {
			return c, br, nil
		}
		c.Close()
	}
	return nil, nil, fmt.Errorf("link: %s: %w", addr, err)
}

func exchange(c net.Conn, hello string, timeout time.Duration) (*bufio.Reader, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c, hello+"\n"); err != nil {
		return nil, err
	}
	br := bufio.NewReader(c)
	reply, err := readLine(br)
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
	return br, c.SetDeadline(time.Time{})
}

// ReadHello is the acceptor's side of Open: it reads the dialer's hello
// within timeout. The deadline stays set so the Reply that follows is bounded
// by the same setup timeout; Reply clears it. The returned reader holds any
// bytes the dialer sent after its hello.
func ReadHello(c net.Conn, timeout time.Duration) (string, *bufio.Reader, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return "", nil, err
	}
	br := bufio.NewReader(c)
	hello, err := readLine(br)
	return hello, br, err
}

// Reply answers a hello — OK when the plane admitted the connection, BUSY
// when it is at capacity — and clears ReadHello's setup deadline.
func Reply(c net.Conn, admitted bool) error {
	line := Busy
	if admitted {
		line = OK
	}
	if _, err := io.WriteString(c, line+"\n"); err != nil {
		return err
	}
	return c.SetDeadline(time.Time{})
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
