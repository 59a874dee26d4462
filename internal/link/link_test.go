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
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/stats"
)

// pipeDialer returns a Dialer whose every connection is one end of a
// net.Pipe, with serve running the acceptor's script on the other end.
func pipeDialer(t *testing.T, serve func(net.Conn)) Dialer {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		t.Cleanup(func() { server.Close() })
		go serve(server)
		return client, nil
	}
}

// answer reads the dialer's hello, then writes reply verbatim.
func answer(reply string) func(net.Conn) {
	return func(c net.Conn) {
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			return
		}
		io.WriteString(c, reply)
	}
}

func TestOpen(t *testing.T) {
	dialErr := errors.New("no route")
	cases := []struct {
		name  string
		dial  Dialer
		check func(t *testing.T, c *Conn, err error)
	}{
		{"ok", pipeDialer(t, answer(OK+"\n")), func(t *testing.T, _ *Conn, err error) {
			if err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
		}},
		{"busy", pipeDialer(t, answer(Busy+"\n")), func(t *testing.T, _ *Conn, err error) {
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("err = %v, want ErrBusy", err)
			}
		}},
		{"garbage reply", pipeDialer(t, answer("HTTP/1.1 400 Bad Request\n")), func(t *testing.T, _ *Conn, err error) {
			if err == nil || errors.Is(err, ErrBusy) || !strings.Contains(err.Error(), "unexpected reply") {
				t.Fatalf("err = %v, want an unexpected-reply error", err)
			}
		}},
		{"silent server", pipeDialer(t, answer("")), func(t *testing.T, _ *Conn, err error) {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("err = %v, want a setup timeout", err)
			}
		}},
		{"dial error", func(string, string, time.Duration) (net.Conn, error) { return nil, dialErr },
			func(t *testing.T, _ *Conn, err error) {
				if !errors.Is(err, dialErr) {
					t.Fatalf("err = %v, want the dial error", err)
				}
			}},
		{"over-long line", pipeDialer(t, answer(strings.Repeat("x", 4*maxLine))), func(t *testing.T, _ *Conn, err error) {
			if !errors.Is(err, errLineTooLong) {
				t.Fatalf("err = %v, want errLineTooLong", err)
			}
		}},
		{"bytes after the reply", pipeDialer(t, answer(OK+"\nfirst frame")), func(t *testing.T, c *Conn, err error) {
			if err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			got := make([]byte, len("first frame"))
			if _, err := io.ReadFull(c, got); err != nil || string(got) != "first frame" {
				t.Fatalf("read after reply = %q, %v; want %q", got, err, "first frame")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			c, err := tc.dial.Open("node:1", Peer, 100*time.Millisecond, Framing{})
			if err == nil {
				defer c.Close()
			} else if c != nil {
				t.Errorf("failed Open returned conn %v", c)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("Open took %v with a 100ms setup timeout", el)
			}
			tc.check(t, c, err)
		})
	}
}

// TestReadHelloBounded: an acceptor reads at most maxLine bytes of a hello
// that never ends, instead of buffering until the setup deadline.
func TestReadHelloBounded(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go client.Write(make([]byte, 64<<10))
	start := time.Now()
	_, _, err := ReadHello(server, 10*time.Second, Framing{})
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("err = %v, want errLineTooLong", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("ReadHello took %v to reject an over-long hello", el)
	}
}

// TestReadHelloReply is the accept side of Open: the hello comes back
// trimmed, Reply answers it, and the dialer sees the answer.
func TestReadHelloReply(t *testing.T) {
	for _, admitted := range []bool{true, false} {
		d := pipeDialer(t, func(c net.Conn) {
			hello, lc, err := ReadHello(c, time.Second, Framing{})
			if err != nil || hello != Transfer {
				t.Errorf("ReadHello = %q, %v; want %q", hello, err, Transfer)
				return
			}
			lc.Reply(admitted)
		})
		c, err := d.Open("node:1", Transfer, time.Second, Framing{})
		if admitted && err != nil {
			t.Errorf("admitted: err = %v", err)
		}
		if !admitted && !errors.Is(err, ErrBusy) {
			t.Errorf("refused: err = %v, want ErrBusy", err)
		}
		if c != nil {
			c.Close()
		}
	}
}

// meter counts the frames a Framing.Meter is charged, by direction.
type meter [metrics.NumDirs]atomic.Int64

func (m *meter) observe(d metrics.Dir, _ gnutella.Message) { m[d].Add(1) }

// choppyConn writes one byte at a time, so two writers that are not
// serialized interleave their bytes on the wire.
type choppyConn struct{ net.Conn }

func (c choppyConn) Write(p []byte) (int, error) {
	for i := range p {
		if _, err := c.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// ends are two Conns joined by net.Pipe, each framed with the same bound and
// metering into its own counts.
type ends struct {
	a, b   *Conn
	am, bm meter
}

func newEnds(t *testing.T, bound time.Duration, choppy bool) *ends {
	pa, pb := net.Pipe()
	t.Cleanup(func() { pa.Close(); pb.Close() })
	var sa net.Conn = pa
	if choppy {
		sa = choppyConn{pa}
	}
	e := &ends{}
	e.a = newConn(sa, Framing{Bound: bound, Meter: e.am.observe})
	e.b = newConn(pb, Framing{Bound: bound, Meter: e.bm.observe})
	return e
}

type received struct {
	m   gnutella.Message
	err error
}

// waitsThenReceives checks that a zero-deadline Recv on b is still waiting
// after several frame bounds, and then that it takes the frame a sends.
func (e *ends) waitsThenReceives(t *testing.T, bound time.Duration) {
	t.Helper()
	got := make(chan received, 1)
	go func() {
		m, err := e.b.Recv(time.Time{})
		got <- received{m, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("idle Recv returned %v, %v before any frame was sent", r.m, r.err)
	case <-time.After(4 * bound):
	}
	if err := e.a.Send(&gnutella.Busy{ID: gnutella.GUID{2}, TTL: 1}, time.Second); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case r := <-got:
		if _, ok := r.m.(*gnutella.Busy); !ok || r.err != nil {
			t.Fatalf("Recv = %v, %v; want the Busy", r.m, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never returned the frame")
	}
}

// sendThenReceiveBusy has a send m and then a Busy, and checks that b's
// zero-deadline Recv returns the Busy.
func (e *ends) sendThenReceiveBusy(t *testing.T, m gnutella.Message) {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		err := e.a.Send(m, time.Second)
		if err == nil {
			err = e.a.Send(&gnutella.Busy{ID: gnutella.GUID{4}, TTL: 1}, time.Second)
		}
		sent <- err
	}()
	if got, err := e.b.Recv(time.Time{}); err != nil || got.Type() != gnutella.TypeBusy {
		t.Fatalf("b.Recv = %v, %v; want the Busy behind the %v", got, err, m.Type())
	}
	if err := <-sent; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// metered checks the frames each end's meter was charged, as {in, out}.
func (e *ends) metered(t *testing.T, a, b [2]int64) {
	t.Helper()
	for _, c := range []struct {
		end  string
		m    *meter
		want [2]int64
	}{{"a", &e.am, a}, {"b", &e.bm, b}} {
		if got := [2]int64{c.m[metrics.DirIn].Load(), c.m[metrics.DirOut].Load()}; got != c.want {
			t.Errorf("%s metered %d in and %d out, want %d and %d", c.end, got[0], got[1], c.want[0], c.want[1])
		}
	}
}

// TestConn is Conn's frame contract: metering once per frame and direction,
// a zero-deadline Recv that waits unbounded for a frame to start but not for
// one to finish, a deadline that expires between frames and leaves the Conn
// usable, Sends that never interleave, and keepalive: a Ping answered once,
// a Pong absorbed, each stamping LastFrame, under the Recv's own deadline.
func TestConn(t *testing.T) {
	const bound = 50 * time.Millisecond
	cases := []struct {
		name   string
		choppy bool // a's socket writes one byte at a time
		run    func(t *testing.T, e *ends)
	}{
		{"round trip meters each frame once", false, func(t *testing.T, e *ends) {
			// A pipe write returns after the read it feeds, so each Send
			// reports back before the meters are read.
			sent := make(chan error, 2)
			q := &gnutella.Query{ID: gnutella.GUID{1}, TTL: 3, Text: "needle"}
			go func() { sent <- e.a.Send(q, time.Second) }()
			m, err := e.b.Recv(time.Time{})
			if got, ok := m.(*gnutella.Query); !ok || err != nil || got.Text != q.Text {
				t.Fatalf("b.Recv = %v, %v; want the query", m, err)
			}
			go func() { sent <- e.b.Send(&gnutella.Busy{ID: q.ID, TTL: 1}, time.Second) }()
			if m, err := e.a.Recv(time.Now().Add(time.Second)); err != nil || m.Type() != gnutella.TypeBusy {
				t.Fatalf("a.Recv = %v, %v; want the busy", m, err)
			}
			for i := 0; i < 2; i++ {
				if err := <-sent; err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			e.metered(t, [2]int64{1, 1}, [2]int64{1, 1})
		}},
		{"idle Recv outlives the frame bound", false, func(t *testing.T, e *ends) {
			e.waitsThenReceives(t, bound)
		}},
		{"half-sent frame is cut off at the bound", false, func(t *testing.T, e *ends) {
			go e.a.Conn.Write(make([]byte, gnutella.DescriptorHeaderLen/2))
			start := time.Now()
			got := make(chan received, 1)
			go func() {
				m, err := e.b.Recv(time.Time{})
				got <- received{m, err}
			}()
			var r received
			select {
			case r = <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("a half-sent frame held Recv for 5s")
			}
			var ne net.Error
			if err := r.err; !errors.As(err, &ne) || !ne.Timeout() || errors.Is(err, ErrIdle) {
				t.Fatalf("err = %v, want a frame timeout", err)
			}
			if el := time.Since(start); el < bound || el > time.Second {
				t.Errorf("stalled frame cut off after %v, want about %v", el, bound)
			}
		}},
		{"a passed deadline is cleared", false, func(t *testing.T, e *ends) {
			if _, err := e.b.Recv(time.Now().Add(bound)); !errors.Is(err, ErrIdle) {
				t.Fatalf("err = %v, want ErrIdle", err)
			}
			e.waitsThenReceives(t, bound)
		}},
		{"a Ping is answered once", false, func(t *testing.T, e *ends) {
			// a's Recv takes b's Pong and then idles out; b's Recv returns
			// the Busy sent behind the Ping.
			pong := make(chan error, 1)
			go func() {
				_, err := e.a.Recv(time.Now().Add(4 * bound))
				pong <- err
			}()
			e.sendThenReceiveBusy(t, &gnutella.Ping{ID: gnutella.GUID{3}, TTL: 1})
			select {
			case err := <-pong:
				if !errors.Is(err, ErrIdle) {
					t.Fatalf("a.Recv = %v, want ErrIdle once the Pong is absorbed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a.Recv dropped its deadline once it had absorbed the Pong")
			}
			e.metered(t, [2]int64{1, 2}, [2]int64{2, 1})
		}},
		{"a Pong is absorbed", false, func(t *testing.T, e *ends) {
			e.sendThenReceiveBusy(t, &gnutella.Pong{ID: gnutella.GUID{3}, TTL: 1})
			e.metered(t, [2]int64{0, 2}, [2]int64{2, 0})
		}},
		{"an absorbed Pong stamps LastFrame and keeps the deadline", false, func(t *testing.T, e *ends) {
			made := e.b.LastFrame()
			time.Sleep(time.Millisecond)
			start := time.Now()
			go e.a.Send(&gnutella.Pong{ID: gnutella.GUID{3}, TTL: 1}, time.Second)
			got := make(chan error, 1)
			go func() {
				_, err := e.b.Recv(start.Add(bound))
				got <- err
			}()
			select {
			case err := <-got:
				if !errors.Is(err, ErrIdle) {
					t.Fatalf("err = %v, want ErrIdle", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv dropped its deadline once it had absorbed a Pong")
			}
			if el := time.Since(start); el < bound || el > time.Second {
				t.Errorf("Recv idled out after %v, want about %v", el, bound)
			}
			if last := e.b.LastFrame(); !last.After(made) {
				t.Errorf("LastFrame = %v after a Pong, want later than %v", last, made)
			}
			e.waitsThenReceives(t, bound)
		}},
		{"concurrent Sends never interleave", true, func(t *testing.T, e *ends) {
			const senders, each = 4, 25
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						text := fmt.Sprintf("sender %d frame %d %s", s, i, strings.Repeat("x", s*7))
						if err := e.a.Send(&gnutella.Query{ID: gnutella.GUID{byte(s)}, TTL: 1, Text: text}, 5*time.Second); err != nil {
							t.Errorf("Send: %v", err)
							return
						}
					}
				}()
			}
			next := make([]int, senders)
			for n := 0; n < senders*each; n++ {
				m, err := e.b.Recv(time.Now().Add(5 * time.Second))
				if err != nil {
					t.Fatalf("frame %d: %v", n, err)
				}
				q := m.(*gnutella.Query)
				s := int(q.ID[0])
				if want := fmt.Sprintf("sender %d frame %d %s", s, next[s], strings.Repeat("x", s*7)); q.Text != want {
					t.Fatalf("frame %d reads %q, want %q", n, q.Text, want)
				}
				next[s]++
			}
			wg.Wait()
			if out, in := e.am[metrics.DirOut].Load(), e.bm[metrics.DirIn].Load(); out != senders*each || in != senders*each {
				t.Errorf("metered %d out and %d in, want %d each", out, in, senders*each)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newEnds(t, bound, tc.choppy))
		})
	}
}

// TestBackoffDelaySequence pins the schedule the p2p client has always
// produced for 200ms..5s at ±20 % jitter, three seeds by eight attempts:
// attempt 0 immediate, doubling from Initial, capped at Max after jitter.
func TestBackoffDelaySequence(t *testing.T) {
	b := Backoff{Initial: 200 * time.Millisecond, Max: 5 * time.Second}
	want := map[uint64][8]time.Duration{
		1:    {0, 216233746, 403269859, 823713824, 1530450305, 3452388373, 4287144073, 4142090432},
		42:   {0, 166709037, 380636840, 857613891, 1871803485, 3829509010, 5000000000, 5000000000},
		7777: {0, 191320391, 352021029, 949016804, 1845388574, 3407270463, 5000000000, 5000000000},
	}
	for seed, seq := range want {
		rng := stats.NewRNG(seed)
		for i, w := range seq {
			if got := b.Delay(i, rng); got != w {
				t.Errorf("seed %d: Delay(%d) = %d, want %d", seed, i, got, w)
			}
		}
	}
}

func TestBackoffOr(t *testing.T) {
	def := Backoff{Initial: time.Second, Max: time.Minute}
	if got := (Backoff{}).Or(def); got != def {
		t.Errorf("zero.Or = %+v, want %+v", got, def)
	}
	set := Backoff{Initial: time.Millisecond, Max: -1}
	if got, want := set.Or(def), (Backoff{Initial: time.Millisecond, Max: time.Minute}); got != want {
		t.Errorf("partial.Or = %+v, want %+v", got, want)
	}
}

// TestSleep: a wait that runs its course reports elapsed, and closing stop
// ends one within 50ms and reports that it did not elapse.
func TestSleep(t *testing.T) {
	const d = 20 * time.Millisecond
	start := time.Now()
	if !Sleep(d, make(chan struct{})) {
		t.Error("Sleep with stop open reported not elapsed")
	}
	if el := time.Since(start); el < d {
		t.Errorf("Sleep(%v) returned after %v", d, el)
	}

	stop := make(chan struct{})
	go func() {
		time.Sleep(d)
		close(stop)
	}()
	start = time.Now()
	if Sleep(2*time.Second, stop) {
		t.Error("Sleep cut short by stop reported elapsed")
	}
	if el := time.Since(start); el > d+50*time.Millisecond {
		t.Errorf("Sleep returned %v after stop, want within 50ms", el-d)
	}
	if Sleep(2*time.Second, stop) {
		t.Error("Sleep with stop already closed reported elapsed")
	}
}

// TestEvery: fn runs once per tick with non-decreasing times, and closing
// stop ends the loop within 50ms.
func TestEvery(t *testing.T) {
	const d = 5 * time.Millisecond
	stop, ended := make(chan struct{}), make(chan struct{})
	var ticks []time.Time
	go func() {
		defer close(ended)
		Every(stop, d, func(now time.Time) { ticks = append(ticks, now) })
	}()
	time.Sleep(20 * d)
	close(stop)
	closed := time.Now()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("Every still running 1s after stop closed")
	}
	if el := time.Since(closed); el > 50*time.Millisecond {
		t.Errorf("Every returned %v after stop, want within 50ms", el)
	}
	if len(ticks) < 2 {
		t.Fatalf("%d ticks in %v at a %v period, want several", len(ticks), 20*d, d)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i].Before(ticks[i-1]) {
			t.Errorf("tick %d at %v is before tick %d at %v", i, ticks[i], i-1, ticks[i-1])
		}
	}
}
