package link

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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
		check func(t *testing.T, br *bufio.Reader, err error)
	}{
		{"ok", pipeDialer(t, answer(OK+"\n")), func(t *testing.T, _ *bufio.Reader, err error) {
			if err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
		}},
		{"busy", pipeDialer(t, answer(Busy+"\n")), func(t *testing.T, _ *bufio.Reader, err error) {
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("err = %v, want ErrBusy", err)
			}
		}},
		{"garbage reply", pipeDialer(t, answer("HTTP/1.1 400 Bad Request\n")), func(t *testing.T, _ *bufio.Reader, err error) {
			if err == nil || errors.Is(err, ErrBusy) || !strings.Contains(err.Error(), "unexpected reply") {
				t.Fatalf("err = %v, want an unexpected-reply error", err)
			}
		}},
		{"silent server", pipeDialer(t, answer("")), func(t *testing.T, _ *bufio.Reader, err error) {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("err = %v, want a setup timeout", err)
			}
		}},
		{"dial error", func(string, string, time.Duration) (net.Conn, error) { return nil, dialErr },
			func(t *testing.T, _ *bufio.Reader, err error) {
				if !errors.Is(err, dialErr) {
					t.Fatalf("err = %v, want the dial error", err)
				}
			}},
		{"over-long line", pipeDialer(t, answer(strings.Repeat("x", 4*maxLine))), func(t *testing.T, _ *bufio.Reader, err error) {
			if !errors.Is(err, errLineTooLong) {
				t.Fatalf("err = %v, want errLineTooLong", err)
			}
		}},
		{"bytes after the reply", pipeDialer(t, answer(OK+"\nfirst frame")), func(t *testing.T, br *bufio.Reader, err error) {
			if err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			got := make([]byte, len("first frame"))
			if _, err := io.ReadFull(br, got); err != nil || string(got) != "first frame" {
				t.Fatalf("read after reply = %q, %v; want %q", got, err, "first frame")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			c, br, err := tc.dial.Open("node:1", Peer, 100*time.Millisecond)
			if err == nil {
				defer c.Close()
			} else if c != nil || br != nil {
				t.Errorf("failed Open returned conn %v, reader %v", c, br)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("Open took %v with a 100ms setup timeout", el)
			}
			tc.check(t, br, err)
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
	_, _, err := ReadHello(server, 10*time.Second)
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
			hello, _, err := ReadHello(c, time.Second)
			if err != nil || hello != Transfer {
				t.Errorf("ReadHello = %q, %v; want %q", hello, err, Transfer)
				return
			}
			Reply(c, admitted)
		})
		c, _, err := d.Open("node:1", Transfer, time.Second)
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
