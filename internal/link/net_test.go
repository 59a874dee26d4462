package link_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"spnet/internal/faults"
	"spnet/internal/link"
)

// connect dials ln on n and returns both ends, closed at cleanup.
func connect(t *testing.T, n link.Net, ln net.Listener) (dialed, accepted net.Conn) {
	t.Helper()
	got := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		got <- c
	}()
	dialed, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { dialed.Close() })
	if accepted = <-got; accepted == nil {
		t.Fatal("Accept failed")
	}
	t.Cleanup(func() { accepted.Close() })
	return dialed, accepted
}

// pair listens on n and returns a dialed and an accepted end.
func pair(t *testing.T, n link.Net) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	return connect(t, n, ln)
}

// blocked starts a Read on c, checks it is still waiting 20ms later, calls
// end, and returns the Read's error, failing unless it comes back within a
// second.
func blocked(t *testing.T, c net.Conn, end func()) error {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Read returned %v before anything ended it", err)
	case <-time.After(20 * time.Millisecond):
	}
	end()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("ended Read returned no error")
		}
		return err
	case <-time.After(time.Second):
		t.Fatal("Read still blocked 1s after it was ended")
	}
	return nil
}

func wantTimeout(t *testing.T, err error) {
	t.Helper()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net.Error timeout", err)
	}
}

// TestNetConformance is the contract every Net keeps, run over TCP and over
// TCP wrapped by the fault injector: what one end writes the other reads, a
// read deadline ends a Read with a timeout, Close and a deadline set from
// another goroutine each end a Read already waiting, and a closed listener's
// address can be listened on again, as a restarted super-peer does. Where a
// Net can partition, the read cases run again with the node isolated, and a
// write vanishes while the partition holds and is delivered after the heal.
func TestNetConformance(t *testing.T) {
	ctrl := faults.NewController(1)
	rows := []struct {
		name string
		net  link.Net
		// partition isolates every connection of the row's Net and returns
		// the heal; nil where the Net cannot partition.
		partition func() (heal func())
	}{
		{"tcp", link.Net{}, nil},
		{"faults over tcp", ctrl.Net("n", link.Net{}), func() func() {
			ctrl.Isolate("n")
			return func() { ctrl.Restore("n") }
		}},
	}
	reads := []struct {
		name string
		run  func(t *testing.T, c net.Conn)
	}{
		{"read deadline times out", func(t *testing.T, c net.Conn) {
			c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			_, err := c.Read(make([]byte, 1))
			wantTimeout(t, err)
		}},
		{"Close ends a waiting Read", func(t *testing.T, c net.Conn) {
			blocked(t, c, func() { c.Close() })
		}},
		{"a deadline set meanwhile ends a waiting Read", func(t *testing.T, c net.Conn) {
			wantTimeout(t, blocked(t, c, func() { c.SetReadDeadline(time.Now()) }))
		}},
	}
	for _, row := range rows {
		t.Run(row.name+"/round trip", func(t *testing.T) {
			c, s := pair(t, row.net)
			for _, dir := range []struct{ from, to net.Conn }{{c, s}, {s, c}} {
				go dir.from.Write([]byte("ping"))
				got := make([]byte, 4)
				if _, err := io.ReadFull(dir.to, got); err != nil || string(got) != "ping" {
					t.Fatalf("read %q, %v; want %q", got, err, "ping")
				}
			}
		})
		t.Run(row.name+"/relisten on the pinned address", func(t *testing.T) {
			ln, err := row.net.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			addr := ln.Addr().String()
			c, s := connect(t, row.net, ln)
			c.Close()
			s.Close()
			ln.Close()
			if ln, err = row.net.Listen(addr); err != nil {
				t.Fatalf("relisten on %s: %v", addr, err)
			}
			defer ln.Close()
			if got := ln.Addr().String(); got != addr {
				t.Fatalf("relistened on %s, want %s", got, addr)
			}
			connect(t, row.net, ln)
		})
		if row.partition != nil {
			t.Run(row.name+"/partitioned/dial fails", func(t *testing.T) {
				ln, err := row.net.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				defer ln.Close()
				heal := row.partition()
				defer heal()
				c, err := row.net.Dial(ln.Addr().String(), time.Second)
				if err == nil {
					c.Close()
				}
				wantTimeout(t, err)
			})
			// The write half: an isolated end writes to a peer on plain TCP.
			peered := func(t *testing.T) (c, peer net.Conn) {
				ln, err := row.net.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				defer ln.Close()
				peer, c = connect(t, link.Net{}, ln)
				return c, peer
			}
			t.Run(row.name+"/partitioned/a write vanishes", func(t *testing.T) {
				c, peer := peered(t)
				heal := row.partition()
				defer heal()
				if n, err := c.Write([]byte("lost")); n != 4 || err != nil {
					t.Fatalf("partitioned Write = %d, %v; want silent success", n, err)
				}
				peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				n, err := peer.Read(make([]byte, 4))
				if n > 0 {
					t.Fatalf("peer read %d bytes of a partitioned write", n)
				}
				wantTimeout(t, err)
			})
			t.Run(row.name+"/partitioned/a write after the heal is delivered", func(t *testing.T) {
				c, peer := peered(t)
				row.partition()()
				if _, err := c.Write([]byte("sent")); err != nil {
					t.Fatalf("Write after the heal: %v", err)
				}
				peer.SetReadDeadline(time.Now().Add(time.Second))
				got := make([]byte, 4)
				if _, err := io.ReadFull(peer, got); err != nil || string(got) != "sent" {
					t.Fatalf("peer read %q, %v; want %q", got, err, "sent")
				}
			})
		}
		for _, rc := range reads {
			t.Run(row.name+"/"+rc.name, func(t *testing.T) {
				c, _ := pair(t, row.net)
				rc.run(t, c)
			})
			if row.partition == nil {
				continue
			}
			t.Run(row.name+"/partitioned/"+rc.name, func(t *testing.T) {
				c, _ := pair(t, row.net)
				heal := row.partition()
				defer heal()
				rc.run(t, c)
			})
		}
	}
}
