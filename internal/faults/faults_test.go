package faults

import (
	"net"
	"testing"
	"time"
)

// pipePair wraps one end of a net.Pipe in a fault conn.
func pipePair(f *Controller, node string) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return f.wrap(node, a), b
}

func TestIsolateBlackholesNode(t *testing.T) {
	f := NewController(1)
	wc, rc := pipePair(f, "n")
	defer wc.Close()
	defer rc.Close()

	// Sanity: traffic flows before the partition.
	go rc.Write([]byte("a"))
	one := make([]byte, 1)
	if _, err := wc.Read(one); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}

	f.Isolate("n")
	// Writes are silently dropped.
	if n, err := wc.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("partitioned write: n=%d err=%v, want silent success", n, err)
	}
	// Reads stall and honor the deadline with a timeout error.
	wc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := wc.Read(one)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("partitioned read err = %v, want net.Error timeout", err)
	}

	// Healing restores the link.
	f.Restore("n")
	wc.SetReadDeadline(time.Time{})
	go rc.Write([]byte("b"))
	if _, err := wc.Read(one); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if one[0] != 'b' {
		t.Errorf("post-heal read byte %q, want 'b'", one[0])
	}
}

// TestIsolateStallsReadInProgress: a Read already waiting on the socket when
// its node is isolated stays blind to what arrives during the partition, and
// gets those bytes once the node is restored.
func TestIsolateStallsReadInProgress(t *testing.T) {
	f := NewController(1)
	wc, rc := pipePair(f, "n")
	defer wc.Close()
	defer rc.Close()

	type read struct {
		b   string
		err error
	}
	got := make(chan read, 1)
	go func() {
		buf := make([]byte, 8)
		n, err := wc.Read(buf)
		got <- read{string(buf[:n]), err}
	}()
	time.Sleep(20 * time.Millisecond) // let the Read block on the pipe
	f.Isolate("n")
	go rc.Write([]byte("late"))
	select {
	case r := <-got:
		t.Fatalf("Read returned %q, %v during the partition", r.b, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	f.Restore("n")
	select {
	case r := <-got:
		if r.err != nil || r.b != "late" {
			t.Fatalf("post-heal Read = %q, %v; want %q", r.b, r.err, "late")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read still stalled 5s after Restore")
	}
}

func TestResetNodeClosesAllConns(t *testing.T) {
	f := NewController(1)
	wc1, rc1 := pipePair(f, "n")
	wc2, rc2 := pipePair(f, "n")
	defer rc1.Close()
	defer rc2.Close()
	f.ResetNode("n")
	if _, err := wc1.Write([]byte("x")); err == nil {
		t.Error("conn 1 alive after ResetNode")
	}
	if _, err := wc2.Write([]byte("x")); err == nil {
		t.Error("conn 2 alive after ResetNode")
	}
}
