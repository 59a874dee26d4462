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

func TestExponentialScheduleDeterministic(t *testing.T) {
	a := ExponentialSchedule(42, 5, 2, 500, 3000)
	b := ExponentialSchedule(42, 5, 2, 500, 3000)
	if len(a) == 0 {
		t.Fatal("no failures scheduled over 6 partner-lifetimes")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	for _, ev := range a {
		if ev.At < 0 || ev.At >= 3000 {
			t.Errorf("event time %v outside [0, 3000)", ev.At)
		}
		if ev.Cluster < 0 || ev.Cluster >= 5 || ev.Partner < 0 || ev.Partner >= 2 {
			t.Errorf("event target out of range: %+v", ev)
		}
	}
	if c := ExponentialSchedule(43, 5, 2, 500, 3000); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestScheduleTruncate(t *testing.T) {
	s := Schedule{{At: 5, Cluster: 1}, {At: 1, Cluster: 0}, {At: 9, Cluster: 2}}
	got := s.Truncate(6)
	if len(got) != 2 || got[0].At != 1 || got[1].At != 5 {
		t.Errorf("Truncate(6) = %+v, want the sorted events before t=6", got)
	}
}
