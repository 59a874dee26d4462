package faults

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair wraps one end of a net.Pipe in a fault conn.
func pipePair(f *Controller, node string) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return f.Wrap(node, a), b
}

// drain reads everything from c into a buffer until EOF or error.
func drain(c net.Conn, into *bytes.Buffer, done chan<- struct{}) {
	io.Copy(into, c)
	close(done)
}

func TestDropIsDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		f := NewController(seed)
		f.SetRule("n", Rule{DropProb: 0.5})
		wc, rc := pipePair(f, "n")
		defer wc.Close()
		var buf bytes.Buffer
		done := make(chan struct{})
		go drain(rc, &buf, done)
		var got []bool
		for i := 0; i < 64; i++ {
			n, err := wc.Write([]byte{byte(i)})
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			if n != 1 {
				t.Fatalf("write %d: n = %d", i, n)
			}
			// A dropped write never reaches the reader; detect via count.
			got = append(got, f.Counts()[Drop] > countTrue(got))
		}
		wc.Close()
		<-done
		return got
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverges at write %d with identical seeds", i)
		}
	}
	if countTrue(a) == 0 || countTrue(a) == len(a) {
		t.Fatalf("drop pattern degenerate: %d/%d dropped", countTrue(a), len(a))
	}
	if c := pattern(8); equalBools(a, c) {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTruncateCorruptsAndKills(t *testing.T) {
	f := NewController(1)
	f.SetRule("n", Rule{TruncateProb: 1})
	wc, rc := pipePair(f, "n")
	var buf bytes.Buffer
	done := make(chan struct{})
	go drain(rc, &buf, done)
	n, err := wc.Write([]byte("0123456789"))
	if err == nil {
		t.Fatal("truncated write reported success")
	}
	if n != 5 {
		t.Errorf("truncated write n = %d, want 5", n)
	}
	<-done
	if buf.String() != "01234" {
		t.Errorf("reader saw %q, want the 5-byte prefix", buf.String())
	}
	// The connection is dead now.
	if _, err := wc.Write([]byte("x")); err == nil {
		t.Error("write after truncate-kill succeeded")
	}
}

func TestResetKillsConnection(t *testing.T) {
	f := NewController(1)
	f.SetRule("n", Rule{ResetProb: 1})
	wc, rc := pipePair(f, "n")
	defer rc.Close()
	if _, err := wc.Write([]byte("x")); err == nil {
		t.Fatal("reset write reported success")
	}
	if f.Counts()[Reset] == 0 {
		t.Error("reset not counted")
	}
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
	if f.Counts()[Partition] == 0 {
		t.Error("partition drops not counted")
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
