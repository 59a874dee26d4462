package sim

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"spnet/internal/stats"
)

// drain pops every event due by horizon, running the timers, and returns
// the seqs in execution order.
func drain(s *scheduler, horizon float64) []uint64 {
	var order []uint64
	var ev event
	for s.pop(horizon, &ev) {
		order = append(order, ev.seq)
		if ev.fn != nil {
			ev.fn()
		}
	}
	return order
}

func TestEventQueueOrdering(t *testing.T) {
	var s scheduler
	var got []int
	s.schedule(3, func() { got = append(got, 3) })
	s.schedule(1, func() { got = append(got, 1) })
	s.schedule(2, func() { got = append(got, 2) })
	s.schedule(1, func() { got = append(got, 11) }) // same time: FIFO by seq
	drain(&s, 10)
	if want := []int{1, 11, 2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestEventQueueHorizon(t *testing.T) {
	var s scheduler
	ran := false
	s.schedule(5, func() { ran = true })
	if n := len(drain(&s, 4)); n != 0 || ran {
		t.Error("event beyond horizon executed")
	}
	if s.now != 4 {
		t.Errorf("clock = %v, want 4", s.now)
	}
	if n := len(drain(&s, 6)); n != 1 || !ran {
		t.Error("event within horizon skipped")
	}
}

// TestSchedulerMatchesReferenceOrder drives the heap and the lane with
// seeded random pushes — zero, negative, tied and far-future delays, message
// and timer kinds interleaved, more pushes from inside running events, a
// horizon that cuts mid-queue — and checks the execution order against a
// stable sort by (at, seq) of everything that was pushed.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	type stamp struct {
		at  float64
		seq uint64
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		var s scheduler
		var pushed []stamp
		budget := 4000

		var pushRandom func()
		pushRandom = func() {
			if budget == 0 {
				return
			}
			budget--
			var delay float64
			switch rng.Intn(6) {
			case 0:
				delay = 0
			case 1:
				delay = -rng.Float64() // clamped to zero
			case 2:
				delay = 0.02 // the constant message latency: ties on at
			case 3:
				delay = float64(rng.Intn(4)) * 0.5 // coarse grid: many ties
			case 4:
				delay = 1e6 * rng.Float64() // far future, beyond every horizon
			default:
				delay = 3 * rng.Float64()
			}
			isMsg := rng.Intn(3) != 0
			ev := s.reserve(delay, isMsg)
			pushed = append(pushed, stamp{ev.at, ev.seq})
			if isMsg {
				ev.msg = message{kind: msgKind(rng.Intn(2))}
			} else {
				// A running timer schedules up to three more.
				ev.fn = func() {
					for k := rng.Intn(4); k > 0; k-- {
						pushRandom()
					}
				}
			}
		}

		for i := 0; i < 500; i++ {
			pushRandom()
		}
		const last = 40.0
		var got []uint64
		for _, horizon := range []float64{0.01, 0.5, 0.5, 2.25, last} {
			for k := 0; k < 50; k++ {
				pushRandom() // between runs, from outside any event
			}
			got = append(got, drain(&s, horizon)...)
			if s.now != horizon {
				t.Fatalf("seed %d: clock %v after draining to %v", seed, s.now, horizon)
			}
		}

		sort.SliceStable(pushed, func(i, j int) bool {
			if pushed[i].at != pushed[j].at {
				return pushed[i].at < pushed[j].at
			}
			return pushed[i].seq < pushed[j].seq
		})
		var want []uint64
		for _, p := range pushed {
			if p.at <= last {
				want = append(want, p.seq)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: executed %d events out of reference order (%d expected)",
				seed, len(got), len(want))
		}
		if s.msgs.n == 0 && len(s.timers) == 0 {
			t.Fatalf("seed %d: nothing left beyond the horizon; the cut was not exercised", seed)
		}
	}
}

// TestLaneFallsBackToHeap pins the lane's admission rule: a message due
// before the lane's tail goes to the heap and still runs in (at, seq) order.
func TestLaneFallsBackToHeap(t *testing.T) {
	var s scheduler
	s.reserve(5, true) // seq 1, lane
	s.reserve(1, true) // seq 2, due earlier: heap
	s.reserve(5, true) // seq 3, tie with the tail: lane
	if s.msgs.n != 2 || len(s.timers) != 1 {
		t.Fatalf("lane holds %d, heap %d; want 2 and 1", s.msgs.n, len(s.timers))
	}
	if got := fmt.Sprint(drain(&s, 10)); got != "[2 1 3]" {
		t.Fatalf("order %s, want [2 1 3]", got)
	}
}

// TestEventSize pins the event at 96 bytes: every message is copied into
// the queue and out again, so its size is paid twice per delivery.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 96 {
		t.Errorf("event is %d bytes, want <= 96", size)
	}
}

// TestMessageEventsAllocateNothing: in steady state, pushing and popping
// message events touches only storage the scheduler already owns, and the
// ring does not grow while its occupancy holds.
func TestMessageEventsAllocateNothing(t *testing.T) {
	var s scheduler
	target := &partnerNode{}
	const inFlight = 300
	for i := 0; i < inFlight; i++ {
		s.reserve(0.02, true).msg = message{kind: msgQuery, to: target, id: uint64(i), ttl: 7}
	}
	ringCap := len(s.msgs.buf)
	var ev event
	allocs := testing.AllocsPerRun(5000, func() {
		if !s.pop(s.now+1, &ev) {
			t.Fatal("queue drained")
		}
		s.reserve(0.02, true).msg = ev.msg
		s.reserve(0.02, true).msg = message{kind: msgResponse, to: ev.msg.to, id: ev.msg.id}
		if !s.pop(s.now+1, &ev) {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state message push/pop allocates %v objects per round, want 0", allocs)
	}
	if s.msgs.n != inFlight {
		t.Fatalf("occupancy drifted to %d", s.msgs.n)
	}
	if len(s.msgs.buf) != ringCap {
		t.Errorf("ring grew from %d to %d slots at steady occupancy %d", ringCap, len(s.msgs.buf), inFlight)
	}
	if len(s.timers) != 0 {
		t.Errorf("%d constant-latency messages fell back to the heap", len(s.timers))
	}
}
