// Package sim is a deterministic discrete-event, message-level simulator of
// a super-peer network. Where internal/analysis computes expected loads in
// closed form (the paper's mean-value analysis), the simulator executes the
// protocol of Section 3 concretely: clients join, update and query; queries
// flood super-peers with a TTL and duplicate drop; Response messages travel
// the reverse path; 2-redundant partners share load round-robin; and every
// byte and processing unit is counted per node under the same cost model.
// The two engines validate each other (the simcheck experiment), and the
// simulator additionally runs the Section 5.3 local decision rules under
// churn, which the static analysis cannot.
package sim

// event is one scheduled action at a virtual time, stored by value. A timer
// runs fn (a recurring process builds its closure once and reschedules it);
// a message delivery has fn == nil and carries its payload inline, so
// delivering a message allocates nothing. seq breaks ties so that execution
// order is deterministic. TestEventSize pins the size at 96 bytes.
type event struct {
	at  float64
	seq uint64
	fn  func()
	msg message
}

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of events ordered by (at, seq): half the
// depth of a binary heap, and the four children of a node are adjacent in
// memory.
type timerHeap []event

// reserve sifts a hole for an event due at (at, seq) into place and returns
// it, zeroed but for the key, for the caller to fill.
func (h *timerHeap) reserve(at float64, seq uint64) *event {
	key := event{at: at, seq: seq}
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !key.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = key
	*h = q
	return &q[i]
}

// pop moves the minimum into out and re-inserts the last element from the
// root down.
func (h *timerHeap) pop(out *event) {
	q := *h
	*out = q[0]
	n := len(q) - 1
	last := &q[n]
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		end := child + 4
		if end > n {
			end = n
		}
		least := child
		for j := child + 1; j < end; j++ {
			if q[j].before(&q[least]) {
				least = j
			}
		}
		if !q[least].before(last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = *last
	q[n] = event{} // drop the closure and payload references
	*h = q[:n]
}

// lane is a FIFO ring of events already sorted by (at, seq). Every message
// is delivered at now + Latency with now monotone and seq increasing, so
// deliveries arrive in order and need no heap: reserve and pop are O(1) and
// the storage is reused as the ring cycles (stale slots keep their payload
// until overwritten; they reference only live nodes and query terms).
type lane struct {
	buf  []event // len is zero or a power of two
	head int     // index of the oldest event
	n    int     // occupancy
}

// accepts reports whether an event due at `at`, carrying a seq above every
// queued one, would keep the lane sorted.
func (l *lane) accepts(at float64) bool {
	return l.n == 0 || at >= l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at
}

// reserve appends a message slot due at (at, seq) and returns it; the
// caller assigns its whole msg (fn is nil: the lane only holds messages).
func (l *lane) reserve(at float64, seq uint64) *event {
	if l.n == len(l.buf) {
		l.grow()
	}
	e := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	e.at, e.seq = at, seq
	l.n++
	return e
}

func (l *lane) pop(out *event) {
	*out = l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// grow doubles a full ring, unrolling it to start at index 0.
func (l *lane) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 256
	}
	buf := make([]event, size)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// scheduler is the event queue with a monotonic clock: a heap for timers
// and a constant-latency lane for message deliveries, merged at pop under
// the one (at, seq) order.
type scheduler struct {
	timers timerHeap
	msgs   lane
	now    float64
	seq    uint64
}

// schedule enqueues fn to run after delay seconds of virtual time.
func (s *scheduler) schedule(delay float64, fn func()) {
	s.reserve(delay, false).fn = fn
}

// reserve enqueues an event due after delay, stamped with the next seq, and
// returns its queue slot for the caller to fill in place: a timer sets fn, a
// message (msg true) assigns its whole msg. The slot is valid until the next
// reserve or pop. A message enters the lane only when that keeps the lane
// sorted and falls back to the heap otherwise, so the execution order never
// depends on the caller using one delay.
func (s *scheduler) reserve(delay float64, msg bool) *event {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	at := s.now + delay
	if msg && s.msgs.accepts(at) {
		return s.msgs.reserve(at, s.seq)
	}
	return s.timers.reserve(at, s.seq)
}

// pop moves the next event due at or before horizon into out and advances
// the clock to it. When none is left it advances the clock to horizon and
// returns false.
func (s *scheduler) pop(horizon float64, out *event) bool {
	var next *event
	if s.msgs.n > 0 {
		next = &s.msgs.buf[s.msgs.head]
	}
	fromHeap := len(s.timers) > 0 && (next == nil || s.timers[0].before(next))
	if fromHeap {
		next = &s.timers[0]
	}
	if next == nil || next.at > horizon {
		if s.now < horizon {
			s.now = horizon
		}
		return false
	}
	s.now = next.at
	if fromHeap {
		s.timers.pop(out)
	} else {
		s.msgs.pop(out)
	}
	return true
}

// runUntil executes events in (at, seq) order until the clock passes
// horizon or the queue drains. It returns the number of events executed.
func (s *Simulator) runUntil(horizon float64) int {
	executed := 0
	var ev event
	for s.sched.pop(horizon, &ev) {
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.msg.kind == msgQuery:
			s.handleQuery(&ev.msg)
		default:
			s.handleResponse(&ev.msg)
		}
		executed++
	}
	return executed
}
