// Package des implements a deterministic discrete-event simulation kernel:
// a virtual clock and a priority queue of timestamped entries, each
// carrying one uint64 payload the caller defines.
//
// This is the substrate standing in for the SimGrid toolkit used by the
// paper. The RUMR study only needs SimGrid for timing master/worker message
// exchanges and computations on a star platform, so an event queue driven
// by its caller is sufficient and — unlike a goroutine-per-process design
// — is exactly reproducible and fast enough to run hundreds of thousands
// of simulations in a test run.
//
// Ties in event time are broken by insertion order (a monotonically
// increasing sequence number), which makes simulations deterministic
// regardless of heap internals.
//
// The kernel runs no code of its own. The caller owns the run loop: Peek
// reports the earliest entry, Step fires it (moves the clock, counts it,
// and returns its payload, which the caller decodes and acts on; Settle
// ends the step) and Drop discards it unfired. Cancellation is the caller's too: it marks the
// entries it no longer wants stale in its own state, drops each one that
// reaches the root, and removes them all at once with Compact when they
// pile up.
//
// A caller may also keep a few events in its own queue — the engine keeps
// the master port's pending send ends, of which at most ParallelSends
// exist — by taking each one's sequence number with Reserve and firing it
// with Advance when it precedes the root by (time, seq). The merged firing
// order is then exactly the one a single queue holding every event would
// give, and the kernel's counters still count those events.
//
// The queue is built for the sweep hot path: a typed 4-ary heap of inline
// (time, seq, payload) slots — no pointers, no interface boxing, no
// container/heap indirection — so scheduling allocates nothing in steady
// state and the garbage collector never scans it.
package des

import (
	"fmt"
	"math"
)

// slot is one heap entry. Keeping the ordering key (time, seq) and the
// payload inline keeps sift comparisons inside one cache line per node.
type slot struct {
	time float64
	seq  uint64
	data uint64
}

// Simulator owns a virtual clock and the pending event queue. The zero
// value is ready to use, with the clock at 0.
type Simulator struct {
	now float64
	seq uint64
	q   []slot
	// processed counts events fired, for tests and diagnostics.
	processed uint64
	// pushes/replaced/maxDepth are the always-on kernel counters behind
	// Stats(): plain integer adds on state the hot path already touches,
	// so they cost nothing measurable and never allocate.
	pushes   uint64
	replaced uint64
	maxDepth int
	// rootHole is true while q[0] is the slot of the root Step fired: the
	// first At after it fills the hole with one siftDown — replace-top —
	// instead of paying pop-sift + push-sift. Settle and Compact remove an
	// unfilled hole.
	rootHole bool
}

// Stats are the kernel's cheap always-on counters, reset by Reset. Pushed
// and Fired count the events a caller reserved and advanced to outside the
// queue as well as the queued ones; Fired is the same count Processed
// returns. MaxDepth is the largest physical heap size observed (including
// entries the caller has not dropped yet), the quantity that bounds sift
// cost. Replaced counts the pushes that took the replace-top fast path
// (filled the just-fired root's slot with a single siftDown); it is a
// subset of Pushed.
type Stats struct {
	Pushed   uint64
	Fired    uint64
	Replaced uint64
	MaxDepth int
}

// Stats returns the counters accumulated since the last Reset.
func (s *Simulator) Stats() Stats {
	return Stats{Pushed: s.pushes, Fired: s.processed, Replaced: s.replaced, MaxDepth: s.maxDepth}
}

// New returns a fresh simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Reset returns the simulator to its initial state — clock at zero,
// empty queue, zeroed counters — while keeping the heap's capacity, so a
// pooled simulator can be reused across runs without allocating. A reset
// simulator is indistinguishable from a new one: sequence numbers restart
// at zero, which keeps same-seed runs byte-identical regardless of
// pooling.
func (s *Simulator) Reset() {
	*s = Simulator{q: s.q[:0]}
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// QueueLen returns the physical heap size, including entries the caller
// has marked stale but not dropped or compacted yet.
func (s *Simulator) QueueLen() int { return len(s.q) }

// Processed returns the number of events fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// checkTime panics for a NaN time or one before the clock: either always
// indicates a bug in a model. One comparison catches both, so the check
// inlines.
func (s *Simulator) checkTime(t float64) {
	if !(t >= s.now) {
		s.badTime(t)
	}
}

// badTime is checkTime's cold path. It is kept out of line: inlined, it
// would push checkTime over the inlining budget.
//
//go:noinline
func (s *Simulator) badTime(t float64) {
	if math.IsNaN(t) {
		panic("des: scheduling at NaN time")
	}
	panic(fmt.Sprintf("des: scheduling in the past: t=%g now=%g", t, s.now))
}

// At queues an entry carrying data at absolute virtual time t. Scheduling
// in the past (or a NaN time) panics: it always indicates a bug in a model.
func (s *Simulator) At(t float64, data uint64) {
	s.checkTime(t)
	sl := slot{time: t, seq: s.seq, data: data}
	s.seq++
	s.pushes++
	if s.rootHole {
		// Replace-top: the first entry queued after Step reuses the fired
		// root's slot with a single siftDown, instead of the pop-sift the
		// hole removal would cost plus a push-sift here. Safe for
		// determinism: (time, seq) is a strict total order, so extraction
		// order never depends on the heap's internal shape.
		s.rootHole = false
		s.replaced++
		s.q[0] = sl
		s.siftDown(0)
		return
	}
	s.q = append(s.q, sl)
	if i := len(s.q) - 1; i > 0 && less(sl, s.q[(i-1)/4]) {
		s.siftUp(i)
	}
	if len(s.q) > s.maxDepth {
		s.maxDepth = len(s.q)
	}
}

// After is At relative to the current time. Negative delays panic.
func (s *Simulator) After(d float64, data uint64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("des: negative or NaN delay %g", d))
	}
	s.At(s.now+d, data)
}

// Peek reports the time, sequence number and payload of the earliest
// queued entry, or ok == false when none is queued. It must not be called
// while a replace-top hole is open: Settle first.
func (s *Simulator) Peek() (t float64, seq, data uint64, ok bool) {
	if len(s.q) == 0 {
		return 0, 0, 0, false
	}
	return s.q[0].time, s.q[0].seq, s.q[0].data, true
}

// Step fires the entry the last Peek reported: the clock moves to its
// time, it is counted as fired, and its payload is returned for the caller
// to act on. Its slot stays in the heap as a hole until the next At fills
// it or Settle removes it — the dominant pattern is "fire, then queue a
// successor" (a compute end starting the worker's next queued chunk, an
// arrival starting its compute), and filling the hole costs one siftDown
// where pop-then-push would cost two sifts. Step must follow a Peek that
// reported an entry, with no At, Drop or Compact in between.
func (s *Simulator) Step() uint64 {
	top := &s.q[0]
	s.now = top.time
	s.processed++
	s.rootHole = true
	return top.data
}

// Settle removes the replace-top hole Step left, unless an At has filled
// it. A caller settles once it has acted on the stepped entry, and before
// it peeks from within that action.
func (s *Simulator) Settle() {
	if s.rootHole {
		s.rootHole = false
		s.popTop()
	}
}

// Drop removes the entry the last Peek reported without firing it: the
// caller's way of discarding an entry it has marked stale. Like Step, it
// must follow a Peek that reported an entry.
func (s *Simulator) Drop() { s.popTop() }

// Compact removes every queued entry whose payload keep rejects, and an
// unfilled replace-top hole, then re-heapifies. A caller that drops stale
// entries lazily compacts once they dominate the queue, which keeps the
// queue within a small multiple of its live entries at O(1) amortised
// cost per stale entry.
func (s *Simulator) Compact(keep func(data uint64) bool) {
	q := s.q
	if s.rootHole {
		s.rootHole = false
		q = q[1:]
	}
	kept := s.q[:0]
	for _, sl := range q {
		if keep(sl.data) {
			kept = append(kept, sl)
		}
	}
	s.q = kept
	// (n-2)/4 truncates to 0 for n < 2, so an emptied queue must skip the
	// loop rather than sift a root it no longer has.
	for i := (len(kept) - 2) / 4; i >= 0 && len(kept) > 1; i-- {
		s.siftDown(i)
	}
}

// Reserve takes the sequence number of an event due at t that the caller
// keeps outside the queue, and counts it as pushed. The caller fires it
// with Advance once it precedes the root by (time, seq); the kernel then
// orders it among the queued entries exactly as if it had been queued
// with At at this point. Like At it panics for a NaN or past time.
func (s *Simulator) Reserve(t float64) uint64 {
	s.checkTime(t)
	s.pushes++
	s.seq++
	return s.seq - 1
}

// Advance moves the clock to t to fire a reserved event, and counts it as
// fired. The caller runs the event's action itself after Advance returns.
// A NaN time or one before the clock panics, as in Reserve.
func (s *Simulator) Advance(t float64) {
	s.checkTime(t)
	s.now = t
	s.processed++
}

// less orders slots by (time, insertion seq).
func less(a, b slot) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// siftUp restores the 4-ary heap property from leaf i towards the root.
func (s *Simulator) siftUp(i int) {
	q := s.q
	sl := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(sl, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = sl
}

// siftDown restores the heap property from node i towards the leaves.
// The sinking key and the running child minimum are held in locals so
// the four-child scan re-reads no slot it has already compared — this
// loop is the kernel's single hottest code, fed by every replace-top
// fill and pop.
func (s *Simulator) siftDown(i int) {
	q := s.q
	n := len(q)
	sl := q[i]
	st, sq := sl.time, sl.seq
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		mt, mq := q[first].time, q[first].seq
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			ct, cq := q[c].time, q[c].seq
			if ct < mt || (ct == mt && cq < mq) {
				min, mt, mq = c, ct, cq
			}
		}
		if !(mt < st || (mt == st && mq < sq)) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = sl
}

// popTop removes the root slot.
func (s *Simulator) popTop() {
	n := len(s.q) - 1
	last := s.q[n]
	s.q = s.q[:n]
	if n > 0 {
		s.q[0] = last
		s.siftDown(0)
	}
}
