// Package des implements a deterministic discrete-event simulation kernel:
// a virtual clock and a priority queue of timestamped callbacks.
//
// This is the substrate standing in for the SimGrid toolkit used by the
// paper. The RUMR study only needs SimGrid for timing master/worker message
// exchanges and computations on a star platform, so a callback-based kernel
// is sufficient and — unlike a goroutine-per-process design — is exactly
// reproducible and fast enough to run hundreds of thousands of simulations
// in a test run.
//
// Ties in event time are broken by insertion order (a monotonically
// increasing sequence number), which makes simulations deterministic
// regardless of heap internals.
//
// The queue is built for the sweep hot path: a typed 4-ary heap of inline
// (time, seq) slots — no interface boxing, no container/heap indirection —
// an Event free-list so steady-state scheduling allocates nothing, and
// lazy cancellation with compaction so fault-heavy runs (which cancel one
// completion timer per finished chunk) cannot grow the queue beyond a
// small multiple of its live events. A callback is a shared function plus
// an argument pair (AtCall/AfterCall), so scheduling one never allocates
// a closure.
package des

import (
	"fmt"
	"math"
)

// Event is the pooled internal representation of a scheduled callback.
// Callers never hold an *Event directly — scheduling returns a Handle,
// whose generation tag keeps a recycled Event from being cancelled by a
// stale reference.
type Event struct {
	fn        func(arg any, aux int)
	arg       any
	aux       int
	gen       uint32
	cancelled bool
}

// Handle identifies a scheduled event for cancellation. The zero Handle
// is valid and refers to no event; cancelling it is a no-op. A Handle
// expires when its event fires, is compacted away, or the simulator is
// reset — all operations on an expired handle are no-ops.
type Handle struct {
	ev  *Event
	gen uint32
}

// Cancelled reports whether Cancel was called on the (still-tracked)
// event. It returns false for the zero Handle and for handles whose
// event already fired or was reclaimed.
func (h Handle) Cancelled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.cancelled
}

// Scheduled reports whether the event is still pending: scheduled,
// not cancelled, not yet fired.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

// slot is one heap entry. Keeping the ordering key (time, seq) inline —
// rather than behind the Event pointer — keeps sift comparisons inside
// one cache line per node.
type slot struct {
	time float64
	seq  uint64
	ev   *Event
}

// compactMin is the minimum number of lazily-cancelled events before a
// compaction is considered; below it the dead entries are cheaper to
// drain at pop time than to filter.
const compactMin = 64

// Simulator owns a virtual clock and the pending event queue. The zero
// value is ready to use, with the clock at 0.
type Simulator struct {
	now float64
	seq uint64
	q   []slot
	// scratch is a one-slot event cache in front of the free-list: the
	// fire→schedule rhythm of the engine hot path retires one event and
	// immediately allocates the next, so most alloc/recycle pairs hit
	// this single pointer instead of an append/pop on free.
	scratch *Event
	free    []*Event
	live    int // scheduled and not cancelled
	dead    int // cancelled but still occupying a heap slot
	stopped bool
	// processed counts events executed, for tests and diagnostics.
	processed uint64
	// pushes/cancels/maxDepth are the always-on kernel counters behind
	// Stats(): plain integer adds on state the hot path already touches,
	// so they cost nothing measurable and never allocate.
	pushes   uint64
	cancels  uint64
	replaced uint64
	maxDepth int
	// rootHole is true while RunUntil is firing the former root and has
	// left q[0] as a hole (ev == nil) instead of popping it: the first
	// schedule issued by the callback fills the hole with one siftDown —
	// replace-top — instead of paying pop-sift + push-sift. An unfilled
	// hole is removed when the callback returns.
	rootHole bool
}

// Stats are the kernel's cheap always-on counters, reset by Reset. Fired
// is the same count Processed returns; MaxDepth is the largest physical
// heap size observed (live + lazily-cancelled slots), the quantity that
// bounds sift cost. Replaced counts the pushes that took the replace-top
// fast path (filled the just-fired root's slot with a single siftDown);
// it is a subset of Pushed.
type Stats struct {
	Pushed    uint64
	Fired     uint64
	Cancelled uint64
	Replaced  uint64
	MaxDepth  int
}

// Stats returns the counters accumulated since the last Reset.
func (s *Simulator) Stats() Stats {
	return Stats{Pushed: s.pushes, Fired: s.processed, Cancelled: s.cancels, Replaced: s.replaced, MaxDepth: s.maxDepth}
}

// New returns a fresh simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Reset returns the simulator to its initial state — clock at zero,
// empty queue, zeroed counters — while keeping the heap's capacity and
// the event free-list, so a pooled simulator can be reused across runs
// without allocating. A reset simulator is indistinguishable from a new
// one: sequence numbers restart at zero, which keeps same-seed runs
// byte-identical regardless of pooling.
func (s *Simulator) Reset() {
	for _, sl := range s.q {
		if sl.ev != nil {
			s.recycle(sl.ev)
		}
	}
	s.q = s.q[:0]
	s.now = 0
	s.seq = 0
	s.live = 0
	s.dead = 0
	s.stopped = false
	s.processed = 0
	s.pushes = 0
	s.cancels = 0
	s.replaced = 0
	s.maxDepth = 0
	s.rootHole = false
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of scheduled (uncancelled) events. It is
// O(1): the simulator maintains a live-event counter instead of scanning
// the queue.
func (s *Simulator) Pending() int { return s.live }

// QueueLen returns the physical heap size, including lazily-cancelled
// events not yet compacted or popped. Compaction keeps it bounded by
// a small multiple of Pending(); tests pin that invariant down.
func (s *Simulator) QueueLen() int { return len(s.q) }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// PendingBy reports whether a scheduled, uncancelled event is due at or
// before time t. It visits only the heap nodes due by t (plus their
// children), so asking about the current instant costs a handful of
// comparisons. Safe to call from a firing callback.
func (s *Simulator) PendingBy(t float64) bool {
	q := s.q
	if len(q) == 0 || q[0].time > t {
		return false
	}
	if ev := q[0].ev; ev != nil && !ev.cancelled {
		return true
	}
	// The root is the replace-top hole of the firing callback (ev == nil)
	// or a cancelled slot: not pending itself, but its children may be.
	for c := 1; c <= 4 && c < len(q); c++ {
		if q[c].time <= t && s.pendingBy(c, t) {
			return true
		}
	}
	return false
}

func (s *Simulator) pendingBy(i int, t float64) bool {
	if i >= len(s.q) || s.q[i].time > t {
		return false
	}
	if ev := s.q[i].ev; ev != nil && !ev.cancelled {
		return true
	}
	for c := 4*i + 1; c <= 4*i+4; c++ {
		if s.pendingBy(c, t) {
			return true
		}
	}
	return false
}

func (s *Simulator) alloc() *Event {
	if e := s.scratch; e != nil {
		s.scratch = nil
		return e
	}
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free = s.free[:k-1]
		return e
	}
	return &Event{}
}

// recycle retires an event: its generation is bumped so outstanding
// handles expire, its references are dropped, and the struct joins the
// free-list for the next AtCall/AfterCall.
func (s *Simulator) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.arg = nil
	e.cancelled = false
	if s.scratch == nil {
		s.scratch = e
		return
	}
	s.free = append(s.free, e)
}

func (s *Simulator) schedule(t float64, fn func(any, int), arg any, aux int) Handle {
	if math.IsNaN(t) {
		panic("des: scheduling at NaN time")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling in the past: t=%g now=%g", t, s.now))
	}
	e := s.alloc()
	e.fn = fn
	e.arg = arg
	e.aux = aux
	sl := slot{time: t, seq: s.seq, ev: e}
	s.seq++
	s.live++
	s.pushes++
	if s.rootHole {
		// Replace-top: the firing callback's first schedule reuses the
		// just-fired root's slot with a single siftDown, instead of the
		// pop-sift the hole removal would cost plus a push-sift here.
		// Safe for determinism: (time, seq) is a strict total order, so
		// extraction order never depends on the heap's internal shape.
		s.rootHole = false
		s.replaced++
		s.q[0] = sl
		s.siftDown(0)
		return Handle{ev: e, gen: e.gen}
	}
	s.q = append(s.q, sl)
	if i := len(s.q) - 1; i > 0 && s.less(sl, s.q[(i-1)/4]) {
		s.siftUp(i)
	}
	if len(s.q) > s.maxDepth {
		s.maxDepth = len(s.q)
	}
	return Handle{ev: e, gen: e.gen}
}

// AtCall schedules fn(arg, aux) at absolute virtual time t. Scheduling in
// the past (or a NaN time) panics: it always indicates a bug in a model.
// Callers share one top-level callback across many events (the engine's
// chunk-lifecycle path), so scheduling allocates nothing.
func (s *Simulator) AtCall(t float64, fn func(arg any, aux int), arg any, aux int) Handle {
	return s.schedule(t, fn, arg, aux)
}

// AfterCall is AtCall relative to the current time. Negative delays panic.
func (s *Simulator) AfterCall(d float64, fn func(arg any, aux int), arg any, aux int) Handle {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("des: negative or NaN delay %g", d))
	}
	return s.schedule(s.now+d, fn, arg, aux)
}

// Cancel prevents a scheduled event from firing. Cancelling the zero
// Handle, or one whose event already fired or was cancelled, is a no-op.
// The slot stays in the heap and is dropped lazily at pop time — or
// eagerly by compaction once cancelled slots dominate the queue.
func (s *Simulator) Cancel(h Handle) {
	e := h.ev
	if e == nil || e.gen != h.gen || e.cancelled {
		return
	}
	e.cancelled = true
	s.live--
	s.dead++
	s.cancels++
	if s.dead > compactMin && s.dead > len(s.q)/2 {
		s.compact()
	}
}

// compact removes every cancelled slot and re-heapifies. Amortised cost
// is O(1) per cancellation: a compaction touching n slots only happens
// after n/2 cancellations.
func (s *Simulator) compact() {
	keep := s.q[:0]
	for _, sl := range s.q {
		if sl.ev == nil {
			// Unfilled replace-top hole (a cancellation inside a firing
			// callback triggered this compaction): drop it here and tell
			// RunUntil it is gone.
			s.rootHole = false
		} else if sl.ev.cancelled {
			s.recycle(sl.ev)
		} else {
			keep = append(keep, sl)
		}
	}
	s.q = keep
	for i := (len(s.q) - 2) / 4; i >= 0 && len(s.q) > 0; i-- {
		s.siftDown(i)
	}
	s.dead = 0
}

// less orders slots by (time, insertion seq).
func (s *Simulator) less(a, b slot) bool {
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
		if !s.less(sl, q[parent]) {
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

// popTop removes the root slot. The caller has already read q[0].
func (s *Simulator) popTop() {
	n := len(s.q) - 1
	last := s.q[n]
	s.q[n].ev = nil
	s.q = s.q[:n]
	if n > 0 {
		s.q[0] = last
		s.siftDown(0)
	}
}

// fire executes the popped event: its callback is captured, the Event
// struct is recycled first (so the callback can immediately reuse it when
// scheduling follow-ups), then the callback runs.
func (s *Simulator) fire(e *Event) {
	fn, arg, aux := e.fn, e.arg, e.aux
	s.recycle(e)
	s.processed++
	fn(arg, aux)
}

// Stop makes Run return after the currently executing event.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue drains or Stop is
// called. It returns the final virtual time.
func (s *Simulator) Run() float64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= deadline, then advances the clock
// to min(deadline, time of next event) — or leaves it at the last executed
// event when the queue drains first. It returns the final virtual time.
func (s *Simulator) RunUntil(deadline float64) float64 {
	s.stopped = false
	for len(s.q) > 0 && !s.stopped {
		top := s.q[0]
		if top.ev.cancelled {
			e := top.ev
			s.popTop()
			s.dead--
			s.recycle(e)
			continue
		}
		if top.time > deadline {
			s.now = deadline
			return s.now
		}
		// Leave the root in place as a hole instead of popping: the
		// dominant pattern is "fire, then immediately schedule a
		// successor" (send → compute → next send), and filling the hole
		// in schedule costs one siftDown where pop-then-push would cost
		// two sifts. The callback must not re-enter RunUntil while
		// the hole exists.
		s.live--
		s.now = top.time
		s.q[0].ev = nil
		s.rootHole = true
		s.fire(top.ev)
		if s.rootHole {
			// No schedule claimed the hole; remove it like a normal pop.
			s.rootHole = false
			s.popTop()
		}
	}
	return s.now
}
