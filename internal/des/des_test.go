package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rumr/internal/rng"
)

func TestEventsFireInOrder(t *testing.T) {
	s := New()
	var got []float64
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	end := s.Run()
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestAfterAdvancesRelative(t *testing.T) {
	s := New()
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time should panic")
		}
	}()
	s.At(math.NaN(), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() && e.Scheduled() {
		t.Fatal("event should not report scheduled after cancel")
	}
	s.Cancel(Handle{}) // zero handle must not panic
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var e Handle
	s.At(1, func() { s.Cancel(e) })
	e = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	count := 0
	e := s.At(1, func() { count++ })
	s.Run()
	if e.Scheduled() || e.Cancelled() {
		t.Fatal("handle should expire once the event fired")
	}
	// The Event struct behind e has been recycled; a second event may now
	// occupy it. Cancelling the stale handle must not touch the new event.
	f := s.At(2, func() { count += 10 })
	s.Cancel(e)
	s.Run()
	if count != 11 {
		t.Fatalf("count = %d; stale cancel hit a recycled event", count)
	}
	_ = f
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Run can resume after a stop.
	s.Run()
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	end := s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 5.5 {
		t.Fatalf("clock = %v, want 5.5", end)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("final count = %d", count)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func() { fired = true })
	s.RunUntil(5)
	if !fired {
		t.Fatal("event exactly at the deadline should fire")
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++ })
	s.At(2, func() { count++ })
	if !s.Step() || count != 1 {
		t.Fatal("first step")
	}
	if !s.Step() || count != 2 {
		t.Fatal("second step")
	}
	if s.Step() {
		t.Fatal("step on empty queue should report false")
	}
}

func TestPendingAndProcessed(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("pending after cancel = %d", s.Pending())
	}
	s.Run()
	if s.Processed() != 1 {
		t.Fatalf("processed = %d", s.Processed())
	}
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d", s.Pending())
	}
}

func TestAtCallPassesArguments(t *testing.T) {
	s := New()
	type box struct{ hits, lastAux int }
	b := &box{}
	cb := func(arg any, aux int) {
		bb := arg.(*box)
		bb.hits++
		bb.lastAux = aux
	}
	s.AtCall(1, cb, b, 7)
	s.AfterCall(2, cb, b, 42)
	s.Run()
	if b.hits != 2 || b.lastAux != 42 {
		t.Fatalf("box = %+v", b)
	}
}

func TestReset(t *testing.T) {
	s := New()
	s.At(1, func() {})
	e := s.At(2, func() {})
	s.Run()
	s.At(5, func() { t.Fatal("event from before Reset fired") })
	s.Cancel(e)
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.QueueLen() != 0 || s.Processed() != 0 {
		t.Fatalf("reset state: now=%v pending=%d qlen=%d processed=%d",
			s.Now(), s.Pending(), s.QueueLen(), s.Processed())
	}
	// After a reset the simulator behaves exactly like a fresh one,
	// including the tie-break sequence numbering.
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order after reset = %v", got)
		}
	}
}

// Property: random schedules always execute in nondecreasing time order and
// execute every uncancelled event exactly once.
func TestRandomSchedulesOrdered(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New()
		n := 1 + src.Intn(200)
		var fired []float64
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			times[i] = src.Uniform(0, 100)
			tt := times[i]
			s.At(tt, func() { fired = append(fired, tt) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		sort.Float64s(times)
		for i := range times {
			if times[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: against a reference sort by (time, insertion index), a random
// schedule with duplicate timestamps fires in exactly the reference order —
// the insertion-order tie-break must survive the 4-ary heap's sifts.
func TestRandomTieBreakMatchesReferenceSort(t *testing.T) {
	type ev struct {
		time float64
		idx  int
	}
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New()
		n := 1 + src.Intn(300)
		events := make([]ev, n)
		var fired []ev
		for i := 0; i < n; i++ {
			// Coarse times force plenty of exact ties.
			events[i] = ev{time: float64(src.Intn(10)), idx: i}
			e := events[i]
			s.At(e.time, func() { fired = append(fired, e) })
		}
		ref := append([]ev(nil), events...)
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].time < ref[b].time })
		s.Run()
		if len(fired) != n {
			return false
		}
		for i := range ref {
			if fired[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random cancellations mixed in, exactly the uncancelled
// events fire, in reference order, and Pending stays consistent.
func TestRandomCancellations(t *testing.T) {
	type ev struct {
		time float64
		idx  int
	}
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New()
		n := 1 + src.Intn(300)
		handles := make([]Handle, n)
		var fired []ev
		for i := 0; i < n; i++ {
			e := ev{time: float64(src.Intn(20)), idx: i}
			handles[i] = s.At(e.time, func() { fired = append(fired, e) })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if src.Float64() < 0.5 {
				cancelled[i] = true
				s.Cancel(handles[i])
				s.Cancel(handles[i]) // double cancel must be a no-op
			}
		}
		if s.Pending() != n-countTrue(cancelled) {
			return false
		}
		s.Run()
		want := 0
		for i := 0; i < n; i++ {
			if !cancelled[i] {
				want++
			}
		}
		if len(fired) != want {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.time > b.time || (a.time == b.time && a.idx > b.idx) {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestCancelledRetentionBounded is the regression test for cancelled-event
// retention: a fault-heavy run arms one timeout per chunk and cancels
// almost all of them (chunks usually complete before timing out). Before
// compaction, every cancelled timer stayed in the heap until its deadline
// reached the top — the queue grew with total scheduled events. Now the
// physical queue length must stay bounded by the live events plus the
// compaction slack, no matter how many events have been through it.
func TestCancelledRetentionBounded(t *testing.T) {
	s := New()
	const rounds = 200
	const perRound = 50
	maxQ := 0
	for r := 0; r < rounds; r++ {
		handles := make([]Handle, perRound)
		for i := range handles {
			// Far-future timeouts, like per-chunk completion timers.
			handles[i] = s.At(s.Now()+1000+float64(i), func() {})
		}
		// The chunk completes: its timer is cancelled.
		for _, h := range handles {
			s.Cancel(h)
		}
		// One real event per round keeps the clock moving.
		s.At(s.Now()+0.1, func() {})
		s.Step()
		if q := s.QueueLen(); q > maxQ {
			maxQ = q
		}
	}
	// 200*50 = 10k events were scheduled and cancelled; the bound must be
	// in the order of the compaction threshold, not the total.
	limit := 2*s.Pending() + 4*compactMin
	if maxQ > limit {
		t.Fatalf("queue grew to %d slots (pending %d, limit %d): cancelled events retained", maxQ, s.Pending(), limit)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

// Events scheduled from within callbacks (a cascading chain) must work; this
// is the pattern the engine uses everywhere.
func TestCascade(t *testing.T) {
	s := New()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			s.After(0.001, step)
		}
	}
	s.After(0, step)
	end := s.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d", depth)
	}
	if math.Abs(end-0.999) > 1e-9 {
		t.Fatalf("end = %v", end)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for j := 0; j < 1000; j++ {
			s.At(float64(j%37), func() {})
		}
		s.Run()
	}
}

// BenchmarkScheduleCancelRun measures the fault-heavy pattern: every
// event is shadowed by a far-future timer that gets cancelled.
func BenchmarkScheduleCancelRun(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for j := 0; j < 1000; j++ {
			h := s.At(float64(j%37)+1000, func() {})
			s.At(float64(j%37), func() {})
			s.Cancel(h)
		}
		s.Run()
	}
}

// PendingBy must agree with a brute-force scan over every handle at every
// firing — including inside callbacks, where the fired root is a
// replace-top hole, and after cancellations left dead slots in the heap.
// Integer times make ties frequent.
func TestPendingByMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New()
		type rec struct {
			h    Handle
			time float64
		}
		var all []rec
		ok := true
		var cb func()
		schedule := func(at float64) {
			all = append(all, rec{h: s.At(at, cb), time: at})
		}
		cb = func() {
			now := s.Now()
			if src.Float64() < 0.5 {
				schedule(now + float64(src.Intn(3)))
			}
			if len(all) > 0 && src.Float64() < 0.3 {
				s.Cancel(all[src.Intn(len(all))].h)
			}
			for _, dt := range []float64{0, 0.5, 1} {
				want := false
				for _, r := range all {
					if r.h.Scheduled() && r.time <= now+dt {
						want = true
					}
				}
				if s.PendingBy(now+dt) != want {
					ok = false
				}
			}
		}
		for i := 0; i < 1+src.Intn(200); i++ {
			schedule(float64(src.Intn(15)))
		}
		for i := range all {
			if src.Float64() < 0.3 {
				s.Cancel(all[i].h)
			}
		}
		s.Run()
		return ok && !s.PendingBy(math.Inf(1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
