package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rumr/internal/rng"
)

// at and after schedule a closure through AtCall/AfterCall, so the kernel
// tests can keep writing their callbacks inline.
func at(s *Simulator, t float64, fn func()) Handle { return s.AtCall(t, callFn, fn, 0) }
func after(s *Simulator, d float64, fn func()) Handle {
	return s.AfterCall(d, callFn, fn, 0)
}
func callFn(arg any, _ int) { arg.(func())() }

func TestEventsFireInOrder(t *testing.T) {
	s := New()
	var got []float64
	at(s, 3, func() { got = append(got, 3) })
	at(s, 1, func() { got = append(got, 1) })
	at(s, 2, func() { got = append(got, 2) })
	end := run(s)
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
		at(s, 5, func() { got = append(got, i) })
	}
	run(s)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestAfterAdvancesRelative(t *testing.T) {
	s := New()
	var times []float64
	after(s, 1, func() {
		times = append(times, s.Now())
		after(s, 2, func() { times = append(times, s.Now()) })
	})
	run(s)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	at(s, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		at(s, 5, func() {})
	})
	run(s)
}

func TestNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time should panic")
		}
	}()
	at(s, math.NaN(), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	after(s, -1, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := at(s, 1, func() { fired = true })
	s.Cancel(e)
	run(s)
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
	at(s, 1, func() { s.Cancel(e) })
	e = at(s, 2, func() { fired = true })
	run(s)
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	count := 0
	e := at(s, 1, func() { count++ })
	run(s)
	if e.Scheduled() || e.Cancelled() {
		t.Fatal("handle should expire once the event fired")
	}
	// The Event struct behind e has been recycled; a second event may now
	// occupy it. Cancelling the stale handle must not touch the new event.
	f := at(s, 2, func() { count += 10 })
	s.Cancel(e)
	run(s)
	if count != 11 {
		t.Fatalf("count = %d; stale cancel hit a recycled event", count)
	}
	_ = f
}

// A caller that stops stepping between events — as the engine does once
// a callback fails — leaves the rest pending at the last fired time, and
// stepping again resumes where it stopped.
func TestStop(t *testing.T) {
	s := New()
	count := 0
	stop := false
	for i := 1; i <= 10; i++ {
		at(s, float64(i), func() {
			count++
			stop = count == 3
		})
	}
	for !stop && s.Step() {
	}
	if count != 3 || s.Pending() != 7 || s.Now() != 3 {
		t.Fatalf("count = %d, pending = %d, now = %v; want 3, 7, 3", count, s.Pending(), s.Now())
	}
	run(s)
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

// Peek reports the next event without firing it, so a driver can stop at
// a deadline and resume later.
func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		at(s, float64(i), func() { count++ })
	}
	end := runUntil(s, 5.5)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 5.5 {
		t.Fatalf("clock = %v, want 5.5", end)
	}
	run(s)
	if count != 10 {
		t.Fatalf("final count = %d", count)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	at(s, 5, func() { fired = true })
	runUntil(s, 5)
	if !fired {
		t.Fatal("event exactly at the deadline should fire")
	}
}

func TestPendingAndProcessed(t *testing.T) {
	s := New()
	e := at(s, 1, func() {})
	at(s, 2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("pending after cancel = %d", s.Pending())
	}
	run(s)
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
	run(s)
	if b.hits != 2 || b.lastAux != 42 {
		t.Fatalf("box = %+v", b)
	}
}

func TestReset(t *testing.T) {
	s := New()
	at(s, 1, func() {})
	e := at(s, 2, func() {})
	run(s)
	at(s, 5, func() { t.Fatal("event from before Reset fired") })
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
		at(s, 1, func() { got = append(got, i) })
	}
	run(s)
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
			at(s, tt, func() { fired = append(fired, tt) })
		}
		run(s)
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
			at(s, e.time, func() { fired = append(fired, e) })
		}
		ref := append([]ev(nil), events...)
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].time < ref[b].time })
		run(s)
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
			handles[i] = at(s, e.time, func() { fired = append(fired, e) })
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
		run(s)
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
			handles[i] = at(s, s.Now()+1000+float64(i), func() {})
		}
		// The chunk completes: its timer is cancelled.
		for _, h := range handles {
			s.Cancel(h)
		}
		// One real event per round keeps the clock moving.
		next := s.Now() + 0.1
		at(s, next, func() {})
		runUntil(s, next)
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
			after(s, 0.001, step)
		}
	}
	after(s, 0, step)
	end := run(s)
	if depth != 1000 {
		t.Fatalf("depth = %d", depth)
	}
	if math.Abs(end-0.999) > 1e-9 {
		t.Fatalf("end = %v", end)
	}
}

// benchSim runs body b.N times on one simulator, after one untimed run
// that grows the heap and the event free-list, so even a -benchtime=1x
// iteration measures the steady state.
func benchSim(b *testing.B, body func(s *Simulator)) {
	b.ReportAllocs()
	s := New()
	body(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		body(s)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	benchSim(b, func(s *Simulator) {
		for j := 0; j < 1000; j++ {
			at(s, float64(j%37), func() {})
		}
		run(s)
	})
}

// BenchmarkScheduleCancelRun measures the fault-heavy pattern: every
// event is shadowed by a far-future timer that gets cancelled.
func BenchmarkScheduleCancelRun(b *testing.B) {
	benchSim(b, func(s *Simulator) {
		for j := 0; j < 1000; j++ {
			h := at(s, float64(j%37)+1000, func() {})
			at(s, float64(j%37), func() {})
			s.Cancel(h)
		}
		run(s)
	})
}

// Peek must report the (time, seq) of the earliest live event, as a
// brute-force scan over every handle finds it, at every firing — including
// inside callbacks, where the fired root is a replace-top hole, and after
// cancellations left dead slots in the heap. Sequence numbers are
// insertion indices on a fresh simulator; integer times make ties
// frequent.
func TestPeekMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := New()
		type rec struct {
			h    Handle
			time float64
		}
		var all []rec
		ok := true
		check := func() {
			var wantT float64
			wantSeq, want := uint64(0), false
			for i, r := range all {
				if r.h.Scheduled() && (!want || r.time < wantT) {
					wantT, wantSeq, want = r.time, uint64(i), true
				}
			}
			gotT, gotSeq, got := s.Peek()
			if got != want || (want && (gotT != wantT || gotSeq != wantSeq)) {
				ok = false
			}
		}
		var cb func()
		schedule := func(t float64) {
			all = append(all, rec{h: at(s, t, cb), time: t})
		}
		cb = func() {
			now := s.Now()
			if src.Float64() < 0.3 {
				check() // drops the hole: the next schedule takes the append path
			}
			if src.Float64() < 0.5 {
				schedule(now + float64(src.Intn(3)))
			}
			if len(all) > 0 && src.Float64() < 0.3 {
				s.Cancel(all[src.Intn(len(all))].h)
			}
			check()
		}
		for i := 0; i < 1+src.Intn(200); i++ {
			schedule(float64(src.Intn(15)))
		}
		for i := range all {
			if src.Float64() < 0.3 {
				s.Cancel(all[i].h)
			}
		}
		check()
		run(s)
		_, _, left := s.Peek()
		return ok && !left && s.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Reserve takes its seq from the queue's counter and counts a push; Advance
// moves the clock and counts a fire. Both refuse to go back in time.
func TestReserveAndAdvance(t *testing.T) {
	s := New()
	at(s, 1, func() {})
	if seq := s.Reserve(2); seq != 1 {
		t.Fatalf("reserved seq = %d, want 1", seq)
	}
	at(s, 3, func() {})
	if _, seq, _ := s.Peek(); seq != 0 {
		t.Fatalf("root seq = %d, want 0", seq)
	}
	s.Step()
	s.Advance(2)
	if st := s.Stats(); st.Pushed != 3 || st.Fired != 2 || s.Now() != 2 || s.Pending() != 1 {
		t.Fatalf("after advance: stats %+v, now %v, pending %d", st, s.Now(), s.Pending())
	}
	for name, fn := range map[string]func(){
		"reserve in the past": func() { s.Reserve(1) },
		"reserve at NaN":      func() { s.Reserve(math.NaN()) },
		"advance backwards":   func() { s.Advance(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}
