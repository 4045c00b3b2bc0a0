package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rumr/internal/rng"
)

func TestEventsFireInOrder(t *testing.T) {
	s := newTsim()
	var got []float64
	s.at(3, func() { got = append(got, 3) })
	s.at(1, func() { got = append(got, 1) })
	s.at(2, func() { got = append(got, 2) })
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
	s := newTsim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.at(5, func() { got = append(got, i) })
	}
	run(s)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestAfterAdvancesRelative(t *testing.T) {
	s := newTsim()
	var times []float64
	s.after(1, func() {
		times = append(times, s.Now())
		s.after(2, func() { times = append(times, s.Now()) })
	})
	run(s)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := newTsim()
	s.at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.at(5, func() {})
	})
	run(s)
}

func TestNaNPanics(t *testing.T) {
	s := newTsim()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time should panic")
		}
	}()
	s.at(math.NaN(), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	s.After(-1, 0)
}

func TestCancel(t *testing.T) {
	s := newTsim()
	fired := false
	e := s.at(1, func() { fired = true })
	s.cancel(e)
	run(s)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.QueueLen() != 0 || s.Processed() != 0 {
		t.Fatalf("dropped entry left qlen=%d, processed=%d", s.QueueLen(), s.Processed())
	}
	s.cancel(e) // a second cancel is a no-op
}

func TestCancelDuringRun(t *testing.T) {
	s := newTsim()
	fired := false
	var e int
	s.at(1, func() { s.cancel(e) })
	e = s.at(2, func() { fired = true })
	run(s)
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := newTsim()
	count := 0
	e := s.at(1, func() { count++ })
	run(s)
	// A second entry is queued; cancelling the fired one must not mark
	// anything stale.
	s.at(2, func() { count += 10 })
	s.cancel(e)
	run(s)
	if count != 11 || s.stale != 0 {
		t.Fatalf("count = %d, stale = %d; cancel after fire was not a no-op", count, s.stale)
	}
}

// A caller that stops stepping between events — as the engine does once
// an event fails the run — leaves the rest pending at the last fired time, and
// stepping again resumes where it stopped.
func TestStop(t *testing.T) {
	s := newTsim()
	count := 0
	stop := false
	for i := 1; i <= 10; i++ {
		s.at(float64(i), func() {
			count++
			stop = count == 3
		})
	}
	for !stop && s.step() {
	}
	if count != 3 || s.pending() != 7 || s.Now() != 3 {
		t.Fatalf("count = %d, pending = %d, now = %v; want 3, 7, 3", count, s.pending(), s.Now())
	}
	run(s)
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

// Peek reports the next event without firing it, so a driver can stop at
// a deadline and resume later.
func TestRunUntil(t *testing.T) {
	s := newTsim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.at(float64(i), func() { count++ })
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
	s := newTsim()
	fired := false
	s.at(5, func() { fired = true })
	runUntil(s, 5)
	if !fired {
		t.Fatal("event exactly at the deadline should fire")
	}
}

func TestPendingAndProcessed(t *testing.T) {
	s := newTsim()
	e := s.at(1, func() {})
	s.at(2, func() {})
	if s.pending() != 2 {
		t.Fatalf("pending = %d", s.pending())
	}
	s.cancel(e)
	if s.pending() != 1 {
		t.Fatalf("pending after cancel = %d", s.pending())
	}
	run(s)
	// The dropped entry is not counted as fired.
	if s.Processed() != 1 {
		t.Fatalf("processed = %d", s.Processed())
	}
	if s.pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("after run: pending = %d, qlen = %d", s.pending(), s.QueueLen())
	}
}

// Peek and Step hand back each entry's payload bit for bit, at its time.
func TestAtPassesPayload(t *testing.T) {
	s := New()
	s.At(1, 7)
	s.After(2, 42)
	s.At(1.5, ^uint64(0))
	want := []struct {
		time float64
		data uint64
	}{{1, 7}, {1.5, ^uint64(0)}, {2, 42}}
	for i, w := range want {
		tt, _, data, ok := s.Peek()
		if !ok || tt != w.time || data != w.data {
			t.Fatalf("peek %d = %v, %d, %v; want %v, %d", i, tt, data, ok, w.time, w.data)
		}
		if got := s.Step(); got != w.data || s.Now() != w.time {
			t.Fatalf("step %d = %d at %v; want %d at %v", i, got, s.Now(), w.data, w.time)
		}
		s.Settle()
	}
	if _, _, _, ok := s.Peek(); ok {
		t.Fatal("queue not drained")
	}
}

func TestReset(t *testing.T) {
	s := newTsim()
	s.at(1, func() {})
	e := s.at(2, func() {})
	run(s)
	s.at(5, func() { t.Fatal("event from before Reset fired") })
	s.cancel(e)
	s.Peek()
	s.Step() // leaves a replace-top hole open across the reset
	s.Reset()
	if s.Now() != 0 || s.QueueLen() != 0 || s.Processed() != 0 || s.Stats() != (Stats{}) || s.rootHole {
		t.Fatalf("reset state: now=%v qlen=%d processed=%d stats=%+v hole=%v",
			s.Now(), s.QueueLen(), s.Processed(), s.Stats(), s.rootHole)
	}
	// After a reset the simulator behaves exactly like a fresh one,
	// including the tie-break sequence numbering.
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.at(1, func() { got = append(got, i) })
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
		s := newTsim()
		n := 1 + src.Intn(200)
		var fired []float64
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			times[i] = src.Uniform(0, 100)
			tt := times[i]
			s.at(tt, func() { fired = append(fired, tt) })
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
		s := newTsim()
		n := 1 + src.Intn(300)
		events := make([]ev, n)
		var fired []ev
		for i := 0; i < n; i++ {
			// Coarse times force plenty of exact ties.
			events[i] = ev{time: float64(src.Intn(10)), idx: i}
			e := events[i]
			s.at(e.time, func() { fired = append(fired, e) })
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
		s := newTsim()
		n := 1 + src.Intn(300)
		handles := make([]int, n)
		var fired []ev
		for i := 0; i < n; i++ {
			e := ev{time: float64(src.Intn(20)), idx: i}
			handles[i] = s.at(e.time, func() { fired = append(fired, e) })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if src.Float64() < 0.5 {
				cancelled[i] = true
				s.cancel(handles[i])
				s.cancel(handles[i]) // double cancel must be a no-op
			}
		}
		if s.pending() != n-countTrue(cancelled) {
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
		return s.pending() == 0
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

// Events scheduled from within actions (a cascading chain) must work; this
// is the pattern the engine uses everywhere.
func TestCascade(t *testing.T) {
	s := newTsim()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			s.after(0.001, step)
		}
	}
	s.after(0, step)
	end := run(s)
	if depth != 1000 {
		t.Fatalf("depth = %d", depth)
	}
	if math.Abs(end-0.999) > 1e-9 {
		t.Fatalf("end = %v", end)
	}
}

// benchSim runs body b.N times on one simulator, after one untimed run
// that grows the heap, so even a -benchtime=1x iteration measures the
// steady state.
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

// BenchmarkPushStep measures the bare kernel loop: 1,000 entries queued,
// then peeked and stepped until the queue drains.
func BenchmarkPushStep(b *testing.B) {
	benchSim(b, func(s *Simulator) {
		for j := 0; j < 1000; j++ {
			s.At(float64(j%37), uint64(j))
		}
		for _, _, _, ok := s.Peek(); ok; _, _, _, ok = s.Peek() {
			s.Step()
			s.Settle()
		}
	})
}

// BenchmarkPushDropStep measures the fault-heavy pattern: every entry is
// shadowed by a far-future timer (odd payload) that its caller disarms
// at once, so timers are dropped at the root or compacted away under the
// engine's rule.
func BenchmarkPushDropStep(b *testing.B) {
	live := func(data uint64) bool { return data&1 == 0 }
	benchSim(b, func(s *Simulator) {
		stale := 0
		for j := 0; j < 1000; j++ {
			s.At(float64(j%37)+1000, 1)
			s.At(float64(j%37), 0)
			if stale++; stale > compactMin && stale > s.QueueLen()/2 {
				s.Compact(live)
				stale = 0
			}
		}
		for _, _, data, ok := s.Peek(); ok; _, _, data, ok = s.Peek() {
			if data&1 == 1 {
				s.Drop()
			} else {
				s.Step()
				s.Settle()
			}
		}
	})
}

// Peek must report the (time, seq) of the earliest live entry, as a
// brute-force scan over every queued entry finds it, at every firing —
// including inside actions, where the fired root is a replace-top hole,
// and after cancellations left stale entries in the heap. Sequence
// numbers are insertion indices (the ids) on a fresh simulator; integer
// times make ties frequent.
func TestPeekMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		s := newTsim()
		var times []float64 // by id
		ok := true
		check := func() {
			var wantT float64
			wantSeq, want := uint64(0), false
			for id, tt := range times {
				if s.state[id] == queued && (!want || tt < wantT) {
					wantT, wantSeq, want = tt, uint64(id), true
				}
			}
			gotT, gotSeq, _, got := s.peek()
			if got != want || (want && (gotT != wantT || gotSeq != wantSeq)) {
				ok = false
			}
		}
		var cb func()
		schedule := func(t float64) {
			times = append(times, t)
			s.at(t, cb)
		}
		cb = func() {
			now := s.Now()
			if src.Float64() < 0.3 {
				check() // drops the hole: the next schedule takes the append path
			}
			if src.Float64() < 0.5 {
				schedule(now + float64(src.Intn(3)))
			}
			if len(times) > 0 && src.Float64() < 0.3 {
				s.cancel(src.Intn(len(times)))
			}
			check()
		}
		for i := 0; i < 1+src.Intn(200); i++ {
			schedule(float64(src.Intn(15)))
		}
		for id := range times {
			if src.Float64() < 0.3 {
				s.cancel(id)
			}
		}
		check()
		run(s)
		_, _, _, left := s.peek()
		return ok && !left && s.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Reserve takes its seq from the queue's counter and counts a push; Advance
// moves the clock and counts a fire. Both refuse to go back in time.
func TestReserveAndAdvance(t *testing.T) {
	s := newTsim()
	s.at(1, func() {})
	if seq := s.Reserve(2); seq != 1 {
		t.Fatalf("reserved seq = %d, want 1", seq)
	}
	s.at(3, func() {})
	if _, seq, _, _ := s.Peek(); seq != 0 {
		t.Fatalf("root seq = %d, want 0", seq)
	}
	s.step()
	s.Advance(2)
	if st := s.Stats(); st.Pushed != 3 || st.Fired != 2 || s.Now() != 2 || s.pending() != 1 {
		t.Fatalf("after advance: stats %+v, now %v, pending %d", st, s.Now(), s.pending())
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
