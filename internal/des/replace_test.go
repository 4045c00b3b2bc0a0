package des

import "testing"

// replaceWorkload drives sim through a deterministic self-scheduling
// workload derived from seed: chain events whose actions schedule up
// to two successors (the first lands in the replace-top hole when run
// via Step) and occasionally cancel an earlier pending event. It
// returns the fired (time, id) sequence.
func replaceWorkload(sim *tsim, seed uint64, step bool) []struct {
	time float64
	id   int
} {
	type rec = struct {
		time float64
		id   int
	}
	var fired []rec
	var handles []int
	nextID := 0
	rnd := seed
	next := func(n uint64) uint64 {
		// splitmix64 step: deterministic and independent of the kernel.
		rnd += 0x9e3779b97f4a7c15
		z := rnd
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % n
	}
	var spawn func(t float64, depth int)
	spawn = func(t float64, depth int) {
		id := nextID
		nextID++
		h := sim.at(t, func() {
			fired = append(fired, rec{time: t, id: id})
			if depth > 0 {
				// First successor: fills the hole under Step.
				spawn(sim.Now()+float64(next(7)), depth-1)
				if next(3) == 0 {
					// Occasional second successor, sometimes a time tie.
					spawn(sim.Now()+float64(next(2)), depth-1)
				}
			}
			if len(handles) > 0 && next(4) == 0 {
				sim.cancel(handles[int(next(uint64(len(handles))))])
			}
		})
		handles = append(handles, h)
	}
	for i := 0; i < 40; i++ {
		spawn(float64(next(50)), 12)
	}
	if step {
		for popThenFire(sim) {
		}
	} else {
		run(sim)
	}
	return fired
}

// popThenFire is the reference path Step's replace-top hole must
// match: pop the earliest live event, then fire it, so a successor the
// action schedules is always a separate push. It reports whether an
// event fired.
func popThenFire(s *tsim) bool {
	tt, _, data, ok := s.peek()
	if !ok {
		return false
	}
	s.popTop()
	s.now = tt
	s.processed++
	s.fire(data)
	return true
}

// TestReplaceTopMatchesPopThenPush is the differential property test for
// the replace-top fast path: the same workload executed through Step
// (which fuses pop+push into a root replacement) and through repeated
// popThenFire calls (which always pop then push, never leaving a hole) must
// fire the identical (time, id) sequence. (time, seq) being a strict
// total order is what makes the two heap shapes indistinguishable from
// the outside; this pins that down.
func TestReplaceTopMatchesPopThenPush(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		run := newTsim()
		a := replaceWorkload(run, seed, false)
		if got := run.Stats(); got.Replaced == 0 {
			t.Fatalf("seed %d: Step workload never took the replace-top path (stats %+v)", seed, got)
		} else if got.Replaced > got.Pushed {
			t.Fatalf("seed %d: Replaced %d exceeds Pushed %d", seed, got.Replaced, got.Pushed)
		}
		stepSim := newTsim()
		b := replaceWorkload(stepSim, seed, true)
		if got := stepSim.Stats(); got.Replaced != 0 {
			t.Fatalf("seed %d: pop-then-fire path unexpectedly replaced %d roots", seed, got.Replaced)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: Step fired %d events, pop-then-fire %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: fire order diverges at %d: Step %+v, pop-then-fire %+v", seed, i, a[i], b[i])
			}
		}
		if run.pending() != 0 || run.QueueLen() != 0 {
			t.Fatalf("seed %d: queue not drained: pending=%d qlen=%d", seed, run.pending(), run.QueueLen())
		}
		if sa, sb := run.Stats(), stepSim.Stats(); sa.Pushed != sb.Pushed || sa.Fired != sb.Fired {
			t.Fatalf("seed %d: Step counted %+v, pop-then-fire %+v", seed, sa, sb)
		}
	}
}

// TestReplaceTopUnfilledHole checks the hole-removal path: an action
// that schedules nothing must leave the queue exactly as a pop would.
func TestReplaceTopUnfilledHole(t *testing.T) {
	s := newTsim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.at(float64(10-i), func() { order = append(order, i) })
	}
	run(s)
	if s.Stats().Replaced != 0 {
		t.Fatalf("no action scheduled, yet Replaced = %d", s.Stats().Replaced)
	}
	for k, id := range order {
		if want := 9 - k; id != want {
			t.Fatalf("order[%d] = %d, want %d", k, id, want)
		}
	}
	if s.pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("queue not drained: pending=%d qlen=%d", s.pending(), s.QueueLen())
	}
}

// TestReplaceTopHoleSurvivesCompaction forces a compaction while the
// root hole is open: the firing action cancels enough events to trigger
// Compact, which must drop the hole, and the follow-up schedule must take
// the normal append path rather than overwrite a live root.
func TestReplaceTopHoleSurvivesCompaction(t *testing.T) {
	s := newTsim()
	var handles []int
	// A large pool of cancellable fillers well after the trigger event.
	for i := 0; i < 4*compactMin; i++ {
		handles = append(handles, s.at(100+float64(i), func() {}))
	}
	fired := 0
	resumed := false
	s.at(1, func() {
		for _, h := range handles {
			s.cancel(h) // crosses the compaction threshold mid-hole
		}
		if s.rootHole {
			t.Error("compaction left the replace-top hole open")
		}
		s.after(1, func() { resumed = true })
	})
	s.at(2, func() { fired++ })
	run(s)
	if !resumed || fired != 1 {
		t.Fatalf("post-compaction scheduling broken: resumed=%v fired=%d", resumed, fired)
	}
	if st := s.Stats(); st.Replaced != 0 {
		t.Fatalf("a schedule after the compaction filled a hole: %+v", st)
	}
	if s.pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("queue not drained: pending=%d qlen=%d", s.pending(), s.QueueLen())
	}
}

// TestCompactAllStale compacts a queue whose entries are all rejected,
// with and without an open replace-top hole: the queue must come out
// empty, with no hole left, and the next At must take the append path.
func TestCompactAllStale(t *testing.T) {
	for _, hole := range []bool{false, true} {
		for _, n := range []int{1, 2, 5, 4*compactMin + 1} {
			s := New()
			for i := 0; i < n; i++ {
				s.At(float64(i), uint64(i))
			}
			if hole {
				s.Peek()
				s.Step()
			}
			s.Compact(func(uint64) bool { return false })
			if _, _, _, ok := s.Peek(); ok || s.QueueLen() != 0 || s.rootHole {
				t.Fatalf("hole=%v n=%d: compacted queue holds %d entries, hole=%v", hole, n, s.QueueLen(), s.rootHole)
			}
			now := s.Now()
			s.At(now+1, 7)
			if tt, _, data, ok := s.Peek(); !ok || tt != now+1 || data != 7 || s.QueueLen() != 1 {
				t.Fatalf("hole=%v n=%d: At after compaction: t=%g data=%d ok=%v qlen=%d", hole, n, tt, data, ok, s.QueueLen())
			}
			if st := s.Stats(); st.Replaced != 0 {
				t.Fatalf("hole=%v n=%d: At after compaction filled a hole: %+v", hole, n, st)
			}
		}
	}
}
