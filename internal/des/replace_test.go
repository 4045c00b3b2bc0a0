package des

import "testing"

// replaceWorkload drives sim through a deterministic self-scheduling
// workload derived from seed: chain events whose callbacks schedule up
// to two successors (the first lands in the replace-top hole when run
// via Step) and occasionally cancel an earlier pending event. It
// returns the fired (time, id) sequence.
func replaceWorkload(sim *Simulator, seed uint64, step bool) []struct {
	time float64
	id   int
} {
	type rec = struct {
		time float64
		id   int
	}
	var fired []rec
	var handles []Handle
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
		h := at(sim, t, func() {
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
				sim.Cancel(handles[int(next(uint64(len(handles))))])
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
// callback schedules is always a separate push. It reports whether an
// event fired.
func popThenFire(s *Simulator) bool {
	for len(s.q) > 0 {
		top := s.q[0]
		s.popTop()
		if top.ev.cancelled {
			s.dead--
			s.recycle(top.ev)
			continue
		}
		s.live--
		s.now = top.time
		s.fire(top.ev)
		return true
	}
	return false
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
		run := New()
		a := replaceWorkload(run, seed, false)
		if got := run.Stats(); got.Replaced == 0 {
			t.Fatalf("seed %d: Step workload never took the replace-top path (stats %+v)", seed, got)
		} else if got.Replaced > got.Pushed {
			t.Fatalf("seed %d: Replaced %d exceeds Pushed %d", seed, got.Replaced, got.Pushed)
		}
		stepSim := New()
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
		if run.Pending() != 0 || run.QueueLen() != 0 {
			t.Fatalf("seed %d: queue not drained: pending=%d qlen=%d", seed, run.Pending(), run.QueueLen())
		}
	}
}

// TestReplaceTopUnfilledHole checks the hole-removal path: a callback
// that schedules nothing must leave the queue exactly as a pop would.
func TestReplaceTopUnfilledHole(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(s, float64(10-i), func() { order = append(order, i) })
	}
	run(s)
	if s.Stats().Replaced != 0 {
		t.Fatalf("no callback scheduled, yet Replaced = %d", s.Stats().Replaced)
	}
	for k, id := range order {
		if want := 9 - k; id != want {
			t.Fatalf("order[%d] = %d, want %d", k, id, want)
		}
	}
	if s.Pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("queue not drained: pending=%d qlen=%d", s.Pending(), s.QueueLen())
	}
}

// TestReplaceTopHoleSurvivesCompaction forces a compaction while the
// root hole is open: the firing callback cancels enough events to
// trigger compact(), which must drop the hole without recycling a nil
// event, and the follow-up schedule must take the normal append path.
func TestReplaceTopHoleSurvivesCompaction(t *testing.T) {
	s := New()
	var handles []Handle
	// A large pool of cancellable fillers well after the trigger event.
	for i := 0; i < 4*compactMin; i++ {
		handles = append(handles, at(s, 100+float64(i), func() {}))
	}
	fired := 0
	resumed := false
	at(s, 1, func() {
		for _, h := range handles {
			s.Cancel(h) // crosses the compaction threshold mid-hole
		}
		after(s, 1, func() { resumed = true })
	})
	at(s, 2, func() { fired++ })
	run(s)
	if !resumed || fired != 1 {
		t.Fatalf("post-compaction scheduling broken: resumed=%v fired=%d", resumed, fired)
	}
	if s.Pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("queue not drained: pending=%d qlen=%d", s.Pending(), s.QueueLen())
	}
}
