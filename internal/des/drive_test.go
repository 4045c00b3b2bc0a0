package des

import "math"

// reserved is a test stand-in for an event a caller keeps outside the
// queue (the engine's pending send ends): its time, the seq Reserve
// returned, and the action to run once Advance has moved the clock.
type reserved struct {
	time float64
	seq  uint64
	fn   func()
}

// reserve takes a seq for fn at t and appends the entry to out.
func reserve(s *Simulator, out *[]reserved, t float64, fn func()) {
	*out = append(*out, reserved{time: t, seq: s.Reserve(t), fn: fn})
}

// run fires every pending event in order and returns the final clock.
func run(s *Simulator) float64 { return runUntil(s, math.Inf(1)) }

// runUntil fires the queued events due by deadline, then moves the clock
// to deadline when events remain — or leaves it at the last fired event
// when the queue drains first. It returns the final clock.
func runUntil(s *Simulator, deadline float64) float64 {
	return runMerged(s, deadline, nil)
}

// runMerged is runUntil over the queue and the reserved entries in out:
// each step fires whichever comes first by (time, seq), the live root
// through Step or the earliest reserved entry through Advance — the loop
// the engine runs over the DES root and its port.
func runMerged(s *Simulator, deadline float64, out *[]reserved) float64 {
	for {
		t, seq, ok := s.Peek()
		next := -1
		if out != nil {
			for i, e := range *out {
				if !ok || e.time < t || (e.time == t && e.seq < seq) {
					next, t, seq, ok = i, e.time, e.seq, true
				}
			}
		}
		if !ok {
			return s.now
		}
		if t > deadline {
			s.now = deadline
			return s.now
		}
		if next < 0 {
			s.Step()
			continue
		}
		e := (*out)[next]
		*out = append((*out)[:next], (*out)[next+1:]...)
		s.Advance(e.time)
		e.fn()
	}
}
