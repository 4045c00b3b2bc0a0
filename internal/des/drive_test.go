package des

import "math"

// compactMin mirrors the engine's compaction threshold: tsim compacts once
// more than compactMin entries are stale and they are more than half the
// queue.
const compactMin = 64

// Entry states in tsim.
const (
	queued uint8 = iota
	done
	cancelled
)

// tsim drives a Simulator the way the engine does, with test-side
// actions: an entry's payload is an index into fns. Cancelling marks an
// entry stale in tsim's own state; stale entries are dropped when they
// reach the root, or all removed by Compact once they pile up — the
// engine's disarm rule.
type tsim struct {
	*Simulator
	fns   []func()
	state []uint8
	stale int
}

func newTsim() *tsim { return &tsim{Simulator: New()} }

// add registers fn and returns its id, the payload its entry carries.
func (d *tsim) add(fn func()) uint64 {
	d.fns = append(d.fns, fn)
	d.state = append(d.state, queued)
	return uint64(len(d.fns) - 1)
}

// at and after queue fn and return its id.
func (d *tsim) at(t float64, fn func()) int {
	id := d.add(fn)
	d.At(t, id)
	return int(id)
}

func (d *tsim) after(dt float64, fn func()) int {
	id := d.add(fn)
	d.After(dt, id)
	return int(id)
}

// cancel marks a queued entry stale; cancelling a fired or cancelled one
// is a no-op.
func (d *tsim) cancel(id int) {
	if d.state[id] != queued {
		return
	}
	d.state[id] = cancelled
	d.stale++
	if d.stale > compactMin && d.stale > d.QueueLen()/2 {
		d.Compact(d.live)
		d.stale = 0
	}
}

func (d *tsim) live(data uint64) bool { return d.state[data] == queued }

// pending counts the queued entries not cancelled.
func (d *tsim) pending() int {
	n := 0
	for _, st := range d.state {
		if st == queued {
			n++
		}
	}
	return n
}

// peek settles an open step, then reports the live root, dropping the
// stale entries above it.
func (d *tsim) peek() (t float64, seq, data uint64, ok bool) {
	d.Settle()
	t, seq, data, ok = d.Peek()
	for ok && d.stale > 0 && !d.live(data) {
		d.Drop()
		d.stale--
		t, seq, data, ok = d.Peek()
	}
	return t, seq, data, ok
}

// step fires the live root and reports whether there was one.
func (d *tsim) step() bool {
	_, _, _, ok := d.peek()
	if !ok {
		return false
	}
	d.fire(d.Step())
	return true
}

func (d *tsim) fire(data uint64) {
	d.state[data] = done
	d.fns[data]()
}

// reserved is a test stand-in for an event a caller keeps outside the
// queue (the engine's pending send ends): its time, the seq Reserve
// returned, and the action to run once Advance has moved the clock.
type reserved struct {
	time float64
	seq  uint64
	fn   func()
}

// reserve takes a seq for fn at t and appends the entry to out.
func (d *tsim) reserve(out *[]reserved, t float64, fn func()) {
	*out = append(*out, reserved{time: t, seq: d.Reserve(t), fn: fn})
}

// run fires every pending event in order and returns the final clock.
func run(d *tsim) float64 { return runUntil(d, math.Inf(1)) }

// runUntil fires the queued events due by deadline, then moves the clock
// to deadline when events remain — or leaves it at the last fired event
// when the queue drains first. It returns the final clock.
func runUntil(d *tsim, deadline float64) float64 {
	return runMerged(d, deadline, nil)
}

// runMerged is runUntil over the queue and the reserved entries in out:
// each step fires whichever comes first by (time, seq), the live root
// through Step or the earliest reserved entry through Advance — the loop
// the engine runs over the DES root and its port.
func runMerged(d *tsim, deadline float64, out *[]reserved) float64 {
	for {
		t, seq, data, ok := d.peek()
		next := -1
		if out != nil {
			for i, e := range *out {
				if !ok || e.time < t || (e.time == t && e.seq < seq) {
					next, t, seq, ok = i, e.time, e.seq, true
				}
			}
		}
		if !ok {
			return d.now
		}
		if t > deadline {
			d.now = deadline
			return d.now
		}
		if next < 0 {
			d.Step()
			d.fire(data)
			continue
		}
		e := (*out)[next]
		*out = append((*out)[:next], (*out)[next+1:]...)
		d.Advance(e.time)
		e.fn()
	}
}
