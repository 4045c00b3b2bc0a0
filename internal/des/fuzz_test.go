package des

import (
	"math"
	"sort"
	"testing"
)

// FuzzPushPopCancel drives the kernel through an arbitrary interleaving of
// schedule / reserve / cancel / run-until operations decoded from the fuzz
// input. Events fire through the engine's loop (runMerged): queued ones
// through Step, with its replace-top hole, reserved ones through Advance
// when they precede the live root by (time, seq). After every operation
// it checks the kernel's invariants:
//
//   - events fire in (time, insertion) order, exactly the uncancelled ones,
//     reserved and queued alike — the merge matches a sorted reference;
//   - Pending() plus the reserved entries equals scheduled minus fired
//     minus cancelled;
//   - the physical queue never retains more than the live events plus the
//     compaction slack;
//   - a deadline fires everything due by it and nothing later, and the
//     clock never goes backwards.
//
// Two of the schedule ops install callbacks that act when fired —
// scheduling successors, queued and reserved in turn (the first queued one
// fills the replace-top hole), or cancelling a pseudo-random pending event
// (which can force a compaction while the hole is open). Run it as a
// regular test (seed corpus) or with
// `go test -fuzz=FuzzPushPopCancel ./internal/des/`.
func FuzzPushPopCancel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{10, 200, 10, 201, 10, 202, 50, 51, 52})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 128})
	f.Add([]byte{2, 66, 130, 194, 2, 66, 7, 3, 67, 131, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		type rec struct {
			time float64
			id   int
		}
		var fired []rec
		var port []reserved  // reserved entries not yet fired
		var handles []Handle // handles[id] belongs to scheduled[id]; zero when reserved
		var scheduled []rec  // by id
		var cancelled []bool // by id
		cancelledCount := 0

		// cancelPending marks + cancels handles[id] if still pending.
		cancelPending := func(id int) {
			if handles[id].Scheduled() {
				cancelled[id] = true
				cancelledCount++
			}
			s.Cancel(handles[id])
		}
		// add schedules an event at tt, or reserves it outside the queue
		// when outside is set (a reserved entry cannot be cancelled). spawn
		// > 0 makes its callback schedule that many successors when fired,
		// queued and reserved in turn (the first lands in the replace-top
		// hole under Step); chainCancel makes the callback also cancel a
		// pseudo-random pending event mid-fire.
		var add func(tt float64, spawn int, chainCancel, outside bool)
		add = func(tt float64, spawn int, chainCancel, outside bool) {
			id := len(scheduled)
			e := rec{time: tt, id: id}
			scheduled = append(scheduled, e)
			cancelled = append(cancelled, false)
			fn := func() {
				if s.Now() != e.time {
					t.Fatalf("event %+v fired at %v", e, s.Now())
				}
				fired = append(fired, e)
				for k := 0; k < spawn; k++ {
					// Successors at now+k: k=0 ties the fire time,
					// stressing the seq tie-break through the hole path.
					add(s.Now()+float64(k), 0, false, k%2 == 1)
				}
				if chainCancel && len(handles) > 0 {
					cancelPending((id*31 + 7) % len(handles))
				}
			}
			if outside {
				handles = append(handles, Handle{})
				reserve(s, &port, tt, fn)
				return
			}
			handles = append(handles, at(s, tt, fn))
		}
		// due reports whether an uncancelled, unfired event is due by t.
		due := func(t float64) bool {
			for _, e := range port {
				if e.time <= t {
					return true
				}
			}
			tt, _, ok := s.Peek()
			return ok && tt <= t
		}

		for i := 0; i < len(data); i++ {
			op := data[i] % 8
			v := float64(data[i] >> 3)
			switch {
			case op == 0: // plain schedule
				add(s.Now()+v, 0, false, false)
			case op == 1: // reserve outside the queue
				add(s.Now()+v, 0, false, true)
			case op == 2: // schedule an event that spawns successors
				add(s.Now()+v, 1+int(data[i]>>6), false, false)
			case op == 3: // schedule an event that cancels when fired
				add(s.Now()+v, 0, true, false)
			case op == 4 || op == 5: // cancel a pseudo-random prior handle
				if len(handles) > 0 {
					id := int(data[i]) % len(handles)
					cancelPending(id)
					s.Cancel(handles[id]) // double cancel must be a no-op
				}
			case op == 6: // fire only what is due now (time ties)
				if now := runMerged(s, s.Now(), &port); due(now) {
					t.Fatalf("op %d: an event due by %v is still pending", i, now)
				}
			default:
				deadline := s.Now() + v
				if now := runMerged(s, deadline, &port); due(now) || (now != deadline && s.Pending()+len(port) > 0) {
					t.Fatalf("op %d: run to %v stopped at %v with events due", i, deadline, now)
				}
			}
			if live := len(scheduled) - len(fired) - cancelledCount; s.Pending()+len(port) != live {
				t.Fatalf("op %d: pending = %d + %d reserved, want %d", i, s.Pending(), len(port), live)
			}
			if s.QueueLen() > 2*s.Pending()+4*compactMin {
				t.Fatalf("op %d: queue len %d exceeds retention bound (pending %d)", i, s.QueueLen(), s.Pending())
			}
		}
		prevNow := s.Now()
		runMerged(s, math.Inf(1), &port)
		if s.Now() < prevNow {
			t.Fatalf("clock went backwards: %v -> %v", prevNow, s.Now())
		}
		if st := s.Stats(); st.Replaced > st.Pushed {
			t.Fatalf("Replaced %d exceeds Pushed %d", st.Replaced, st.Pushed)
		}
		// Everything uncancelled fired, in (time, insertion id) order.
		// scheduled is in insertion order (successors included, appended
		// when their parent fired), so a stable sort by time alone yields
		// the expected total order.
		var want []rec
		for id, e := range scheduled {
			if !cancelled[id] {
				want = append(want, e)
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("fired %d of %d uncancelled events", len(fired), len(want))
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].time < want[b].time })
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fire order[%d] = %+v, want %+v", i, fired[i], want[i])
			}
		}
		if s.Pending() != 0 || s.QueueLen() != 0 || len(port) != 0 {
			t.Fatalf("drained queue: pending=%d qlen=%d reserved=%d", s.Pending(), s.QueueLen(), len(port))
		}
	})
}
