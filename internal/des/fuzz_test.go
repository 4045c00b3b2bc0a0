package des

import (
	"sort"
	"testing"
)

// FuzzPushPopCancel drives the queue through an arbitrary interleaving of
// schedule / cancel / run-until operations decoded from the fuzz input —
// every event fires through RunUntil, the production path, with its
// replace-top hole — and checks the kernel's invariants after every
// operation:
//
//   - events fire in (time, insertion) order, exactly the uncancelled ones;
//   - Pending() equals scheduled minus fired minus cancelled;
//   - the physical queue never retains more than the live events plus the
//     compaction slack;
//   - the clock never goes backwards.
//
// Two of the schedule ops install callbacks that act when fired —
// scheduling successors (which exercises the replace-top hole fill) or
// cancelling a pseudo-random pending event (which can force a compaction
// while the hole is open). Run it as a regular test (seed corpus) or with
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
		var handles []Handle // handles[id] belongs to scheduled[id]
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
		// add schedules an event at tt. spawn > 0 makes its callback
		// schedule that many successors when fired (the first lands in
		// the replace-top hole under RunUntil); chainCancel makes the
		// callback also cancel a pseudo-random pending event mid-fire.
		var add func(tt float64, spawn int, chainCancel bool)
		add = func(tt float64, spawn int, chainCancel bool) {
			id := len(scheduled)
			e := rec{time: tt, id: id}
			scheduled = append(scheduled, e)
			cancelled = append(cancelled, false)
			handles = append(handles, at(s, tt, func() {
				fired = append(fired, e)
				for k := 0; k < spawn; k++ {
					// Successors at now+k: k=0 ties the fire time,
					// stressing the seq tie-break through the hole path.
					add(s.Now()+float64(k), 0, false)
				}
				if chainCancel && len(handles) > 0 {
					cancelPending((id*31 + 7) % len(handles))
				}
			}))
		}

		for i := 0; i < len(data); i++ {
			op := data[i] % 8
			v := float64(data[i] >> 3)
			switch {
			case op < 2: // plain schedule (most common)
				add(s.Now()+v, 0, false)
			case op == 2: // schedule an event that spawns successors
				add(s.Now()+v, 1+int(data[i]>>6), false)
			case op == 3: // schedule an event that cancels when fired
				add(s.Now()+v, 0, true)
			case op == 4 || op == 5: // cancel a pseudo-random prior handle
				if len(handles) > 0 {
					id := int(data[i]) % len(handles)
					cancelPending(id)
					s.Cancel(handles[id]) // double cancel must be a no-op
				}
			case op == 6: // fire only what is due now (time ties)
				s.RunUntil(s.Now())
			default:
				s.RunUntil(s.Now() + v)
			}
			if live := len(scheduled) - len(fired) - cancelledCount; s.Pending() != live {
				t.Fatalf("op %d: pending = %d, want %d", i, s.Pending(), live)
			}
			if s.QueueLen() > 2*s.Pending()+4*compactMin {
				t.Fatalf("op %d: queue len %d exceeds retention bound (pending %d)", i, s.QueueLen(), s.Pending())
			}
		}
		prevNow := s.Now()
		s.Run()
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
		if s.Pending() != 0 || s.QueueLen() != 0 {
			t.Fatalf("drained queue: pending=%d qlen=%d", s.Pending(), s.QueueLen())
		}
	})
}
