package sched

import (
	"math"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

func TestProblemValidate(t *testing.T) {
	good := &Problem{Platform: platform.Homogeneous(4, 1, 8, 0, 0), Total: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := []*Problem{
		{Total: 100}, // nil platform
		{Platform: platform.Homogeneous(4, 1, 8, 0, 0), Total: 0},
		{Platform: platform.Homogeneous(4, 1, 8, 0, 0), Total: 100, MinUnit: -1},
		{Platform: &platform.Platform{}, Total: 100},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestProblemDefaults(t *testing.T) {
	pr := &Problem{}
	if pr.EffectiveMinUnit() != 1 {
		t.Fatalf("default MinUnit = %v", pr.EffectiveMinUnit())
	}
	pr.MinUnit = 0.25
	if pr.EffectiveMinUnit() != 0.25 {
		t.Fatalf("MinUnit = %v", pr.EffectiveMinUnit())
	}
	if !pr.ErrorKnown() {
		t.Fatal("zero error should count as known")
	}
	pr.KnownError = -1
	if pr.ErrorKnown() {
		t.Fatal("negative error should mean unknown")
	}
}

func staticView(states []engine.WorkerState) *engine.View {
	return &engine.View{Workers: states}
}

func TestStaticInOrder(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 1}, {Worker: 1, Size: 2}, {Worker: 0, Size: 3},
	}
	s := NewStatic(plan, false)
	v := staticView(make([]engine.WorkerState, 2))
	for i, want := range plan {
		c, ok := s.Next(v)
		if !ok || c != want {
			t.Fatalf("chunk %d = %+v, %v; want %+v", i, c, ok, want)
		}
	}
	if _, ok := s.Next(v); ok {
		t.Fatal("exhausted plan still yields chunks")
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
}

func TestStaticOutOfOrderPromotes(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 1}, // head: worker 0 (busy)
		{Worker: 0, Size: 2},
		{Worker: 1, Size: 3}, // worker 1 idle -> promoted
	}
	s := NewStatic(plan, true)
	// First dispatch follows plan order (nothing started yet).
	v := staticView([]engine.WorkerState{{}, {}})
	c, _ := s.Next(v)
	if c.Worker != 0 || c.Size != 1 {
		t.Fatalf("first chunk = %+v", c)
	}
	// Now worker 0 is computing, worker 1 idle: the worker-1 chunk jumps
	// the queue.
	v = staticView([]engine.WorkerState{{Computing: true}, {}})
	c, _ = s.Next(v)
	if c.Worker != 1 || c.Size != 3 {
		t.Fatalf("promoted chunk = %+v", c)
	}
	// Remaining plan entry still delivered.
	c, _ = s.Next(v)
	if c.Worker != 0 || c.Size != 2 {
		t.Fatalf("tail chunk = %+v", c)
	}
}

func TestStaticOutOfOrderHeadIdleStaysFirst(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 1},
		{Worker: 1, Size: 2},
	}
	s := NewStatic(plan, true)
	v := staticView([]engine.WorkerState{{}, {}})
	s.Next(v) // prime: in-order
	// Both idle: head's worker idle -> no promotion.
	c, _ := s.Next(v)
	if c.Worker != 1 {
		t.Fatalf("expected in-order dispatch, got %+v", c)
	}
}

func TestStaticInOrderNeverPromotes(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 1},
		{Worker: 1, Size: 2},
	}
	s := NewStatic(plan, false)
	v := staticView([]engine.WorkerState{{Computing: true}, {}})
	c, _ := s.Next(v)
	if c.Worker != 0 {
		t.Fatalf("in-order dispatcher promoted: %+v", c)
	}
}

// staticPickScan is the out-of-order Static's pick by full scan: the first
// unsent, throttle-eligible plan entry, bypassed — once execution has
// started and its worker is busy — for the first unsent entry whose worker
// is idle. It reports -1 when Next must decline.
func staticPickScan(s *Static, v *engine.View) int {
	head := -1
	for i := range s.Plan {
		if !s.sent[i] && s.eligible(v, s.Plan[i].Worker) {
			head = i
			break
		}
	}
	if head < 0 || !s.started || v.WorkerIdle(s.Plan[head].Worker) {
		return head
	}
	for i := head + 1; i < len(s.Plan); i++ {
		if !s.sent[i] && v.WorkerIdle(s.Plan[i].Worker) {
			return i
		}
	}
	return head
}

// Property: the out-of-order Static, which skips its promotion scan when
// no worker is idle, picks exactly the entry the full scan picks, over
// random plans, throttles and views in which no worker, a few workers or
// most workers are idle. Each view is given both with an IdleMask, as the
// engine builds it, and hand-built without one.
func TestStaticOutOfOrderMatchesFullScan(t *testing.T) {
	src := rng.New(30)
	picks := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(130) // crosses IdleMask word boundaries
		plan := make([]engine.Chunk, 1+src.Intn(60))
		for i := range plan {
			plan[i] = engine.Chunk{Worker: src.Intn(n), Size: float64(i + 1)}
		}
		s := NewStatic(plan, true)
		s.MaxPending = src.Intn(3)
		useMask := trial%2 == 0
		idleP := []float64{0, 0.02, 0.5}[src.Intn(3)]
		states := make([]engine.WorkerState, n)
		for step := 0; step < 2*len(plan); step++ {
			for i := range states {
				states[i] = engine.WorkerState{}
				if src.Float64() >= idleP {
					switch src.Intn(4) {
					case 0:
						states[i].Computing = true
					case 1:
						states[i].Queued = 1 + src.Intn(2)
					case 2:
						states[i].InFlight = 1 + src.Intn(2)
					default:
						states[i].Down = true
					}
				}
			}
			v := staticView(states)
			if useMask {
				v.IdleMask = make([]uint64, (n+63)/64)
				for i := range states {
					if states[i].Idle() {
						v.IdleMask[i>>6] |= 1 << (i & 63)
					}
				}
			}
			want := staticPickScan(s, v)
			c, ok := s.Next(v)
			if ok != (want >= 0) || (ok && (c != plan[want] || !s.sent[want])) {
				t.Fatalf("trial %d step %d (mask %v): Next = %+v, %v; full scan picks %d",
					trial, step, useMask, c, ok, want)
			}
			if ok {
				picks++
			}
		}
	}
	if picks == 0 {
		t.Fatal("no trial dispatched a chunk")
	}
}

// doubler halves nothing: returns remaining/2 for testing Demand.
type halver struct{}

func (halver) NextSize(_ int, remaining float64) float64 { return remaining / 2 }
func (halver) Reset()                                    {}

func TestDemandServesIdleOnly(t *testing.T) {
	d := NewDemand(100, halver{}, 1, 2)
	busy := staticView([]engine.WorkerState{{Computing: true}, {InFlight: 1}})
	if _, ok := d.Next(busy); ok {
		t.Fatal("dispatched to a busy worker")
	}
	idle := staticView([]engine.WorkerState{{Computing: true}, {}})
	c, ok := d.Next(idle)
	if !ok || c.Worker != 1 || c.Size != 50 {
		t.Fatalf("chunk = %+v, %v", c, ok)
	}
	if c.Phase != 2 {
		t.Fatalf("phase tag = %d", c.Phase)
	}
}

func TestDemandConservesAndFloors(t *testing.T) {
	d := NewDemand(100, halver{}, 10, 0)
	v := staticView([]engine.WorkerState{{}})
	sum := 0.0
	for i := 0; i < 1000; i++ {
		c, ok := d.Next(v)
		if !ok {
			break
		}
		if c.Size < 10 && d.Remaining() > 0 {
			t.Fatalf("chunk %v below floor with %v remaining", c.Size, d.Remaining())
		}
		sum += c.Size
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("dispatched %v, want 100", sum)
	}
}

func TestDemandAbsorbsCrumb(t *testing.T) {
	// 100 with floor 30: 50, 30, then remaining 20 < 30 -> absorbed? No:
	// 20 >= 30/2, so it is sent as a final (clamped) chunk of 20.
	d := NewDemand(100, halver{}, 30, 0)
	v := staticView([]engine.WorkerState{{}})
	var sizes []float64
	for {
		c, ok := d.Next(v)
		if !ok {
			break
		}
		sizes = append(sizes, c.Size)
	}
	want := []float64{50, 30, 20}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if math.Abs(sizes[i]-want[i]) > 1e-9 {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestDemandRoundTags(t *testing.T) {
	d := NewDemand(40, halver{}, 10, 0)
	v := staticView([]engine.WorkerState{{}})
	for i := 0; ; i++ {
		c, ok := d.Next(v)
		if !ok {
			break
		}
		if c.Round != i {
			t.Fatalf("round tag = %d, want %d", c.Round, i)
		}
	}
}

func TestStaticMaxPendingThrottles(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 1}, {Worker: 0, Size: 2}, {Worker: 0, Size: 3},
		{Worker: 1, Size: 4},
	}
	s := NewStatic(plan, false)
	s.MaxPending = 2
	// Worker 0 already has 2 pending: its chunks are held back, worker
	// 1's chunk is dispatched instead.
	v := staticView([]engine.WorkerState{{Queued: 1, InFlight: 1}, {}})
	c, ok := s.Next(v)
	if !ok || c.Worker != 1 {
		t.Fatalf("chunk = %+v, %v; want worker 1", c, ok)
	}
	// Everybody saturated: nothing to send even though the plan has work.
	v = staticView([]engine.WorkerState{{Queued: 2}, {InFlight: 2}})
	if _, ok := s.Next(v); ok {
		t.Fatal("dispatched to a saturated worker")
	}
	if s.Remaining() != 3 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	// Capacity back: plan resumes in order.
	v = staticView([]engine.WorkerState{{Computing: true}, {}})
	c, ok = s.Next(v)
	if !ok || c.Worker != 0 || c.Size != 1 {
		t.Fatalf("chunk = %+v, %v", c, ok)
	}
}

func TestStaticMaxPendingZeroIsUnlimited(t *testing.T) {
	plan := []engine.Chunk{{Worker: 0, Size: 1}, {Worker: 0, Size: 2}}
	s := NewStatic(plan, false)
	v := staticView([]engine.WorkerState{{Queued: 99, InFlight: 99}})
	for i := 0; i < 2; i++ {
		if _, ok := s.Next(v); !ok {
			t.Fatal("unlimited dispatcher held a chunk back")
		}
	}
}

func TestRemainingWork(t *testing.T) {
	plan := []engine.Chunk{{Worker: 0, Size: 1.5}, {Worker: 0, Size: 2.5}}
	s := NewStatic(plan, false)
	if s.RemainingWork() != 4 {
		t.Fatalf("remaining work = %v", s.RemainingWork())
	}
	v := staticView([]engine.WorkerState{{}})
	s.Next(v)
	if s.RemainingWork() != 2.5 {
		t.Fatalf("after one dispatch = %v", s.RemainingWork())
	}
}

// weightedTestSizer doubles chunk size for worker 1.
type weightedTestSizer struct{}

func (weightedTestSizer) Reset() {}
func (weightedTestSizer) NextSize(worker int, remaining float64) float64 {
	if worker == 1 {
		return remaining / 5
	}
	return remaining / 10
}

// TestDemandSizesForIdleWorker checks that Demand asks its sizer for the
// idle worker it dispatches to.
func TestDemandSizesForIdleWorker(t *testing.T) {
	d := NewDemand(100, weightedTestSizer{}, 1, 0)
	// Worker 1 idle: the weighted path yields remaining/5.
	v := staticView([]engine.WorkerState{{Computing: true}, {}})
	c, ok := d.Next(v)
	if !ok || c.Worker != 1 || math.Abs(c.Size-20) > 1e-12 {
		t.Fatalf("chunk = %+v, %v; want 20 for worker 1", c, ok)
	}
	// Worker 0 idle: remaining/10 of the new remaining (80).
	v = staticView([]engine.WorkerState{{}, {Computing: true}})
	c, ok = d.Next(v)
	if !ok || c.Worker != 0 || math.Abs(c.Size-8) > 1e-12 {
		t.Fatalf("chunk = %+v, %v; want 8 for worker 0", c, ok)
	}
}
