package factoring

import (
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

func TestSizerHalvesPerBatch(t *testing.T) {
	s := NewSizer(4)
	// First batch: 100/(2*4) = 12.5 for 4 allocations.
	for i := 0; i < 4; i++ {
		if got := s.NextSize(0, 100-12.5*float64(i)); got != 12.5 {
			t.Fatalf("allocation %d size = %v, want 12.5", i, got)
		}
	}
	// Second batch: remaining 50 -> 50/8 = 6.25.
	if got := s.NextSize(0, 50); got != 6.25 {
		t.Fatalf("second batch size = %v, want 6.25", got)
	}
}

func TestMinChunkKnownError(t *testing.T) {
	p := platform.Homogeneous(10, 1, 15, 0.3, 0.2)
	// overhead = 0.3 + 0.2*10 = 2.3 s; err = 0.2 -> 11.5 s -> 11.5 units.
	if got := MinChunk(p, 0.2, 1); math.Abs(got-11.5) > 1e-12 {
		t.Fatalf("min chunk = %v, want 11.5", got)
	}
}

func TestMinChunkUnknownError(t *testing.T) {
	p := platform.Homogeneous(10, 1, 15, 0.3, 0.2)
	if got := MinChunk(p, -1, 1); math.Abs(got-2.3) > 1e-12 {
		t.Fatalf("min chunk = %v, want 2.3", got)
	}
}

func TestMinChunkFloorsAtUnit(t *testing.T) {
	p := platform.Homogeneous(10, 1, 15, 0, 0)
	if got := MinChunk(p, -1, 1); got != 1 {
		t.Fatalf("zero-latency min chunk = %v, want the unit floor 1", got)
	}
}

func TestMinChunkSpeedConversion(t *testing.T) {
	// With S=2 the same seconds of overhead is twice the workload units.
	p := platform.Homogeneous(10, 2, 30, 0.3, 0.2)
	if got := MinChunk(p, -1, 1); math.Abs(got-4.6) > 1e-12 {
		t.Fatalf("min chunk = %v, want 4.6", got)
	}
}

func TestSchedulerDecreasingChunks(t *testing.T) {
	pr := &sched.Problem{
		Platform:   platform.Homogeneous(5, 1, 10, 0.1, 0.1),
		Total:      1000,
		KnownError: 0.3,
		MinUnit:    1,
	}
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
	if err := res.Trace.Validate(pr.Platform, 1000); err != nil {
		t.Fatal(err)
	}
	// Sizes must be non-increasing over dispatch order (up to the clamped
	// final chunk).
	recs := res.Trace.Records
	for i := 1; i < len(recs)-1; i++ {
		if recs[i].Size > recs[i-1].Size+1e-9 {
			t.Fatalf("chunk %d grew: %v after %v", i, recs[i].Size, recs[i-1].Size)
		}
	}
}

func TestZeroLatencyTerminates(t *testing.T) {
	pr := &sched.Problem{
		Platform:   platform.Homogeneous(10, 1, 15, 0, 0),
		Total:      1000,
		KnownError: 0.4,
		MinUnit:    1,
	}
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
	if res.Chunks > 1100 {
		t.Fatalf("%d chunks for a 1000-unit workload", res.Chunks)
	}
}

// Property: under any error magnitude the dispatcher conserves work and
// the trace validates.
func TestConservationUnderErrors(t *testing.T) {
	f := func(seed uint64, errByte uint8) bool {
		src := rng.New(seed)
		errMag := float64(errByte) / 255 * 0.5
		n := 2 + src.Intn(20)
		p := platform.Homogeneous(n, 1, float64(n)*src.Uniform(1.2, 2), src.Uniform(0, 1), src.Uniform(0, 1))
		pr := &sched.Problem{Platform: p, Total: 1000, KnownError: errMag, MinUnit: 1}
		d, err := Scheduler{}.NewDispatcher(pr)
		if err != nil {
			return false
		}
		opts := engine.Options{
			CommModel:   perferr.NewTruncNormal(errMag, src.Split()),
			CompModel:   perferr.NewTruncNormal(errMag, src.Split()),
			RecordTrace: true,
		}
		res, err := engine.Run(p, d, opts)
		if err != nil {
			return false
		}
		if math.Abs(res.DispatchedWork-1000) > 1e-6 {
			return false
		}
		return res.Trace.Validate(p, 1000) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadBoundVariant(t *testing.T) {
	s := Scheduler{OverheadBound: true}
	if s.Name() != "Factoring-OB" {
		t.Fatalf("name = %q", s.Name())
	}
	pr := &sched.Problem{
		Platform:   platform.Homogeneous(5, 1, 10, 0.3, 0.2),
		Total:      1000,
		KnownError: 0.3,
		MinUnit:    1,
	}
	d, err := s.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// overhead = 0.3 + 0.2*5 = 1.3 units at S=1; all but the final chunk
	// respect the floor.
	recs := res.Trace.Records
	for i, r := range recs[:len(recs)-1] {
		if r.Size < 1.3-1e-9 {
			t.Fatalf("chunk %d = %v below overhead floor", i, r.Size)
		}
	}
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
}

func TestPlainSchedulerInvalidProblem(t *testing.T) {
	if _, err := (Scheduler{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestSizerResetReplays(t *testing.T) {
	s := NewSizer(4)
	var first []float64
	remaining := 100.0
	for i := 0; i < 12; i++ {
		sz := s.NextSize(0, remaining)
		first = append(first, sz)
		remaining -= sz
	}
	s.Reset()
	remaining = 100.0
	for i, want := range first {
		sz := s.NextSize(0, remaining)
		if sz != want {
			t.Fatalf("size %d after Reset = %v, want %v", i, sz, want)
		}
		remaining -= sz
	}
}
