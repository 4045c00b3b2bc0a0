package rumr

import (
	"math"
	"reflect"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

func runAdaptive(t *testing.T, pr *sched.Problem, errMag float64, seed uint64) (engine.Result, *adaptiveDispatcher) {
	t.Helper()
	d, err := Adaptive{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	opts := engine.Options{
		CommModel:   perferr.NewTruncNormal(errMag, src.Split()),
		CompModel:   perferr.NewTruncNormal(errMag, src.Split()),
		RecordTrace: true,
	}
	res, err := engine.Run(pr.Platform, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, d.(*adaptiveDispatcher)
}

func TestAdaptiveConserves(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.3, 0.3, -1)
	res, _ := runAdaptive(t, pr, 0.3, 1)
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
	if err := res.Trace.Validate(pr.Platform, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveEstimatesError(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.2, 0.2, -1)
	_, d := runAdaptive(t, pr, 0.3, 7)
	est := d.Estimate()
	// A whole run's worth of samples: the estimate should be in the right
	// ballpark (the compute-time ratio's sd is exactly 0.3).
	if est < 0.15 || est > 0.45 {
		t.Fatalf("estimated error = %v, want ~0.3", est)
	}
}

func TestAdaptiveUsesPhase2UnderError(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.1, 0.1, -1)
	res, d := runAdaptive(t, pr, 0.4, 3)
	if !d.decided {
		t.Fatal("split decision never made")
	}
	var p2 float64
	for _, rec := range res.Trace.Records {
		if rec.Phase == 2 {
			p2 += rec.Size
		}
	}
	if p2 <= 0 {
		t.Fatal("no phase-2 work despite a 0.4 error magnitude")
	}
}

func TestAdaptiveSkipsPhase2WithoutError(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.3, 0.3, -1)
	res, _ := runAdaptive(t, pr, 0, 5)
	for _, rec := range res.Trace.Records {
		if rec.Phase == 2 {
			t.Fatal("phase 2 used under perfect predictions")
		}
	}
	if math.Abs(res.DispatchedWork-1000) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
}

func TestAdaptiveCompetitiveWithInformed(t *testing.T) {
	// Adaptive (measures the error) should land between the informed RUMR
	// and the blind fixed-80/20 fallback on average — and certainly not
	// collapse. Allow a modest tolerance: it spends its first samples on
	// an unsplit plan.
	pr := paperProblem(20, 1.5, 0.3, 0.3, 0.4)
	blindPr := paperProblem(20, 1.5, 0.3, 0.3, -1)
	const reps = 25
	var informed, adaptive float64
	for seed := uint64(0); seed < reps; seed++ {
		informed += makespan(t, Scheduler{}, pr, 0.4, seed)

		d, err := Adaptive{}.NewDispatcher(blindPr)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		opts := engine.Options{
			CommModel: perferr.NewTruncNormal(0.4, src.Split()),
			CompModel: perferr.NewTruncNormal(0.4, src.Split()),
		}
		res, err := engine.Run(blindPr.Platform, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		adaptive += res.Makespan
	}
	if adaptive > informed*1.15 {
		t.Fatalf("adaptive mean %.2f vs informed mean %.2f: more than 15%% behind",
			adaptive/reps, informed/reps)
	}
}

// A Reset adaptive dispatcher replays a split run exactly: the same
// chunk sequence, sizes, phases and timings as a fresh dispatcher.
func TestAdaptiveResetReplaysSplit(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.1, 0.1, -1)
	const errMag, seed = 0.4, 3
	fresh, _ := runAdaptive(t, pr, errMag, seed)
	d, err := Adaptive{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	rp, ok := d.(sched.Replayable)
	if !ok {
		t.Fatal("adaptive dispatcher is not sched.Replayable")
	}
	run := func() engine.Result {
		src := rng.New(seed)
		res, err := engine.Run(pr.Platform, d, engine.Options{
			CommModel:   perferr.NewTruncNormal(errMag, src.Split()),
			CompModel:   perferr.NewTruncNormal(errMag, src.Split()),
			RecordTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run()
	if !d.(*adaptiveDispatcher).decided {
		t.Fatal("split decision never made; the test needs a larger error")
	}
	rp.Reset()
	replay := run()
	if !reflect.DeepEqual(replay.Trace.Records, fresh.Trace.Records) || replay.Makespan != fresh.Makespan {
		t.Fatalf("replay after Reset diverged: %d chunks, makespan %v; fresh %d chunks, makespan %v",
			len(replay.Trace.Records), replay.Makespan, len(fresh.Trace.Records), fresh.Makespan)
	}
}

func TestAdaptiveRejectsInvalid(t *testing.T) {
	if _, err := (Adaptive{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestTrimTail(t *testing.T) {
	plan := []engine.Chunk{
		{Worker: 0, Size: 10}, {Worker: 1, Size: 20}, {Worker: 0, Size: 30}, {Worker: 1, Size: 40},
	}
	s := sched.NewStatic(plan, false)
	// Withdraw up to 65 from the tail: 40 + 30 = 70 > 65, so only 40.
	if got := s.TrimTail(65); got != 40 {
		t.Fatalf("trimmed %v, want 40", got)
	}
	if s.RemainingWork() != 60 {
		t.Fatalf("remaining work = %v", s.RemainingWork())
	}
	// The trimmed chunk is never dispatched.
	v := &engine.View{Workers: make([]engine.WorkerState, 2)}
	total := 0.0
	for {
		c, ok := s.Next(v)
		if !ok {
			break
		}
		total += c.Size
	}
	if total != 60 {
		t.Fatalf("dispatched %v after trim", total)
	}
}

func TestTrimTailSkipsSent(t *testing.T) {
	plan := []engine.Chunk{{Worker: 0, Size: 10}, {Worker: 0, Size: 20}}
	s := sched.NewStatic(plan, false)
	v := &engine.View{Workers: make([]engine.WorkerState, 1)}
	s.Next(v) // dispatch the 10
	if got := s.TrimTail(100); got != 20 {
		t.Fatalf("trimmed %v, want 20 (only the unsent chunk)", got)
	}
	if got := s.TrimTail(100); got != 0 {
		t.Fatalf("second trim = %v, want 0", got)
	}
}

// nLat sanity for the platform helper reused from rumr_test.go.
var _ = platform.Homogeneous
