package rumr

import (
	"math"
	"testing"
	"testing/quick"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/umr"
)

func paperProblem(n int, r, cLat, nLat, knownErr float64) *sched.Problem {
	return &sched.Problem{
		Platform:   platform.Homogeneous(n, 1, r*float64(n), cLat, nLat),
		Total:      1000,
		KnownError: knownErr,
		MinUnit:    1,
	}
}

func TestSplitZeroErrorIsAllPhase1(t *testing.T) {
	s := ComputeSplit(paperProblem(10, 1.5, 0.3, 0.3, 0), 0)
	if s.Phase1 != 1000 || s.Phase2 != 0 {
		t.Fatalf("split = %+v", s)
	}
}

func TestSplitErrorAboveOneIsAllPhase2(t *testing.T) {
	s := ComputeSplit(paperProblem(10, 1.5, 0.3, 0.3, 1.2), 0)
	if s.Phase1 != 0 || s.Phase2 != 1000 {
		t.Fatalf("split = %+v", s)
	}
}

func TestSplitProportionalToError(t *testing.T) {
	s := ComputeSplit(paperProblem(10, 1.5, 0.3, 0.3, 0.3), 0)
	if math.Abs(s.Phase2-300) > 1e-9 || math.Abs(s.Phase1-700) > 1e-9 {
		t.Fatalf("split = %+v, want 700/300", s)
	}
}

func TestSplitThresholdSuppressesPhase2(t *testing.T) {
	// N=20, cLat=0.3, nLat=0.9: overhead = 0.3 + 18 = 18.3 s. Phase 2
	// share per worker at error=0.1: 100/20 = 5 units = 5 s < 18.3 ->
	// phase 2 suppressed. (This is the Fig. 5 regime.)
	s := ComputeSplit(paperProblem(20, 1.8, 0.3, 0.9, 0.1), 0)
	if s.Phase2 != 0 || !s.UsedThreshold {
		t.Fatalf("split = %+v, want threshold-suppressed phase 2", s)
	}
	// At error=0.4 the share (400/20 = 20 s) clears the threshold.
	s = ComputeSplit(paperProblem(20, 1.8, 0.3, 0.9, 0.4), 0)
	if s.Phase2 != 400 || s.UsedThreshold {
		t.Fatalf("split = %+v, want 400 in phase 2", s)
	}
}

func TestSplitUnknownErrorUsesFixedDefault(t *testing.T) {
	s := ComputeSplit(paperProblem(10, 1.5, 0.3, 0.3, -1), 0)
	if math.Abs(s.Phase1-800) > 1e-9 || math.Abs(s.Phase2-200) > 1e-9 {
		t.Fatalf("split = %+v, want the 80/20 default", s)
	}
}

func TestSplitFixedFractionBypassesThreshold(t *testing.T) {
	// Same Fig. 5 regime as above, where the original heuristic suppresses
	// phase 2; the fixed-90% variant must still reserve 10%.
	s := ComputeSplit(paperProblem(20, 1.8, 0.3, 0.9, 0.1), 0.9)
	if math.Abs(s.Phase1-900) > 1e-9 || math.Abs(s.Phase2-100) > 1e-9 {
		t.Fatalf("split = %+v, want 900/100", s)
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		s    Scheduler
		want string
	}{
		{Scheduler{}, "RUMR"},
		{Scheduler{PlainPhase1: true}, "RUMR-plain"},
		{Scheduler{FixedPhase1Fraction: 0.8}, "RUMR-fixed80"},
		{Scheduler{FixedPhase1Fraction: 0.5, PlainPhase1: true}, "RUMR-fixed50-plain"},
		{Scheduler{Phase2Bound: BoundOverError}, "RUMR-boundOverError"},
		{Scheduler{FixedPhase1Fraction: 0.8, PlainPhase1: true, Phase2Bound: BoundPlain}, "RUMR-fixed80-plain-boundPlain"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Fatalf("name = %q, want %q", got, c.want)
		}
	}
}

// TestUnspellableVariantsRejected: field values the name cannot spell
// would alias another scheduler's name, so NewDispatcher refuses them.
func TestUnspellableVariantsRejected(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.2, 0.2, 0.1)
	for _, s := range []Scheduler{
		{FixedPhase1Fraction: 0.705},
		{FixedPhase1Fraction: 1.5},
		{FixedPhase1Fraction: -0.2},
		{Phase2Bound: BoundPlain + 1},
	} {
		if _, err := s.NewDispatcher(pr); err == nil {
			t.Fatalf("%+v accepted", s)
		}
		if _, err := (FaultTolerant{Variant: s}).NewDispatcher(pr); err == nil {
			t.Fatalf("fault-tolerant %+v accepted", s)
		}
	}
}

// makespan simulates one run deterministically.
func makespan(t *testing.T, s sched.Scheduler, pr *sched.Problem, errMag float64, seed uint64) float64 {
	t.Helper()
	d, err := s.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	opts := engine.Options{
		CommModel: perferr.NewTruncNormal(errMag, src.Split()),
		CompModel: perferr.NewTruncNormal(errMag, src.Split()),
	}
	res, err := engine.Run(pr.Platform, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-pr.Total) > 1e-6*pr.Total {
		t.Fatalf("%s dispatched %v of %v", s.Name(), res.DispatchedWork, pr.Total)
	}
	return res.Makespan
}

func TestDegeneratesToUMRAtZeroError(t *testing.T) {
	// With error = 0, RUMR is UMR with out-of-order dispatch allowed; under
	// perfect predictions on an increasing-chunk config no reordering ever
	// triggers, so the makespans are identical.
	pr := paperProblem(20, 1.5, 0.05, 0.05, 0)
	rumrMk := makespan(t, Scheduler{}, pr, 0, 1)
	umrMk := makespan(t, umr.Scheduler{}, pr, 0, 1)
	if math.Abs(rumrMk-umrMk) > 1e-9 {
		t.Fatalf("RUMR %v vs UMR %v at error 0", rumrMk, umrMk)
	}
}

func TestDegeneratesToFactoringAtHighError(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.3, 0.3, 1.5)
	for seed := uint64(1); seed <= 3; seed++ {
		rumrMk := makespan(t, Scheduler{}, pr, 0.5, seed)
		factMk := makespan(t, factoring.Scheduler{}, pr, 0.5, seed)
		if math.Abs(rumrMk-factMk) > 1e-9 {
			t.Fatalf("seed %d: RUMR %v vs Factoring %v at error >= 1", seed, rumrMk, factMk)
		}
	}
}

func TestPhaseTagsInTrace(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.1, 0.1, 0.3)
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	opts := engine.Options{
		CommModel:   perferr.NewTruncNormal(0.3, src.Split()),
		CompModel:   perferr.NewTruncNormal(0.3, src.Split()),
		RecordTrace: true,
	}
	res, err := engine.Run(pr.Platform, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var w1, w2 float64
	seenPhase2 := false
	for _, rec := range res.Trace.Records {
		switch rec.Phase {
		case 1:
			if seenPhase2 {
				t.Fatal("phase 1 chunk dispatched after phase 2 began")
			}
			w1 += rec.Size
		case 2:
			seenPhase2 = true
			w2 += rec.Size
		default:
			t.Fatalf("unexpected phase tag %d", rec.Phase)
		}
	}
	if math.Abs(w1-700) > 1e-6 || math.Abs(w2-300) > 1e-6 {
		t.Fatalf("phase totals %v/%v, want 700/300", w1, w2)
	}
	if err := res.Trace.Validate(pr.Platform, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestPhase2ChunksRespectMinBound(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.3, 0.2, 0.4)
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(pr.Platform, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Default bound mode: (cLat + nLat·N)·error, floored at one unit.
	bound := math.Max(factoring.MinChunk(pr.Platform, -1, 1)*0.4, 1)
	records := res.Trace.Records
	for i, rec := range records {
		if rec.Phase == 2 && i < len(records)-1 && rec.Size < bound-1e-9 {
			t.Fatalf("phase-2 chunk %d of size %v below bound %v", i, rec.Size, bound)
		}
	}
}

func TestRobustnessBeatsUMRUnderHighError(t *testing.T) {
	// The headline claim, in miniature: with substantial prediction error,
	// RUMR's mean makespan across repetitions beats plain UMR's.
	pr := paperProblem(20, 1.5, 0.3, 0.3, 0.4)
	var rumrSum, umrSum float64
	const reps = 30
	for seed := uint64(0); seed < reps; seed++ {
		rumrSum += makespan(t, Scheduler{}, pr, 0.4, seed)
		umrSum += makespan(t, umr.Scheduler{}, pr, 0.4, seed)
	}
	if rumrSum >= umrSum {
		t.Fatalf("RUMR mean %v not better than UMR mean %v at error 0.4",
			rumrSum/reps, umrSum/reps)
	}
}

func TestFixedSplitVariantRuns(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.2, 0.2, 0.1)
	for _, frac := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		mk := makespan(t, Scheduler{FixedPhase1Fraction: frac}, pr, 0.1, 3)
		if mk <= 0 {
			t.Fatalf("frac %v: makespan %v", frac, mk)
		}
	}
}

func TestPlainPhase1Variant(t *testing.T) {
	pr := paperProblem(10, 1.5, 0.2, 0.2, 0.3)
	a := makespan(t, Scheduler{PlainPhase1: true}, pr, 0.3, 11)
	if a <= 0 {
		t.Fatal("plain variant failed to run")
	}
}

func TestInvalidProblem(t *testing.T) {
	if _, err := (Scheduler{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// Property: across the grid and error range, RUMR dispatches exactly the
// workload and its traces validate.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, errByte uint8) bool {
		src := rng.New(seed)
		errMag := float64(errByte) / 255 * 0.6
		n := 10 + 5*src.Intn(9)
		r := 1.2 + 0.1*float64(src.Intn(9))
		cl := 0.1 * float64(src.Intn(11))
		nl := 0.1 * float64(src.Intn(11))
		pr := paperProblem(n, r, cl, nl, errMag)
		d, err := Scheduler{}.NewDispatcher(pr)
		if err != nil {
			return false
		}
		opts := engine.Options{
			CommModel:   perferr.NewTruncNormal(errMag, src.Split()),
			CompModel:   perferr.NewTruncNormal(errMag, src.Split()),
			RecordTrace: true,
		}
		res, err := engine.Run(pr.Platform, d, opts)
		if err != nil {
			return false
		}
		if math.Abs(res.DispatchedWork-1000) > 1e-6 {
			return false
		}
		return res.Trace.Validate(pr.Platform, 1000) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
