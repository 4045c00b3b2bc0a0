package wfactoring

import (
	"math"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
)

func TestMatchesFactoringOnHomogeneous(t *testing.T) {
	pr := &sched.Problem{
		Platform: platform.Homogeneous(6, 1, 18, 0.2, 0.2),
		Total:    1000,
		MinUnit:  1,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		results := make([]float64, 2)
		for i, s := range []sched.Scheduler{Scheduler{}, factoring.Scheduler{}} {
			d, err := s.NewDispatcher(pr)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(seed)
			res, err := engine.Run(pr.Platform, d, engine.Options{
				CommModel: perferr.NewTruncNormal(0.3, src.Split()),
				CompModel: perferr.NewTruncNormal(0.3, src.Split()),
			})
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res.Makespan
		}
		if math.Abs(results[0]-results[1]) > 1e-9 {
			t.Fatalf("seed %d: weighted %v vs plain %v on a homogeneous platform",
				seed, results[0], results[1])
		}
	}
}

func TestWeightsBySpeed(t *testing.T) {
	// One worker twice as fast: within a batch its chunk is twice the
	// slow workers'.
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 2, B: 40, CLat: 0.1, NLat: 0.1},
		{S: 1, B: 40, CLat: 0.1, NLat: 0.1},
		{S: 1, B: 40, CLat: 0.1, NLat: 0.1},
	}}
	pr := &sched.Problem{Platform: p, Total: 800, MinUnit: 1}
	d, err := Scheduler{}.NewDispatcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, d, engine.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// First batch = 400 units: worker 0 gets 200, workers 1-2 get 100.
	var first [3]float64
	seen := 0
	for _, rec := range res.Trace.Records {
		if first[rec.Worker] == 0 {
			first[rec.Worker] = rec.Size
			seen++
		}
		if seen == 3 {
			break
		}
	}
	if math.Abs(first[0]-200) > 1e-6 || math.Abs(first[1]-100) > 1e-6 || math.Abs(first[2]-100) > 1e-6 {
		t.Fatalf("first-batch chunks = %v, want [200 100 100]", first)
	}
	if math.Abs(res.DispatchedWork-800) > 1e-6 {
		t.Fatalf("dispatched %v", res.DispatchedWork)
	}
	if err := res.Trace.Validate(p, 800); err != nil {
		t.Fatal(err)
	}
}

func TestBeatsPlainFactoringOnHeterogeneous(t *testing.T) {
	// On a strongly heterogeneous platform, speed-proportional chunks
	// should beat speed-blind ones on average.
	spec := platform.HeterogeneousSpec{
		N: 10, SMin: 0.3, SMax: 3, BMin: 30, BMax: 60,
		CLatMax: 0.3, NLatMax: 0.3,
	}
	var wSum, fSum float64
	const reps = 20
	for seed := uint64(0); seed < reps; seed++ {
		p := platform.Heterogeneous(spec, rng.NewFrom(3, seed))
		pr := &sched.Problem{Platform: p, Total: 1000, MinUnit: 1}
		for i, s := range []sched.Scheduler{Scheduler{}, factoring.Scheduler{}} {
			d, err := s.NewDispatcher(pr)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.NewFrom(17, seed)
			res, err := engine.Run(p, d, engine.Options{
				CommModel: perferr.NewTruncNormal(0.2, src.Split()),
				CompModel: perferr.NewTruncNormal(0.2, src.Split()),
			})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wSum += res.Makespan
			} else {
				fSum += res.Makespan
			}
		}
	}
	if wSum >= fSum {
		t.Fatalf("weighted mean %v not better than plain %v on heterogeneous platforms",
			wSum/reps, fSum/reps)
	}
}

func TestNameAndValidation(t *testing.T) {
	if (Scheduler{}).Name() != "WFactoring" {
		t.Fatal("name")
	}
	if _, err := (Scheduler{}).NewDispatcher(&sched.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// TestSizerEqualSpeedsSplitEvenly checks the worker-indexed NextSize on
// a homogeneous platform: each worker's share of a batch is the same.
func TestSizerEqualSpeedsSplitEvenly(t *testing.T) {
	p := platform.Homogeneous(4, 1, 8, 0, 0)
	s := newSizer(p)
	// Equal speeds split batches evenly.
	if got := s.NextSize(0, 80); math.Abs(got-10) > 1e-12 { // 80/2/4
		t.Fatalf("NextSize = %v, want 10", got)
	}
	// Remaining allocations of the batch keep the frozen batch size.
	if got := s.NextSize(1, 70); math.Abs(got-10) > 1e-12 {
		t.Fatalf("second NextSize = %v, want 10", got)
	}
}
