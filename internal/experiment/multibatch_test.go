package experiment

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rumr/internal/arrivals"
	"rumr/internal/dlt"
	"rumr/internal/engine"
	"rumr/internal/metrics"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
)

// multiJobArrivals is the frozen reference draw of one (rate, rep)
// instance's arrival times; MultiCellState.regenArrivals must stay
// bit-identical to it.
func multiJobArrivals(g MultiJobGrid, rate float64, rep int) []float64 {
	if rate <= 0 {
		return make([]float64, g.Jobs) // batch arrival at t=0
	}
	src := rng.NewFrom(g.BaseSeed, 0x6a6f6273, // "jobs"
		math.Float64bits(rate), uint64(rep))
	return arrivals.Poisson(rate).Times(g.Jobs, src)
}

// multiJobSeed is the frozen reference derivation of one (rate, rep)
// instance's error-stream seed; MultiCellState.instanceSeed must stay
// bit-identical to it.
func multiJobSeed(g MultiJobGrid, rate float64, rep int) uint64 {
	return rng.NewFrom(g.BaseSeed, 0x657272, // "err"
		math.Float64bits(rate), uint64(rep)).Uint64()
}

// runMultiJobCellReference is the pre-batch per-repetition implementation
// of a multi-job cell, kept verbatim as the reference the batched
// MultiCellState path must match bit for bit: platform built per cell,
// every dispatcher constructed inside the repetition loop with plain
// NewDispatcher, RNG sources allocated per (rep, algorithm), explicit
// sums/fails slices. It returns the cell as a [response, slowdown,
// fairness, makespan] × algorithms block.
func runMultiJobCellReference(r *Runner, ctx context.Context, g MultiJobGrid, pol engine.LinkPolicy, rate float64) ([][]float64, error) {
	p := g.Config.Platform()
	lb := dlt.LowerBound(p, g.Total)
	if lb <= 0 {
		return nil, fmt.Errorf("experiment: degenerate platform %v: zero lower bound", g.Config)
	}
	nA := len(r.Algorithms)
	response := make([]float64, nA)
	slowdown := make([]float64, nA)
	fairness := make([]float64, nA)
	makespan := make([]float64, nA)
	failed := make([]bool, nA)

	known := g.Error
	if r.UnknownError {
		known = -1
	}
	pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: known, MinUnit: 1}
	inv := make([]float64, g.Jobs)
	for rep := 0; rep < g.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arr := multiJobArrivals(g, rate, rep)
		seed := multiJobSeed(g, rate, rep)
		for ai, algo := range r.Algorithms {
			if failed[ai] {
				continue
			}
			src := rng.NewFrom(seed)
			jobs := make([]engine.Job, g.Jobs)
			ok := true
			for j := range jobs {
				d, err := algo.NewDispatcher(pr)
				if err != nil {
					failed[ai] = true
					ok = false
					break
				}
				jobs[j] = engine.Job{
					Name:       fmt.Sprintf("job%d", j),
					Arrival:    arr[j],
					Priority:   g.Jobs - 1 - j,
					Weight:     1,
					Total:      g.Total,
					Dispatcher: d,
					CommModel:  referenceModel(r.ErrorModel, g.Error, src.Split()),
					CompModel:  referenceModel(r.ErrorModel, g.Error, src.Split()),
				}
			}
			if !ok {
				continue
			}
			out, err := engine.RunMulti(p, jobs, engine.MultiOptions{Policy: pol})
			if err != nil {
				return nil, fmt.Errorf("experiment: multi-job %s/%s rate %g rep %d: %w",
					pol.Name(), algo.Name(), rate, rep, err)
			}
			runResp, runSlow := 0.0, 0.0
			for j, jr := range out.Jobs {
				runResp += jr.Response
				s := jr.Response / lb
				runSlow += s
				if s > 0 {
					inv[j] = 1 / s
				} else {
					inv[j] = 0
				}
			}
			response[ai] += runResp / float64(g.Jobs)
			slowdown[ai] += runSlow / float64(g.Jobs)
			fairness[ai] += metrics.JainIndex(inv)
			makespan[ai] += out.Makespan
		}
	}

	mean := func(v []float64) []float64 {
		out := make([]float64, nA)
		for ai := range v {
			if failed[ai] {
				out[ai] = math.NaN()
			} else {
				out[ai] = v[ai] / float64(g.Reps)
			}
		}
		return out
	}
	return [][]float64{mean(response), mean(slowdown), mean(fairness), mean(makespan)}, nil
}

// multiBatchAlgorithms covers every dispatcher shape the multi-job sweep
// meets: the two-phase RUMR, a stateful demand sizer (Factoring), a
// memoized static plan (MI-1) and the non-replayable adaptive variant
// that exercises the rebuild-per-repetition fallback.
func multiBatchAlgorithms() []sched.Scheduler {
	return []sched.Scheduler{
		rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1}, rumr.Adaptive{},
	}
}

// TestBatchedMultiCellMatchesReference pins the tentpole equivalence: the
// batched multi-job cell (pooled platform, dispatcher prototypes Reset
// between repetitions, in-place reseeding and arrival regeneration,
// Welford accumulation) must be bit-identical to the frozen unbatched
// reference across every link policy and arrival rate, plain (perfect
// prediction) and faulty (perturbed), both error models, known and
// unknown error. One MultiCellState instance serves every case, so
// re-preparation across grids is exercised too.
func TestBatchedMultiCellMatchesReference(t *testing.T) {
	base := MultiJobGrid{
		Config:       Config{N: 4, R: 1.8, CLat: 0.3, NLat: 0.9},
		Jobs:         3,
		ArrivalRates: []float64{0, 0.05, 0.2},
		Reps:         2,
		Total:        60,
		BaseSeed:     77,
	}
	cases := []struct {
		name    string
		errMag  float64
		model   ErrorModelKind
		unknown bool
	}{
		{"plain-known", 0, NormalError, false},
		{"normal-known", 0.2, NormalError, false},
		{"normal-unknown", 0.2, NormalError, true},
		{"uniform-known", 0.2, UniformError, false},
	}
	cs := NewMultiCellState()
	ctx := context.Background()
	for _, tc := range cases {
		g := base
		g.Error = tc.errMag
		r := &Runner{
			Algorithms:   multiBatchAlgorithms(),
			Workers:      1,
			ErrorModel:   tc.model,
			UnknownError: tc.unknown,
		}
		for _, pol := range engine.LinkPolicies() {
			for _, rate := range g.ArrivalRates {
				label := fmt.Sprintf("%s/%s/rate%g", tc.name, pol.Name(), rate)
				want, err := runMultiJobCellReference(r, ctx, g, pol, rate)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got := NewCellBlock(multiCellRows, len(r.Algorithms))
				if err := r.ComputeMultiJobCellInto(ctx, g, pol, rate, cs, got); err != nil {
					t.Fatalf("%s: batched: %v", label, err)
				}
				assertCellsIdentical(t, label, got, want)
			}
		}
	}
}

// TestWarmCacheExtendedMultiJobGridComputesOnlyNewCells mirrors the
// single-job warm-cache test for the multi-job sweep: a second sweep over
// a grid extended with a new arrival rate must restore every previously
// computed (policy, rate) cell from the content-addressed cache —
// simulating only the added cells — and produce values bit-identical to
// the cold sweep on the shared cells.
func TestWarmCacheExtendedMultiJobGridComputesOnlyNewCells(t *testing.T) {
	dir := t.TempDir()
	g := smallMultiJobGrid()
	cold := multiJobRunner(nil)
	cold.CachePath = dir
	coldRes, err := cold.MultiJob(g)
	if err != nil {
		t.Fatal(err)
	}

	ext := g
	ext.ArrivalRates = []float64{0, 0.05, 0.2} // extend the rate axis
	met := metrics.New()
	warm := multiJobRunner(met)
	warm.CachePath = dir
	warmRes, err := warm.MultiJob(ext)
	if err != nil {
		t.Fatal(err)
	}

	nPol := len(coldRes.Policies)
	snap := met.Snapshot()
	if want := int64(nPol * len(ext.ArrivalRates)); snap.ConfigsTotal != want {
		t.Fatalf("warm sweep registered %d cells, want %d", snap.ConfigsTotal, want)
	}
	if want := int64(nPol * len(g.ArrivalRates)); snap.ConfigsSkipped != want {
		t.Fatalf("warm sweep skipped %d cells, want %d restored from cache", snap.ConfigsSkipped, want)
	}
	// Only the added rate's cells may have simulated: policies x new
	// rates x reps x algorithms runs.
	newRates := len(ext.ArrivalRates) - len(g.ArrivalRates)
	if want := int64(nPol * newRates * g.Reps * len(warm.Algorithms)); snap.MultiJobRuns != want {
		t.Fatalf("warm sweep simulated %d multi-job runs, want %d (new cells only)", snap.MultiJobRuns, want)
	}
	// Shared cells are bit-identical to the cold sweep.
	for pi := range coldRes.Policies {
		for ri := range g.ArrivalRates {
			assertCellsIdentical(t, fmt.Sprintf("%s/rate%g response", coldRes.Policies[pi], g.ArrivalRates[ri]),
				[][]float64{warmRes.MeanResponse[pi][ri], warmRes.MeanSlowdown[pi][ri], warmRes.MeanFairness[pi][ri], warmRes.MeanMakespan[pi][ri]},
				[][]float64{coldRes.MeanResponse[pi][ri], coldRes.MeanSlowdown[pi][ri], coldRes.MeanFairness[pi][ri], coldRes.MeanMakespan[pi][ri]})
		}
	}
}

// TestMultiCellKeyPositionIndependent pins the cache-key contract for the
// multi-job axes: the key must change with every value that shapes the
// cell's bytes (seed, jobs, reps, total, error, policy, rate, algorithm
// list, model, visibility, config) and with nothing else.
func TestMultiCellKeyPositionIndependent(t *testing.T) {
	g := smallMultiJobGrid()
	algos := []string{"rumr", "factoring", "mi-1"}
	base := MultiCellKey(g, algos, NormalError, false, "fcfs", 0.05)
	if base != MultiCellKey(g, algos, NormalError, false, "fcfs", 0.05) {
		t.Fatal("key is not deterministic")
	}
	mutations := map[string]string{}
	g2 := g
	g2.BaseSeed++
	mutations["seed"] = MultiCellKey(g2, algos, NormalError, false, "fcfs", 0.05)
	g3 := g
	g3.Jobs++
	mutations["jobs"] = MultiCellKey(g3, algos, NormalError, false, "fcfs", 0.05)
	g4 := g
	g4.Reps++
	mutations["reps"] = MultiCellKey(g4, algos, NormalError, false, "fcfs", 0.05)
	g5 := g
	g5.Total++
	mutations["total"] = MultiCellKey(g5, algos, NormalError, false, "fcfs", 0.05)
	g6 := g
	g6.Error = 0.3
	mutations["error"] = MultiCellKey(g6, algos, NormalError, false, "fcfs", 0.05)
	g7 := g
	g7.Config.N++
	mutations["config"] = MultiCellKey(g7, algos, NormalError, false, "fcfs", 0.05)
	mutations["policy"] = MultiCellKey(g, algos, NormalError, false, "priority", 0.05)
	mutations["rate"] = MultiCellKey(g, algos, NormalError, false, "fcfs", 0.06)
	mutations["algos"] = MultiCellKey(g, algos[:2], NormalError, false, "fcfs", 0.05)
	mutations["model"] = MultiCellKey(g, algos, UniformError, false, "fcfs", 0.05)
	mutations["unknown"] = MultiCellKey(g, algos, NormalError, true, "fcfs", 0.05)
	seen := map[string]string{base: "base"}
	for name, key := range mutations {
		if prev, dup := seen[key]; dup {
			t.Fatalf("mutating %q collides with %q", name, prev)
		}
		seen[key] = name
	}
	// The arrival-rate axis' position must NOT matter: the same rate in a
	// different slot yields the same key, which is what makes grid
	// extension recompute only new cells.
	g8 := g
	g8.ArrivalRates = []float64{0.05, 0, 0.2}
	if MultiCellKey(g8, algos, NormalError, false, "fcfs", 0.05) != base {
		t.Fatal("key depends on the rate's grid position")
	}
}
