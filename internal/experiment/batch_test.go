package experiment

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/fsc"
	"rumr/internal/sched/gss"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/selfsched"
	"rumr/internal/sched/tss"
	"rumr/internal/sched/wfactoring"
)

// cellSeed is the frozen reference derivation of the per-(config, error,
// rep) RNG source; CellState.reseedCell must stay bit-identical to it.
func cellSeed(g Grid, cfg Config, errMag float64, rep int) *rng.Source {
	return rng.NewFrom(g.BaseSeed,
		uint64(cfg.N), math.Float64bits(cfg.R),
		math.Float64bits(cfg.CLat), math.Float64bits(cfg.NLat),
		math.Float64bits(errMag), uint64(rep))
}

// computeCellReference is the pre-batch per-repetition implementation of
// computeCell, kept verbatim as the reference the batched path must match
// bit for bit: platform and memo built per cell, every dispatcher
// constructed inside the repetition loop, explicit sums/fails slices per
// error level.
func computeCellReference(r *Runner, ctx context.Context, g Grid, cfg Config) ([][]float64, error) {
	p := cfg.Platform()
	memo := sched.NewMemo(p)
	memoizers := make([]sched.Memoizer, len(r.Algorithms))
	for ai, algo := range r.Algorithms {
		memoizers[ai], _ = algo.(sched.Memoizer)
	}
	cell := make([][]float64, len(g.Errors))
	for ei := range g.Errors {
		cell[ei] = make([]float64, len(r.Algorithms))
	}
	for ei, errMag := range g.Errors {
		sums := make([]float64, len(r.Algorithms))
		fails := make([]bool, len(r.Algorithms))
		known := errMag
		if r.UnknownError {
			known = -1
		}
		pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: known, MinUnit: 1}
		for rep := 0; rep < g.Reps; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for ai, algo := range r.Algorithms {
				var d engine.Dispatcher
				var err error
				if mz := memoizers[ai]; mz != nil {
					d, err = mz.NewDispatcherMemo(pr, memo)
				} else {
					d, err = algo.NewDispatcher(pr)
				}
				if err != nil {
					fails[ai] = true
					continue
				}
				src := cellSeed(g, cfg, errMag, rep)
				out, err := engine.Run(p, d, engine.Options{
					CommModel: referenceModel(r.ErrorModel, errMag, src.Split()),
					CompModel: referenceModel(r.ErrorModel, errMag, src.Split()),
				})
				if err != nil {
					return nil, err
				}
				sums[ai] += out.Makespan
			}
		}
		for ai := range r.Algorithms {
			if fails[ai] {
				cell[ei][ai] = math.NaN()
			} else {
				cell[ei][ai] = sums[ai] / float64(g.Reps)
			}
		}
	}
	return cell, nil
}

// referenceModel is the per-run model construction of the frozen
// references: a fresh model on its own source for every run, chosen
// independently of perferr.Stream so the references stay an oracle for
// the reusable streams the batched paths bind.
func referenceModel(kind ErrorModelKind, errMag float64, src *rng.Source) perferr.Model {
	if errMag <= 0 {
		return perferr.Perfect{}
	}
	if kind == UniformError {
		return perferr.NewUniform(errMag, src)
	}
	return perferr.NewTruncNormal(errMag, src)
}

// batchEquivalenceAlgorithms covers every dispatcher shape: memoized
// statics (UMR, MI-k), the two-phase RUMR, pure demand dispatchers with
// stateful sizers (Factoring, TSS, WFactoring), stateless sizers (FSC,
// GSS, SelfSched) and the adaptive variant, whose Reset must undo a
// run-time split. The rebuild-per-repetition fallback is exercised by
// hiding Replayable behind opaqueDispatcher and opaqueFADispatcher.
func batchEquivalenceAlgorithms() []sched.Scheduler {
	algos := StandardAlgorithms()
	return append(algos,
		fsc.Scheduler{}, gss.Scheduler{}, tss.Scheduler{},
		selfsched.Scheduler{}, wfactoring.Scheduler{}, rumr.Adaptive{})
}

func batchEquivalenceGrid() Grid {
	return Grid{
		Ns:       []int{10, 20},
		Rs:       []float64{1.5, 1.8},
		CLats:    []float64{0, 0.3},
		NLats:    []float64{0.3, 0.9},
		Errors:   []float64{0, 0.12, 0.3, 0.48},
		Reps:     3,
		Total:    1000,
		BaseSeed: 2003,
	}
}

// assertCellsIdentical compares two mean blocks bit for bit (NaN == NaN).
func assertCellsIdentical(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d error rows, want %d", label, len(got), len(want))
	}
	for ei := range want {
		if len(got[ei]) != len(want[ei]) {
			t.Fatalf("%s: row %d has %d entries, want %d", label, ei, len(got[ei]), len(want[ei]))
		}
		for ai := range want[ei] {
			g, w := got[ei][ai], want[ei][ai]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: mean[%d][%d] = %v (bits %x), reference %v (bits %x)",
					label, ei, ai, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestBatchedCellMatchesReference pins byte-identity: the batched cell
// path (pooled platform, memoized plans,
// replayed prototypes, reusable error streams, Welford accumulators)
// produces bit-identical mean blocks to the pre-batch per-repetition
// implementation, across error models and the known/unknown-error
// scenarios, including CellState reuse across configurations (the pool's
// steady state). It is also the oracle for every Reset, RUMR-adaptive's
// included: the reference rebuilds each dispatcher every repetition.
func TestBatchedCellMatchesReference(t *testing.T) {
	g := batchEquivalenceGrid()
	cases := []struct {
		name    string
		model   ErrorModelKind
		unknown bool
	}{
		{"normal-known", NormalError, false},
		{"normal-unknown", NormalError, true},
		{"uniform-known", UniformError, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Runner{Algorithms: batchEquivalenceAlgorithms(), ErrorModel: tc.model, UnknownError: tc.unknown}
			cs := NewCellState()
			ctx := context.Background()
			for _, cfg := range g.Configs() {
				want, err := computeCellReference(r, ctx, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// One CellState across every configuration: reuse must not
				// leak state from the previous cell.
				got := NewCellBlock(len(g.Errors), len(r.Algorithms))
				if err := r.ComputeCellInto(ctx, g, cfg, cs, got); err != nil {
					t.Fatal(err)
				}
				assertCellsIdentical(t, cfg.String(), got, want)
			}
		})
	}
}

// opaqueDispatcher forwards Next — and the engine capabilities that
// change scheduling behaviour (Observer's completion feedback, and
// FaultAware via opaqueFADispatcher) — while hiding the batch-path
// optimisation interface (Replayable), so the prototype is rebuilt every
// repetition.
type opaqueDispatcher struct{ d engine.Dispatcher }

func (o opaqueDispatcher) Next(v *engine.View) (engine.Chunk, bool) { return o.d.Next(v) }

func (o opaqueDispatcher) OnComplete(workerIdx int, c engine.Chunk, at, predicted, effective float64) {
	if obs, ok := o.d.(engine.Observer); ok {
		obs.OnComplete(workerIdx, c, at, predicted, effective)
	}
}

type opaqueFADispatcher struct {
	opaqueDispatcher
	fa engine.FaultAware
}

func (o opaqueFADispatcher) OnWorkerDown(w int, at float64, v *engine.View) {
	o.fa.OnWorkerDown(w, at, v)
}
func (o opaqueFADispatcher) OnWorkerUp(w int, at float64, v *engine.View) {
	o.fa.OnWorkerUp(w, at, v)
}

// opaqueScheduler hides the scheduler's Memoizer capability and its
// dispatchers' Replayable capability behind plain interfaces,
// forcing the batch path onto its rebuild-per-repetition fallback — which
// must not change results.
type opaqueScheduler struct{ sched.Scheduler }

func (s opaqueScheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	d, err := s.Scheduler.NewDispatcher(pr)
	if err != nil {
		return nil, err
	}
	if fa, ok := d.(engine.FaultAware); ok {
		return opaqueFADispatcher{opaqueDispatcher{d}, fa}, nil
	}
	return opaqueDispatcher{d}, nil
}

// TestBatchedCellReplayMatchesRebuild pins the Replayable contract end to
// end: replaying one prototype across repetitions gives bit-identical
// results to reconstructing the dispatcher every repetition (forced via
// schedulers whose capabilities are hidden).
func TestBatchedCellReplayMatchesRebuild(t *testing.T) {
	g := batchEquivalenceGrid()
	algos := batchEquivalenceAlgorithms()
	hidden := make([]sched.Scheduler, len(algos))
	for i, a := range algos {
		hidden[i] = opaqueScheduler{a}
	}
	fast := &Runner{Algorithms: algos}
	slow := &Runner{Algorithms: hidden}
	ctx := context.Background()
	for _, cfg := range g.Configs() {
		want, _, err := slow.ComputeConfig(ctx, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fast.ComputeConfig(ctx, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertCellsIdentical(t, cfg.String(), got, want)
	}
}

// TestResilienceReplayMatchesRebuild extends the replay-vs-rebuild
// equivalence to the faulty sweep: crash scenarios, engine re-dispatch
// recovery and the fault-tolerant re-planning dispatcher (whose Reset
// must restore the pre-replan phases).
func TestResilienceReplayMatchesRebuild(t *testing.T) {
	g := DefaultResilienceGrid()
	g.CrashRates = []float64{0, 0.3, 0.5}
	g.Reps = 3
	algos := []sched.Scheduler{
		rumr.Scheduler{}, rumr.FaultTolerant{},
		StandardAlgorithms()[1], // UMR
	}
	hidden := make([]sched.Scheduler, len(algos))
	for i, a := range algos {
		hidden[i] = opaqueScheduler{a}
	}
	want, err := (&Runner{Algorithms: hidden, Workers: 1}).Resilience(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{Algorithms: algos, Workers: 1}).Resilience(g)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range algos {
		if math.Float64bits(got.Baseline[ai]) != math.Float64bits(want.Baseline[ai]) {
			t.Fatalf("baseline[%d] = %v, rebuild reference %v", ai, got.Baseline[ai], want.Baseline[ai])
		}
	}
	for ri := range g.CrashRates {
		for ai := range algos {
			pairs := [][2]float64{
				{got.Mean[ri][ai], want.Mean[ri][ai]},
				{got.Degradation[ri][ai], want.Degradation[ri][ai]},
				{got.Completion[ri][ai], want.Completion[ri][ai]},
				{got.Redispatches[ri][ai], want.Redispatches[ri][ai]},
			}
			for k, pr := range pairs {
				if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
					t.Fatalf("crash rate %g, algorithm %d, field %d: %v != reference %v",
						g.CrashRates[ri], ai, k, pr[0], pr[1])
				}
			}
		}
	}
}

// countingFailScheduler fails every construction and counts the attempts.
type countingFailScheduler struct{ attempts *int }

func (countingFailScheduler) Name() string { return "always-fails" }
func (s countingFailScheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	*s.attempts++
	return nil, errors.New("infeasible by design")
}

// TestDispatcherConstructionOncePerConfigError is the regression test for
// the hoisting bugfix: a scheduler whose construction fails must be tried
// at most once per (configuration, error), not Reps times — the old path
// retried the identical failing construction on every repetition.
func TestDispatcherConstructionOncePerConfigError(t *testing.T) {
	g := SmokeGrid() // 8 configs x 5 errors x 5 reps
	attempts := 0
	algos := []sched.Scheduler{rumr.Scheduler{}, countingFailScheduler{&attempts}}
	res, err := (&Runner{Algorithms: algos, Workers: 1}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}
	want := len(g.Configs()) * len(g.Errors)
	if attempts != want {
		t.Fatalf("construction attempted %d times, want once per (config, error) = %d (reps would be %d)",
			attempts, want, want*g.Reps)
	}
	for ci := range res.Mean {
		for ei := range res.Mean[ci] {
			if !math.IsNaN(res.Mean[ci][ei][1]) {
				t.Fatalf("failing algorithm's mean[%d][%d] = %v, want NaN", ci, ei, res.Mean[ci][ei][1])
			}
			if math.IsNaN(res.Mean[ci][ei][0]) {
				t.Fatalf("healthy algorithm's mean[%d][%d] is NaN", ci, ei)
			}
		}
	}
}

func TestGridValidate(t *testing.T) {
	valid := SmokeGrid()
	if err := valid.Validate(); err != nil {
		t.Fatalf("SmokeGrid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Grid)
		wantSub string
	}{
		{"no Ns", func(g *Grid) { g.Ns = nil }, "platform axis"},
		{"no Rs", func(g *Grid) { g.Rs = nil }, "platform axis"},
		{"no CLats", func(g *Grid) { g.CLats = nil }, "platform axis"},
		{"no NLats", func(g *Grid) { g.NLats = nil }, "platform axis"},
		{"no errors", func(g *Grid) { g.Errors = nil }, "error magnitudes"},
		{"zero reps", func(g *Grid) { g.Reps = 0 }, "Reps"},
		{"negative reps", func(g *Grid) { g.Reps = -3 }, "Reps"},
		{"zero total", func(g *Grid) { g.Total = 0 }, "Total"},
		{"negative total", func(g *Grid) { g.Total = -1000 }, "Total"},
		{"infinite total", func(g *Grid) { g.Total = math.Inf(1) }, "Total"},
		{"negative N", func(g *Grid) { g.Ns = []int{-3} }, "N >= 1"},
		{"zero N", func(g *Grid) { g.Ns = []int{10, 0} }, "N >= 1"},
		{"NaN r", func(g *Grid) { g.Rs = []float64{math.NaN()} }, "r > 0"},
		{"negative r", func(g *Grid) { g.Rs = []float64{-1} }, "r > 0"},
		{"negative cLat", func(g *Grid) { g.CLats = []float64{-1} }, "latencies"},
		{"infinite nLat", func(g *Grid) { g.NLats = []float64{math.Inf(1)} }, "latencies"},
		{"NaN error", func(g *Grid) { g.Errors = []float64{0, math.NaN()} }, "error magnitude"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := SmokeGrid()
			tc.mutate(&g)
			err := g.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed grid")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			// Every entry point must reject the grid the same way.
			if _, serr := OpenSweepState(g, []string{"RUMR"}, NormalError, false, "", ""); serr == nil {
				t.Fatal("OpenSweepState accepted a malformed grid")
			}
			r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}}}
			if _, _, cerr := r.ComputeConfig(context.Background(), g, Config{N: 10, R: 1.5}); cerr == nil {
				t.Fatal("ComputeConfig accepted a malformed grid")
			}
			if _, serr := r.Sweep(g); serr == nil {
				t.Fatal("Sweep accepted a malformed grid")
			}
		})
	}
}

// TestComputeCellIntoShape rejects destination blocks of the wrong shape
// before any simulation runs.
func TestComputeCellIntoShape(t *testing.T) {
	g := SmokeGrid()
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}}}
	cs := NewCellState()
	bad := NewCellBlock(len(g.Errors)-1, len(r.Algorithms))
	err := r.ComputeCellInto(context.Background(), g, g.Configs()[0], cs, bad)
	if err == nil || !strings.Contains(err.Error(), "destination block") {
		t.Fatalf("shape mismatch not rejected: %v", err)
	}
}
