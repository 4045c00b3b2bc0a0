package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/fault"
	"rumr/internal/metrics"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/rumr"
)

// resilienceReps raises DefaultResilienceGrid's ten fault scenarios per
// crash rate so a study takes ~0.1 s.
const resilienceReps = 40

// resilience is the resilience study as rumrsweep -resilience runs it:
// DefaultResilienceGrid (crash rates 0 to 0.5, re-dispatch recovery on)
// for the seven standard algorithms plus fault-tolerant RUMR on a
// one-worker pool. It is the only workload on the engine's fault path.
// The study reports no per-row progress, so its cell is one whole study.
type resilience struct {
	c     config
	g     experiment.ResilienceGrid
	algos []sched.Scheduler
	plans plansTimer
	res   *experiment.ResilienceResults // the last pass's results
}

func resilienceGrid(seed uint64) experiment.ResilienceGrid {
	g := experiment.DefaultResilienceGrid()
	g.Reps = resilienceReps
	g.BaseSeed = seed
	return g
}

func resilienceAlgorithms() []sched.Scheduler {
	return append(experiment.StandardAlgorithms(), rumr.FaultTolerant{})
}

// setupResilience runs the study once at one repetition: baselines,
// horizon, and one fault scenario per crash rate.
func setupResilience(ctx context.Context, c config) (instance, error) {
	t := &resilience{c: c, g: resilienceGrid(c.seed), algos: resilienceAlgorithms()}
	one := t.g
	one.Reps = 1
	if _, err := (&experiment.Runner{Algorithms: t.algos, Workers: 1}).ResilienceContext(ctx, one); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *resilience) close() error { return nil }

// verify has nothing to add: every pass checks its own outputs.
func (t *resilience) verify(context.Context) error { return nil }

func (t *resilience) pass(ctx context.Context, rec *recorder) (*passStats, error) {
	ps := &passStats{lanes: 1}
	algos := t.algos
	plans0 := t.plans.times()
	if rec != nil {
		algos = timeSchedulers(algos, &t.plans)
	}
	root := rec.open("resilience pass", 0, -1)
	defer rec.close(root)
	r := &experiment.Runner{Algorithms: algos, Workers: 1}
	h := sha256.New()
	for i, phase := range []string{"cold", "warm"} {
		met := metrics.New()
		r.Metrics = met
		ps.attempted++
		start := time.Now()
		res, err := r.ResilienceContext(ctx, t.g)
		if err != nil {
			ps.failed++
			return nil, fmt.Errorf("resilience %s study: %w", phase, err)
		}
		aggStart := time.Now()
		out := renderResilience(res)
		end := time.Now()
		ps.aggregate += end.Sub(aggStart)
		sp := rec.add("study "+phase, root, i, start, end)
		rec.add("aggregate", sp, i, aggStart, end)
		cell := aggStart.Sub(start)
		ps.cellMs = append(ps.cellMs, float64(cell.Nanoseconds())/1e6)
		ps.busy += cell
		ps.cells++
		if phase == "cold" {
			ps.wall = end.Sub(start)
		} else {
			ps.warm = end.Sub(start)
		}
		if err := checkResilience(res); err != nil {
			return nil, err
		}
		s := met.Snapshot()
		ps.runs += s.Simulations
		ps.events += s.Events
		ps.engine.Merge(s.Engine)
		if err := json.NewEncoder(h).Encode(res); err != nil {
			return nil, err
		}
		h.Write(out)
		t.res = res
	}
	ps.digest = hex.EncodeToString(h.Sum(nil))
	ps.planTimes = t.plans.times()
	ps.planTimes.Calls -= plans0.Calls
	ps.planTimes.Nanos -= plans0.Nanos
	return ps, nil
}

func renderResilience(res *experiment.ResilienceResults) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Resilience study: mean makespan / fault-free baseline\n%-10s", "crash")
	for _, a := range res.Algorithms {
		fmt.Fprintf(&b, "  %12s", a)
	}
	b.WriteByte('\n')
	for ri, rate := range res.Grid.CrashRates {
		fmt.Fprintf(&b, "%-10.2f", rate)
		for ai := range res.Algorithms {
			fmt.Fprintf(&b, "  %12.3f", res.Degradation[ri][ai])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkResilience holds at every seed: with recovery on, every algorithm
// completes the whole workload at every crash rate, degradation at crash
// rate 0 is exactly 1 (the same runs as the baseline), and every mean
// is finite and positive.
func checkResilience(res *experiment.ResilienceResults) error {
	minComp := math.Inf(1)
	for ri, rate := range res.Grid.CrashRates {
		for ai, a := range res.Algorithms {
			m, c := res.Mean[ri][ai], res.Completion[ri][ai]
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				return fmt.Errorf("resilience crash %g %s: mean makespan %v", rate, a, m)
			}
			minComp = math.Min(minComp, c)
			if rate == 0 && res.Degradation[ri][ai] != 1 {
				return fmt.Errorf("resilience %s: degradation %v at crash rate 0, want 1", a, res.Degradation[ri][ai])
			}
		}
	}
	if minComp != 1 {
		return fmt.Errorf("resilience: min workload completion %v, want 1", minComp)
	}
	return nil
}

// layers replays a stride sample of the study's (leg, algorithm) pairs,
// every repetition — legs are the fault-free baseline and each crash
// rate — through engine.Run with the study's fault schedules, checking
// each pair's mean against the study's.
func (t *resilience) layers(ctx context.Context, rec *recorder, ls *layerStats) error {
	g, res := t.g, t.res
	p := g.Config.Platform()
	pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: g.Error, MinUnit: 1}
	horizon := 0.0
	for _, b := range res.Baseline {
		if !math.IsNaN(b) && 1.5*b > horizon {
			horizon = 1.5 * b
		}
	}
	nL, nA := 1+len(g.CrashRates), len(t.algos)
	n := nL * nA
	k := stride(n, sampleRuns/g.Reps)
	sp := rec.open("replay engine.Run", 0, -1)
	for i := 0; i < n; i += k {
		leg, ai := i/nA, i%nA
		x, err := newReplayer(p, t.algos[ai], pr, g.Error, 1)
		if err != nil {
			return err
		}
		ms := make([]float64, g.Reps)
		start := time.Now()
		for rep := range ms {
			if err := ctx.Err(); err != nil {
				return err
			}
			// The study's streams: the error streams from (seed, rep), the
			// fault scenario from (seed, crash rate index, rep).
			seed := []uint64{g.BaseSeed, uint64(rep)}
			var faults *fault.Schedule
			var recovery fault.Recovery
			if leg > 0 {
				ri := leg - 1
				sc := fault.Scenario{
					Horizon: horizon, CrashProb: g.CrashRates[ri], RejoinProb: g.RejoinProb,
					RejoinDelayMin: horizon * 0.1, RejoinDelayMax: horizon * 0.5,
				}
				faults = sc.Generate(p.N(), rng.NewFrom(g.BaseSeed, uint64(ri), uint64(rep), 0xFA))
				recovery = fault.Recovery{Enabled: true, TimeoutFactor: 4} // the study's default
			}
			mk, err := x.replay(ls, false, func(ctr *engine.Counters, timed bool) (float64, int64, error) {
				return x.single(seed, faults, recovery, ctr, timed)
			})
			if err != nil {
				return fmt.Errorf("replay resilience leg %d: %w", leg, err)
			}
			ms[rep] = mk
		}
		rec.add("engine.Run "+t.algos[ai].Name(), sp, leg, start, time.Now())
		want := res.Baseline[ai]
		if leg > 0 {
			want = res.Mean[leg-1][ai]
		}
		if err := samePlainMean(fmt.Sprintf("resilience leg %d %s", leg, t.algos[ai].Name()), ms, want); err != nil {
			return err
		}
	}
	rec.close(sp)
	if ls == nil {
		return nil
	}
	blocks := make([][][]float64, len(g.CrashRates))
	for ri := range blocks {
		blocks[ri] = [][]float64{res.Mean[ri], res.Degradation[ri], res.Completion[ri], res.Redispatches[ri]}
	}
	sp = rec.open("replay cache+checkpoint", 0, -1)
	defer rec.close(sp)
	return replayStore(ctx, ls, t.c.dir, g.Config, blocks)
}
