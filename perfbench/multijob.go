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

	"rumr/internal/arrivals"
	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
)

// multiJobReps raises DefaultMultiJobGrid's ten arrival draws per cell so
// a pass takes ~0.3 s and a cell ~25 ms, long against the timer.
const multiJobReps = 100

// multiJob is the multi-job study as rumrsweep -multijob runs it:
// DefaultMultiJobGrid (three link policies × four arrival rates) for
// RUMR, Factoring and MI-1 on a one-worker pool. It is the only workload
// on engine.RunMulti and link arbitration.
type multiJob struct {
	c        config
	g        experiment.MultiJobGrid
	algos    []sched.Scheduler
	policies []string
	plans    plansTimer
	res      *experiment.MultiJobResults // the last pass's results
}

func multiJobGrid(seed uint64) experiment.MultiJobGrid {
	g := experiment.DefaultMultiJobGrid()
	g.Reps = multiJobReps
	g.BaseSeed = seed
	return g
}

func multiJobAlgorithms() []sched.Scheduler {
	return []sched.Scheduler{rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1}}
}

// setupMultiJob validates the grid and computes its first cell once at
// one repetition, which plans every job's dispatchers.
func setupMultiJob(ctx context.Context, c config) (instance, error) {
	m := &multiJob{c: c, g: multiJobGrid(c.seed), algos: multiJobAlgorithms()}
	if err := m.g.Validate(); err != nil {
		return nil, err
	}
	for _, p := range engine.LinkPolicies() {
		m.policies = append(m.policies, p.Name())
	}
	one := m.g
	one.Reps = 1
	r := &experiment.Runner{Algorithms: m.algos, Workers: 1}
	block := experiment.NewCellBlock(experiment.MultiCellRows, len(m.algos))
	if err := r.ComputeMultiJobCellInto(ctx, one, engine.LinkPolicies()[0], one.ArrivalRates[0], experiment.NewMultiCellState(), block); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *multiJob) close() error { return nil }

func (m *multiJob) pass(ctx context.Context, rec *recorder) (*passStats, error) {
	ps := &passStats{lanes: 1}
	algos := m.algos
	plans0 := m.plans.times()
	if rec != nil {
		algos = timeSchedulers(algos, &m.plans)
	}
	root := rec.open("multijob pass", 0, -1)
	defer rec.close(root)
	r := &experiment.Runner{Algorithms: algos, Workers: 1}
	h := sha256.New()
	for _, phase := range []string{"cold", "warm"} {
		met := metrics.New()
		r.Metrics = met
		sp := rec.open("study "+phase, root, -1)
		start := time.Now()
		res, err := m.study(ctx, r, rec, sp, ps)
		if err != nil {
			return nil, err
		}
		aggStart := time.Now()
		out := renderMultiJob(res)
		end := time.Now()
		ps.aggregate += end.Sub(aggStart)
		rec.add("aggregate", sp, -1, aggStart, end)
		rec.close(sp)
		if phase == "cold" {
			ps.wall = end.Sub(start)
		} else {
			ps.warm = end.Sub(start)
		}
		if err := checkMultiJob(res); err != nil {
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
		m.res = res
	}
	ps.digest = hex.EncodeToString(h.Sum(nil))
	ps.planTimes = m.plans.times()
	ps.planTimes.Calls -= plans0.Calls
	ps.planTimes.Nanos -= plans0.Nanos
	return ps, nil
}

// verify checks that the cell-by-cell study equals the study swept in
// one call.
func (m *multiJob) verify(ctx context.Context) error {
	whole, err := (&experiment.Runner{Algorithms: m.algos, Workers: 1}).MultiJobContext(ctx, m.g)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(whole)
	b, _ := json.Marshal(m.res)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("multijob: cell-by-cell results differ from the whole-grid sweep")
	}
	return nil
}

// study runs the multi-job study one (policy, arrival rate) cell at a
// time, timing each cell. A single-cell grid computes bit-identically
// to the same cell of the whole grid, because cells are seeded from the
// rate's value and the policy's name, not their positions.
func (m *multiJob) study(ctx context.Context, r *experiment.Runner, rec *recorder, parent uint64, ps *passStats) (*experiment.MultiJobResults, error) {
	g := m.g
	res := &experiment.MultiJobResults{Grid: g, Policies: m.policies}
	grow := func() [][]float64 { return make([][]float64, len(g.ArrivalRates)) }
	for pi, pol := range m.policies {
		res.MeanResponse = append(res.MeanResponse, grow())
		res.MeanSlowdown = append(res.MeanSlowdown, grow())
		res.MeanFairness = append(res.MeanFairness, grow())
		res.MeanMakespan = append(res.MeanMakespan, grow())
		for ri, rate := range g.ArrivalRates {
			cg := g
			cg.Policies = []string{pol}
			cg.ArrivalRates = []float64{rate}
			ps.attempted++
			start := time.Now()
			cell, err := r.MultiJobContext(ctx, cg)
			end := time.Now()
			if err != nil {
				ps.failed++
				return nil, fmt.Errorf("multijob cell %s rate %g: %w", pol, rate, err)
			}
			ps.cellMs = append(ps.cellMs, float64(end.Sub(start).Nanoseconds())/1e6)
			ps.busy += end.Sub(start)
			ps.cells++
			rec.add("cell", parent, pi*len(g.ArrivalRates)+ri, start, end)
			res.Algorithms = cell.Algorithms
			res.MeanResponse[pi][ri] = cell.MeanResponse[0][0]
			res.MeanSlowdown[pi][ri] = cell.MeanSlowdown[0][0]
			res.MeanFairness[pi][ri] = cell.MeanFairness[0][0]
			res.MeanMakespan[pi][ri] = cell.MeanMakespan[0][0]
		}
	}
	return res, nil
}

func renderMultiJob(res *experiment.MultiJobResults) []byte {
	var b bytes.Buffer
	g := res.Grid
	fmt.Fprintf(&b, "Multi-job study: %d jobs x %g units on %s\n", g.Jobs, g.Total, g.Config)
	for pi, pol := range res.Policies {
		fmt.Fprintf(&b, "\nlink policy: %s\n%-10s", pol, "rate")
		for _, a := range res.Algorithms {
			fmt.Fprintf(&b, "  %10s  %6s", a, "fair")
		}
		b.WriteByte('\n')
		for ri, rate := range g.ArrivalRates {
			fmt.Fprintf(&b, "%-10.3g", rate)
			for ai := range res.Algorithms {
				fmt.Fprintf(&b, "  %10.3f  %6.3f", res.MeanSlowdown[pi][ri][ai], res.MeanFairness[pi][ri][ai])
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// checkMultiJob holds at every seed: responses are finite and positive,
// every mean slowdown is at least 1 and every mean Jain fairness lies in
// (0, 1]. That every job completes is checked run by run in the replay.
func checkMultiJob(res *experiment.MultiJobResults) error {
	for pi, pol := range res.Policies {
		for ri, rate := range res.Grid.ArrivalRates {
			for ai, a := range res.Algorithms {
				resp, slow, fair := res.MeanResponse[pi][ri][ai], res.MeanSlowdown[pi][ri][ai], res.MeanFairness[pi][ri][ai]
				switch {
				case math.IsNaN(resp) || math.IsInf(resp, 0) || resp <= 0:
					return fmt.Errorf("multijob %s rate %g %s: mean response %v", pol, rate, a, resp)
				case !(slow >= 1):
					return fmt.Errorf("multijob %s rate %g %s: mean slowdown %v below 1", pol, rate, a, slow)
				case !(fair > 0 && fair <= 1):
					return fmt.Errorf("multijob %s rate %g %s: mean fairness %v outside (0, 1]", pol, rate, a, fair)
				}
			}
		}
	}
	return nil
}

// layers replays a stride sample of (cell, algorithm) pairs of the last
// pass, every repetition, through engine.RunMulti, checking that every
// job completes and that each pair's mean makespan is the study's.
func (m *multiJob) layers(ctx context.Context, rec *recorder, ls *layerStats) error {
	g := m.g
	p := g.Config.Platform()
	pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: g.Error, MinUnit: 1}
	nR, nA := len(g.ArrivalRates), len(m.algos)
	n := len(m.policies) * nR * nA
	k := stride(n, sampleRuns/g.Reps)
	sp := rec.open("replay engine.RunMulti", 0, -1)
	for i := 0; i < n; i += k {
		pi, ri, ai := i/(nR*nA), i/nA%nR, i%nA
		rate := g.ArrivalRates[ri]
		pol := engine.LinkPolicyByName(m.policies[pi])
		x, err := newReplayer(p, m.algos[ai], pr, g.Error, g.Jobs)
		if err != nil {
			return err
		}
		ms := make([]float64, g.Reps)
		start := time.Now()
		for rep := range ms {
			if err := ctx.Err(); err != nil {
				return err
			}
			arr, seed := jobArrivals(g, rate, rep), jobSeed(g, rate, rep)
			mk, err := x.replay(ls, true, func(ctr *engine.Counters, timed bool) (float64, int64, error) {
				return x.multi(arr, seed, pol, g.Total, ctr, timed)
			})
			if err != nil {
				return fmt.Errorf("replay multijob %s rate %g: %w", m.policies[pi], rate, err)
			}
			ms[rep] = mk
		}
		rec.add("engine.RunMulti "+m.algos[ai].Name(), sp, pi*nR+ri, start, time.Now())
		if err := samePlainMean(fmt.Sprintf("multijob %s rate %g %s", m.policies[pi], rate, m.algos[ai].Name()),
			ms, m.res.MeanMakespan[pi][ri][ai]); err != nil {
			return err
		}
	}
	rec.close(sp)
	if ls == nil {
		return nil
	}
	var blocks [][][]float64
	for pi := range m.policies {
		for ri := range g.ArrivalRates {
			blocks = append(blocks, [][]float64{m.res.MeanResponse[pi][ri], m.res.MeanSlowdown[pi][ri],
				m.res.MeanFairness[pi][ri], m.res.MeanMakespan[pi][ri]})
		}
	}
	sp = rec.open("replay cache+checkpoint", 0, -1)
	defer rec.close(sp)
	return replayStore(ctx, ls, m.c.dir, g.Config, blocks)
}

// jobArrivals and jobSeed derive one (rate, repetition) instance's
// arrival times and error-stream seed the way the multi-job study does:
// from the rate's value and the repetition only, so every policy and
// algorithm faces the same instance.
func jobArrivals(g experiment.MultiJobGrid, rate float64, rep int) []float64 {
	if rate <= 0 {
		return make([]float64, g.Jobs)
	}
	src := rng.NewFrom(g.BaseSeed, 0x6a6f6273, math.Float64bits(rate), uint64(rep))
	return arrivals.Poisson(rate).Times(g.Jobs, src)
}

func jobSeed(g experiment.MultiJobGrid, rate float64, rep int) uint64 {
	return rng.NewFrom(g.BaseSeed, 0x657272, math.Float64bits(rate), uint64(rep)).Uint64()
}
