package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/fault"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

// sampleRuns is roughly how many runs a workload's sample replays; each
// is run twice, plainly and through the timing wrappers.
const sampleRuns = 2000

// stride picks every k-th of n items so that about want of them are
// taken; k is odd and not a multiple of 7 or 13, so a stride through
// (error × algorithm)-ordered triples still visits every error level and
// every algorithm.
func stride(n, want int) int {
	k := max(1, n/max(want, 1))
	for k > 1 && (k%2 == 0 || k%7 == 0 || k%13 == 0) {
		k++
	}
	return k
}

// replayer replays the repetitions of one (platform, algorithm, error)
// pair of a study the way the study's batched cells run them: one
// dispatcher per job, Reset between repetitions when it supports replay
// (rebuilt otherwise), error streams reseeded in place and models bound
// once. A replayed run therefore allocates like the study's own, and its
// timings compare with the study's.
type replayer struct {
	p    *platform.Platform
	algo sched.Scheduler
	pr   *sched.Problem

	d      []engine.Dispatcher // one per job (one for single-job runs)
	rp     []sched.Replayable
	timedD []engine.Dispatcher

	src              rng.Source
	seed             [1]uint64
	commSrc, compSrc []rng.Source
	comm, comp       []perferr.Model
	timedM           [][2]perferr.Model
	jobs             []engine.Job
	jobRes           []engine.JobResult

	next, draw callTimes
	warmed     bool
}

func newReplayer(p *platform.Platform, algo sched.Scheduler, pr *sched.Problem, errMag float64, jobs int) (*replayer, error) {
	x := &replayer{p: p, algo: algo, pr: pr,
		d: make([]engine.Dispatcher, jobs), rp: make([]sched.Replayable, jobs), timedD: make([]engine.Dispatcher, jobs),
		commSrc: make([]rng.Source, jobs), compSrc: make([]rng.Source, jobs),
		comm: make([]perferr.Model, jobs), comp: make([]perferr.Model, jobs), timedM: make([][2]perferr.Model, jobs),
		jobs: make([]engine.Job, jobs), jobRes: make([]engine.JobResult, jobs)}
	for j := 0; j < jobs; j++ {
		d, err := algo.NewDispatcher(pr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", algo.Name(), err)
		}
		x.d[j] = d
		x.rp[j], _ = d.(sched.Replayable)
		if x.rp[j] != nil {
			x.timedD[j] = timeDispatcher(d, &x.next)
		}
		if errMag > 0 {
			x.comm[j] = &perferr.TruncNormal{Err: errMag, Src: &x.commSrc[j]}
			x.comp[j] = &perferr.TruncNormal{Err: errMag, Src: &x.compSrc[j]}
		} else {
			x.comm[j], x.comp[j] = perferr.Perfect{}, perferr.Perfect{}
		}
		x.timedM[j] = [2]perferr.Model{timeModel(x.comm[j], &x.draw), timeModel(x.comp[j], &x.draw)}
	}
	return x, nil
}

// dispatcher readies job j's dispatcher for a new repetition.
func (x *replayer) dispatcher(j int, timed bool) (engine.Dispatcher, error) {
	if x.rp[j] != nil {
		x.rp[j].Reset()
		if timed {
			return x.timedD[j], nil
		}
		return x.d[j], nil
	}
	d, err := x.algo.NewDispatcher(x.pr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", x.algo.Name(), err)
	}
	if timed {
		d = timeDispatcher(d, &x.next)
	}
	return d, nil
}

func (x *replayer) models(j int, timed bool) (perferr.Model, perferr.Model) {
	if timed {
		return x.timedM[j][0], x.timedM[j][1]
	}
	return x.comm[j], x.comp[j]
}

// single runs one repetition through engine.Run. seed holds the
// rng.NewFrom parts of the repetition's master stream.
func (x *replayer) single(seed []uint64, faults *fault.Schedule, rec fault.Recovery, ctr *engine.Counters, timed bool) (float64, int64, error) {
	d, err := x.dispatcher(0, timed)
	if err != nil {
		return 0, 0, err
	}
	x.src.ReseedFrom(seed...)
	x.src.SplitInto(&x.commSrc[0])
	x.src.SplitInto(&x.compSrc[0])
	comm, comp := x.models(0, timed)
	start := time.Now()
	out, err := engine.Run(x.p, d, engine.Options{
		CommModel: comm, CompModel: comp, Counters: ctr, Faults: faults, Recovery: rec,
	})
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", x.algo.Name(), err)
	}
	return out.Makespan, ns, nil
}

// multi runs one repetition through engine.RunMulti and fails when a job
// did not complete its whole workload.
func (x *replayer) multi(arrivals []float64, seed uint64, policy engine.LinkPolicy, total float64, ctr *engine.Counters, timed bool) (float64, int64, error) {
	x.seed[0] = seed
	x.src.ReseedFrom(x.seed[:]...)
	for j := range x.jobs {
		d, err := x.dispatcher(j, timed)
		if err != nil {
			return 0, 0, err
		}
		x.src.SplitInto(&x.commSrc[j])
		x.src.SplitInto(&x.compSrc[j])
		comm, comp := x.models(j, timed)
		x.jobs[j] = engine.Job{
			Name: "job", Arrival: arrivals[j], Priority: len(x.jobs) - 1 - j, Weight: 1, Total: total,
			Dispatcher: d, CommModel: comm, CompModel: comp,
		}
	}
	start := time.Now()
	out, err := engine.RunMulti(x.p, x.jobs, engine.MultiOptions{Policy: policy, Counters: ctr, JobResults: x.jobRes})
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", x.algo.Name(), err)
	}
	for j, jr := range out.Jobs {
		if math.Abs(jr.CompletedWork-total) > 1e-6*total {
			return 0, 0, fmt.Errorf("%s: job %d completed %g of %g units", x.algo.Name(), j, jr.CompletedWork, total)
		}
	}
	return out.Makespan, ns, nil
}

// replay plays one repetition plainly, with counters, then again with
// timing wrappers on the dispatchers and error models, and fails if the
// wrappers changed the makespan. play runs the repetition. ls may be nil
// (a correctness-only replay).
func (x *replayer) replay(ls *layerStats, multi bool, play func(ctr *engine.Counters, timed bool) (float64, int64, error)) (float64, error) {
	if !x.warmed {
		// A study runs a pair's repetitions back to back on a platform
		// and plan already in cache; one untimed run warms them the same
		// way.
		if _, _, err := play(nil, false); err != nil {
			return 0, err
		}
		x.warmed = true
	}
	var ctr engine.Counters
	plain, ns, err := play(&ctr, false)
	if err != nil {
		return 0, err
	}
	x.next, x.draw = callTimes{}, callTimes{}
	timed, _, err := play(nil, true)
	if err != nil {
		return 0, err
	}
	if math.Float64bits(timed) != math.Float64bits(plain) {
		return 0, fmt.Errorf("%s: timed replay makespan %v differs from plain %v", x.algo.Name(), timed, plain)
	}
	if ls != nil {
		ls.multi = multi
		ls.runs++
		ls.runNanos += ns
		ls.ctr.Merge(ctr)
		ls.next.add(x.next)
		ls.draw.add(x.draw)
	}
	return plain, nil
}

// samePlainMean checks that the replayed makespans average, summed in
// repetition order like the sweeps' accumulators, to exactly the study's
// reported mean.
func samePlainMean(what string, makespans []float64, want float64) error {
	var sum float64
	for _, m := range makespans {
		sum += m
	}
	got := sum / float64(len(makespans))
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: replayed mean makespan %v, the study reported %v", what, got, want)
	}
	return nil
}

// replayPlans times dispatcher construction for configurations the way
// a sweep cell plans them: one memo per configuration, one dispatcher
// per (error, algorithm).
func replayPlans(ls *layerStats, g experiment.Grid, configs []experiment.Config, algos []sched.Scheduler) error {
	for _, cfg := range configs {
		p := cfg.Platform()
		memo := sched.NewMemo(p)
		for _, e := range g.Errors {
			pr := &sched.Problem{Platform: p, Total: g.Total, KnownError: e, MinUnit: 1}
			for _, a := range algos {
				start := time.Now()
				var err error
				if m, ok := a.(sched.Memoizer); ok {
					_, err = m.NewDispatcherMemo(pr, memo)
				} else {
					_, err = a.NewDispatcher(pr)
				}
				ls.plan.Nanos += time.Since(start).Nanoseconds()
				ls.plan.Calls++
				if err != nil {
					return fmt.Errorf("plan %s on %s: %w", a.Name(), cfg, err)
				}
			}
		}
	}
	return nil
}

// maxStoreBlocks bounds the cell blocks replayed through the cache and
// the checkpoint; every checkpoint append syncs to disk.
const maxStoreBlocks = 48

// replayStore writes the workload's own result blocks through a fresh
// result cache and checkpoint under dir, reads them back, and times each
// Put, Get and Append.
func replayStore(ctx context.Context, ls *layerStats, dir string, cfg experiment.Config, blocks [][][]float64) error {
	dir = filepath.Join(dir, "store-replay")
	defer os.RemoveAll(dir)
	cache, err := experiment.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	ck, err := experiment.OpenCheckpoint(filepath.Join(dir, "checkpoint.jsonl"), "perfbench-store-replay")
	if err != nil {
		return err
	}
	defer ck.Close()
	step := max(1, len(blocks)/maxStoreBlocks)
	for i := 0; i < len(blocks); i += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := blocks[i]
		key := fmt.Sprintf("perfbench-%06d", i)
		start := time.Now()
		err := cache.Put(key, cfg, b)
		ls.cachePut.Nanos += time.Since(start).Nanoseconds()
		ls.cachePut.Calls++
		if err != nil {
			return err
		}
		start = time.Now()
		got, ok := cache.Get(key, len(b), len(b[0]))
		ls.cacheGet.Nanos += time.Since(start).Nanoseconds()
		ls.cacheGet.Calls++
		if !ok || !sameBlock(got, b) {
			return fmt.Errorf("cache replay: block %d did not read back bit-identical", i)
		}
		start = time.Now()
		err = ck.Append(i, b)
		ls.ckptAppend.Nanos += time.Since(start).Nanoseconds()
		ls.ckptAppend.Calls++
		if err != nil {
			return err
		}
	}
	return ck.Close()
}

// sameBlock compares two blocks bit for bit (NaN marks equal NaN).
func sameBlock(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// replayCell replays every repetition of one (configuration, error,
// algorithm) triple of a grid sweep and checks their mean against want,
// the sweep's reported mean.
func replayCell(ls *layerStats, rec *recorder, parent uint64, g experiment.Grid, cfg experiment.Config, ci, ei int, algo sched.Scheduler, want float64) error {
	p := cfg.Platform()
	e := g.Errors[ei]
	x, err := newReplayer(p, algo, &sched.Problem{Platform: p, Total: g.Total, KnownError: e, MinUnit: 1}, e, 1)
	if err != nil {
		return err
	}
	// The stream derivation of experiment.ComputeCell: the
	// configuration's values, the error value and the repetition.
	seed := []uint64{g.BaseSeed, uint64(cfg.N), math.Float64bits(cfg.R),
		math.Float64bits(cfg.CLat), math.Float64bits(cfg.NLat), math.Float64bits(e), 0}
	ms := make([]float64, g.Reps)
	start := time.Now()
	for rep := range ms {
		seed[6] = uint64(rep)
		m, err := x.replay(ls, false, func(ctr *engine.Counters, timed bool) (float64, int64, error) {
			return x.single(seed, nil, fault.Recovery{}, ctr, timed)
		})
		if err != nil {
			return fmt.Errorf("replay %s error %g: %w", cfg, e, err)
		}
		ms[rep] = m
	}
	rec.add("engine.Run "+algo.Name(), parent, ci, start, time.Now())
	return samePlainMean(fmt.Sprintf("%s on %s error %g", algo.Name(), cfg, e), ms, want)
}
