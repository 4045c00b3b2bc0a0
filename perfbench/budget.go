package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"rumr/internal/engine"
	"rumr/internal/sched"
)

// layerStats holds the per-layer unit costs a traced run measures by
// replaying a sample of the workload's own work.
type layerStats struct {
	clock time.Duration // cost of one timed call's clock reads

	// The sampled runs, replayed plainly: count, wall time and counters.
	multi    bool // the runs are multi-job (engine.RunMulti)
	runs     int64
	runNanos int64
	ctr      engine.Counters
	// The same runs again with timing wrappers on dispatchers and error
	// models.
	next, draw callTimes

	// plan times dispatcher construction when the passes could not
	// (fleet workers build their own schedulers).
	plan callTimes

	cacheGet, cachePut, ckptAppend callTimes
}

// plansTimer counts and times plan construction across goroutines.
type plansTimer struct {
	calls, nanos atomic.Int64
}

func (p *plansTimer) observe(start time.Time) {
	p.nanos.Add(time.Since(start).Nanoseconds())
	p.calls.Add(1)
}

func (p *plansTimer) times() callTimes {
	return callTimes{Calls: p.calls.Load(), Nanos: p.nanos.Load()}
}

// timedScheduler times dispatcher construction (the plan) of the
// scheduler it wraps and hands back the scheduler's own dispatcher, so
// the runs themselves are untouched.
type timedScheduler struct {
	s sched.Scheduler
	t *plansTimer
}

func (w timedScheduler) Name() string { return w.s.Name() }

func (w timedScheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	start := time.Now()
	d, err := w.s.NewDispatcher(pr)
	w.t.observe(start)
	return d, err
}

// timedMemoScheduler is timedScheduler for schedulers that plan through
// a sched.Memo; the wrapper is a sched.Memoizer exactly when the wrapped
// scheduler is.
type timedMemoScheduler struct {
	timedScheduler
	m sched.Memoizer
}

func (w timedMemoScheduler) NewDispatcherMemo(pr *sched.Problem, memo *sched.Memo) (engine.Dispatcher, error) {
	start := time.Now()
	d, err := w.m.NewDispatcherMemo(pr, memo)
	w.t.observe(start)
	return d, err
}

// timeSchedulers wraps every algorithm so its plans are timed into t.
func timeSchedulers(algos []sched.Scheduler, t *plansTimer) []sched.Scheduler {
	out := make([]sched.Scheduler, len(algos))
	for i, a := range algos {
		w := timedScheduler{s: a, t: t}
		if m, ok := a.(sched.Memoizer); ok {
			out[i] = timedMemoScheduler{w, m}
		} else {
			out[i] = w
		}
	}
	return out
}

// layerMetrics turns the replay's unit costs and the passes' volumes
// into the per-layer metrics and the cost budget: unit cost × volume
// per layer, against the cells' measured wall time, with the remainder
// reported as experiment.unexplained_frac.
func layerMetrics(ls *layerStats, plain, traced *totals) (map[string]metric, string) {
	runs := float64(ls.runs)
	clk := float64(ls.clock.Nanoseconds()) // the clock's share of each timed interval
	nextNs := ratio(float64(ls.next.Nanos)-clk*float64(ls.next.Calls), float64(ls.next.Calls))
	drawNs := ratio(float64(ls.draw.Nanos)-clk*float64(ls.draw.Calls), float64(ls.draw.Calls))
	selfNs := float64(ls.runNanos) - nextNs*float64(ls.next.Calls) - drawNs*float64(ls.draw.Calls)
	selfPerEvent := ratio(selfNs, float64(ls.ctr.EventsPopped))
	runUs := ratio(float64(ls.runNanos)/1e3, runs)
	draws := ls.ctr.TruncNormalDraws + ls.ctr.UniformDraws + ls.ctr.OtherDraws

	// Per-pass volumes, from the untraced passes (every pass does the
	// same work).
	n := float64(len(plain.passes))
	var pass struct {
		runs, events, syncs, draws, busy float64
		lanesWall, aggregate             float64
	}
	for _, p := range plain.passes {
		pass.runs += float64(p.runs) / n
		pass.events += float64(p.events) / n
		pass.syncs += float64(p.engine.SyncViewCopies) / n
		pass.draws += float64(p.engine.TruncNormalDraws+p.engine.UniformDraws+p.engine.OtherDraws) / n
		pass.busy += p.busy.Seconds() / n
		pass.lanesWall += (p.wall + p.warm).Seconds() * float64(p.lanes) / n
		pass.aggregate += p.aggregate.Seconds() / n
	}
	// Studies that do not feed engine counters to their collector get
	// the sample's per-run volumes scaled to the pass.
	if pass.syncs == 0 {
		pass.syncs = ratio(float64(ls.next.Calls), runs) * pass.runs
		pass.draws = ratio(float64(draws), runs) * pass.runs
	}
	plan := ls.plan
	var planPerPass float64
	var cellMs []float64
	var sh shardStats
	for _, p := range traced.passes {
		planPerPass += float64(p.planTimes.Calls) / float64(len(traced.passes))
		plan.add(p.planTimes)
		cellMs = append(cellMs, p.cellMs...)
		if p.shard != nil {
			sh.add(p.shard)
		}
	}
	if ls.plan.Calls > 0 { // fleet: plans happen on the workers
		planPerPass = float64(plain.passes[0].plans)
	}
	planUs := ratio(float64(plan.Nanos)/1e3, float64(plan.Calls))

	type row struct {
		layer, unit  string
		cost, volume float64 // cost in seconds per unit
	}
	rows := []row{
		{"sched.Next", "call", nextNs / 1e9, pass.syncs},
		{"perferr.Perturb", "draw", drawNs / 1e9, pass.draws},
		{"engine self", "event", selfPerEvent / 1e9, pass.events},
		{"sched.plan", "plan", planUs / 1e6, planPerPass},
	}
	if sh.results > 0 {
		rows = append(rows, row{"shard result post", "post", sh.resultRTT.Seconds() / float64(sh.results),
			float64(sh.results) / float64(len(traced.passes))})
	}
	var explained float64
	var b strings.Builder
	fmt.Fprintf(&b, "  %-18s %16s %14s %12s %8s\n", "layer", "unit cost", "volume", "total ms", "share")
	for _, r := range rows {
		total := r.cost * r.volume
		explained += total
		fmt.Fprintf(&b, "  %-18s %9.4g us/%-5s %14.0f %12.2f %7.1f%%\n",
			r.layer, r.cost*1e6, r.unit, r.volume, total*1e3, 100*ratio(total, pass.busy))
	}
	unexplained := 1 - ratio(explained, pass.busy)
	fmt.Fprintf(&b, "  %-18s %16s %14s %12.2f %7.1f%%\n", "unexplained", "", "", (pass.busy-explained)*1e3, 100*unexplained)
	fmt.Fprintf(&b, "  %-18s %16s %14s %12.2f %7s\n", "cell time", "", "", pass.busy*1e3, "100%")

	m := map[string]metric{
		"des.events_per_run":                  {ratio(float64(ls.ctr.EventsPopped), runs), "count"},
		"des.replace_frac":                    {ratio(float64(ls.ctr.EventsReplaced), float64(ls.ctr.EventsPushed)), "ratio"},
		"des.lazy_cancels_per_run":            {ratio(float64(ls.ctr.LazyCancels), runs), "count"},
		"des.max_heap_depth":                  {float64(ls.ctr.MaxHeapDepth), "count"},
		"engine.run_us":                       {0, "us"},
		"engine.self_ns_per_event":            {0, "ns"},
		"engine.multi_run_us":                 {0, "us"},
		"engine.multi_self_ns_per_event":      {0, "ns"},
		"engine.sync_view_bytes_per_dispatch": {ratio(float64(ls.ctr.SyncViewBytes), float64(ls.ctr.SyncViewCopies)), "B"},
		"engine.redispatches_per_run":         {ratio(float64(ls.ctr.Redispatches), runs), "count"},
		"sched.plan_us":                       {planUs, "us"},
		"sched.next_ns":                       {nextNs, "ns"},
		"sched.next_decline_frac":             {ratio(float64(ls.next.Declines), float64(ls.next.Calls)), "ratio"},
		"perferr.draw_ns":                     {drawNs, "ns"},
		"perferr.draws_per_run":               {ratio(float64(draws), runs), "count"},
		"experiment.cell_ms":                  {mean(cellMs), "ms"},
		"experiment.pool_busy_frac":           {ratio(pass.busy, pass.lanesWall), "ratio"},
		"experiment.aggregate_ms":             {pass.aggregate * 1e3 / 2, "ms"},
		"experiment.unexplained_frac":         {unexplained, "ratio"},
		"cache.get_us":                        {ratio(float64(ls.cacheGet.Nanos)/1e3, float64(ls.cacheGet.Calls)), "us"},
		"cache.put_us":                        {ratio(float64(ls.cachePut.Nanos)/1e3, float64(ls.cachePut.Calls)), "us"},
		"cache.hit_frac":                      {ratio(float64(sh.cacheHits), float64(sh.cacheLookup)), "ratio"},
		"checkpoint.append_us":                {ratio(float64(ls.ckptAppend.Nanos)/1e3, float64(ls.ckptAppend.Calls)), "us"},
	}
	if ls.multi {
		m["engine.multi_run_us"] = metric{runUs, "us"}
		m["engine.multi_self_ns_per_event"] = metric{selfPerEvent, "ns"}
	} else {
		m["engine.run_us"] = metric{runUs, "us"}
		m["engine.self_ns_per_event"] = metric{selfPerEvent, "ns"}
	}
	for k, v := range sh.metrics() {
		m[k] = v
	}
	return m, b.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
