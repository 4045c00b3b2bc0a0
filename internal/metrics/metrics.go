// Package metrics provides low-overhead run counters for long sweeps: a
// Collector of atomic counters and log-bucketed histograms that the
// simulation engine and the sweep runner feed, and a consistent-enough
// Snapshot with derived rates (runs/sec, ETA) and p50/p90/p99 summaries
// for periodic progress lines, the sweep debug endpoint and end-of-run
// dumps.
//
// All Collector methods are safe for concurrent use; the hot-path cost is
// a handful of atomic adds plus two histogram observations per simulated
// run, so wiring a Collector into a sweep does not perturb benchmarks
// measurably.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Collector accumulates counters across a sweep (or several sequential
// sweeps). The zero value is NOT ready to use — call New, which records
// the start time that rates and ETA are computed against.
type Collector struct {
	start time.Time

	simulations    atomic.Int64
	events         atomic.Int64
	chunks         atomic.Int64
	configsDone    atomic.Int64
	configsTotal   atomic.Int64
	configsSkipped atomic.Int64

	multiJobRuns atomic.Int64

	plansBuilt  atomic.Int64
	plansShared atomic.Int64

	makespans    *Histogram // per-run makespan
	chunksPerRun *Histogram // per-run dispatched chunk count
	configWall   *Histogram // per-configuration wall time, seconds
	jobResponse  *Histogram // per-job response time in multi-job runs
	jobSlowdown  *Histogram // per-job slowdown in multi-job runs
	fairness     *Histogram // per-run Jain fairness index

	engMu sync.Mutex
	eng   EngineCounters // engine hot-path counters, see AddEngineCounters
}

// New returns a Collector whose clock starts now.
func New() *Collector {
	return &Collector{
		start:        time.Now(),
		makespans:    NewHistogram(),
		chunksPerRun: NewHistogram(),
		configWall:   NewHistogram(),
		jobResponse:  NewHistogram(),
		jobSlowdown:  NewHistogram(),
		fairness:     NewHistogram(),
	}
}

// AddRun records one completed simulation: its dispatched chunk count,
// the number of DES events the engine processed and its makespan.
func (c *Collector) AddRun(chunks int, events uint64, makespan float64) {
	c.simulations.Add(1)
	c.chunks.Add(int64(chunks))
	c.events.Add(int64(events))
	c.makespans.Observe(makespan)
	c.chunksPerRun.Observe(float64(chunks))
}

// ConfigDone records one completed sweep configuration and how long it
// took in wall time.
func (c *Collector) ConfigDone(wall time.Duration) {
	c.configsDone.Add(1)
	c.configWall.Observe(wall.Seconds())
}

// AddPlans records the plan constructions of one batch of dispatcher
// prototype builds: built plans were constructed, shared ones were served
// by a sweep runner's shared plan tier without being built. Callers add
// per prototype build, never per simulated run.
func (c *Collector) AddPlans(built, shared int) {
	c.plansBuilt.Add(int64(built))
	c.plansShared.Add(int64(shared))
}

// AddTotalConfigs grows the expected-configuration total. Sequential
// sweeps sharing one Collector each add their own config count, so the
// ETA always covers the work registered so far. The total counts every
// configuration of the sweep — including ones later restored from a
// checkpoint or cache, which SkipConfigs reports — so the done/total pair
// always shares one denominator with the runner's Progress callback.
func (c *Collector) AddTotalConfigs(n int) {
	c.configsTotal.Add(int64(n))
}

// SkipConfigs records n configurations restored from a checkpoint or the
// result cache rather than computed. They count as done (progress bars and
// Progress callbacks agree on the denominator) but are excluded from the
// completion rate, so ETA reflects only real compute.
func (c *Collector) SkipConfigs(n int) {
	c.configsSkipped.Add(int64(n))
	c.configsDone.Add(int64(n))
}

// Snapshot is a point-in-time copy of the counters with derived rates.
// Counters are read individually (not under a lock), so a snapshot taken
// mid-run may be off by a few in-flight runs — fine for progress display.
type Snapshot struct {
	Simulations  int64 `json:"simulations"`
	Events       int64 `json:"events"`
	Chunks       int64 `json:"chunks"`
	ConfigsDone  int64 `json:"configs_done"`
	ConfigsTotal int64 `json:"configs_total"`
	// ConfigsSkipped counts configurations restored from a checkpoint or
	// the result cache; they are included in ConfigsDone but not in the
	// rate behind ETASec.
	ConfigsSkipped int64   `json:"configs_skipped"`
	ElapsedSec     float64 `json:"elapsed_seconds"`
	RunsPerSec     float64 `json:"runs_per_sec"`
	// ETASec estimates the remaining wall time from the configuration
	// completion rate; it is 0 until the first configuration finishes.
	ETASec float64 `json:"eta_seconds"`
	// RunMakespan, ChunksPerRun and ConfigWallSec summarise the per-run
	// makespans, per-run chunk counts and per-configuration wall times
	// observed so far (log-bucketed percentiles, exact extremes).
	RunMakespan   HistSummary `json:"run_makespan"`
	ChunksPerRun  HistSummary `json:"chunks_per_run"`
	ConfigWallSec HistSummary `json:"config_wall_seconds"`
	// MultiJobRuns counts recorded multi-job runs; JobResponse, JobSlowdown
	// and Fairness summarise their per-job response times, slowdowns and
	// per-run Jain fairness indices (see Collector.AddMultiJob).
	MultiJobRuns int64       `json:"multi_job_runs"`
	JobResponse  HistSummary `json:"job_response"`
	JobSlowdown  HistSummary `json:"job_slowdown"`
	Fairness     HistSummary `json:"fairness"`
	// PlansBuilt counts plan constructions (UMR's round optimisation,
	// RUMR's phase-1 share, MI's linear solve) run while building
	// dispatcher prototypes; PlansShared counts prototype builds served a
	// plan by the runner's shared tier instead (see AddPlans).
	PlansBuilt  int64 `json:"plans_built"`
	PlansShared int64 `json:"plans_shared"`
	// Engine aggregates the engine hot-path counters fed through
	// AddEngineCounters — in a distributed sweep, across every worker.
	Engine EngineCounters `json:"engine"`
}

// Snapshot captures the current counter values and derived rates.
func (c *Collector) Snapshot() Snapshot {
	c.engMu.Lock()
	eng := c.eng
	c.engMu.Unlock()
	s := Snapshot{
		Simulations:    c.simulations.Load(),
		Events:         c.events.Load(),
		Chunks:         c.chunks.Load(),
		ConfigsDone:    c.configsDone.Load(),
		ConfigsTotal:   c.configsTotal.Load(),
		ConfigsSkipped: c.configsSkipped.Load(),
		ElapsedSec:     time.Since(c.start).Seconds(),

		RunMakespan:   c.makespans.Summary(),
		ChunksPerRun:  c.chunksPerRun.Summary(),
		ConfigWallSec: c.configWall.Summary(),
		MultiJobRuns:  c.multiJobRuns.Load(),
		JobResponse:   c.jobResponse.Summary(),
		JobSlowdown:   c.jobSlowdown.Summary(),
		Fairness:      c.fairness.Summary(),
		PlansBuilt:    c.plansBuilt.Load(),
		PlansShared:   c.plansShared.Load(),
		Engine:        eng,
	}
	if s.ElapsedSec > 0 {
		s.RunsPerSec = float64(s.Simulations) / s.ElapsedSec
	}
	// Skipped configurations were free; projecting the remaining work from
	// them would make the ETA wildly optimistic on a resumed sweep.
	if computed := s.ConfigsDone - s.ConfigsSkipped; computed > 0 && s.ConfigsTotal > s.ConfigsDone {
		perConfig := s.ElapsedSec / float64(computed)
		s.ETASec = perConfig * float64(s.ConfigsTotal-s.ConfigsDone)
	}
	return s
}

// String renders the snapshot as a one-line progress report.
func (s Snapshot) String() string {
	line := fmt.Sprintf("cfg %d/%d  sims %s (%s/s)  events %s  chunks %s  %s",
		s.ConfigsDone, s.ConfigsTotal,
		humanCount(s.Simulations), humanCount(int64(s.RunsPerSec)),
		humanCount(s.Events), humanCount(s.Chunks),
		time.Duration(s.ElapsedSec*float64(time.Second)).Round(time.Second))
	if s.ETASec > 0 {
		line += fmt.Sprintf("  eta %s",
			time.Duration(s.ETASec*float64(time.Second)).Round(time.Second))
	}
	return line
}

// humanCount renders n compactly (1234567 -> "1.2M"). Magnitude bands are
// uniform — the k suffix starts at 1000, like M at 1e6 and G at 1e9 — and
// negative values keep their sign around the same rendering.
func humanCount(n int64) string {
	abs, sign := n, ""
	if n < 0 {
		abs, sign = -n, "-"
	}
	switch {
	case abs >= 1_000_000_000:
		return fmt.Sprintf("%s%.1fG", sign, float64(abs)/1e9)
	case abs >= 1_000_000:
		return fmt.Sprintf("%s%.1fM", sign, float64(abs)/1e6)
	case abs >= 1_000:
		return fmt.Sprintf("%s%.1fk", sign, float64(abs)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
