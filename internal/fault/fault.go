// Package fault models the failure behaviour the RUMR paper leaves out:
// its §4.1 error model only perturbs durations of work that always
// completes, while a production master/worker platform loses workers,
// links and time. This package provides a deterministic, seed-driven
// fault-scenario model — worker crashes with optional rejoin, transient
// link outages, bounded and unbounded stragglers, correlated multi-worker
// failures — that composes with the perferr models: perferr perturbs how
// long work takes, fault decides whether the resources doing it survive.
//
// A Schedule is a plain list of timestamped events; the engine replays it
// on the simulation clock. Scenario draws random schedules from scenario
// parameters (crash rate, outage rate, ...) so sweeps can put "crash rate"
// on an axis; generation is exactly reproducible from its rng.Source.
//
// Recovery describes the engine-side policy for getting lost work back:
// loss detection (crash, loss in transit, per-chunk completion timeouts
// with exponential backoff) and re-dispatch of the lost chunks to live
// workers.
package fault

import (
	"fmt"
	"math"
	"sort"

	"rumr/internal/rng"
)

// Kind discriminates fault events.
type Kind uint8

const (
	// Crash removes a worker: its queued and in-progress chunks are lost,
	// and data in flight towards it is lost on arrival.
	Crash Kind = iota
	// Rejoin brings a crashed worker back, with an empty queue, its link
	// up and its speed restored.
	Rejoin
	// LinkDown cuts the master->worker link: chunks arriving while the
	// link is down are lost, and the worker stops looking idle to
	// dispatchers; computation of already-queued chunks continues.
	LinkDown
	// LinkUp restores the link.
	LinkUp
	// SlowStart makes the worker a straggler: computations started while
	// slow take Factor times longer (on top of the perferr perturbation).
	SlowStart
	// SlowEnd restores the worker's nominal speed.
	SlowEnd

	numKinds
)

var kindNames = [numKinds]string{
	"crash", "rejoin", "link-down", "link-up", "slow-start", "slow-end",
}

// String returns the fault kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one scheduled fault.
type Event struct {
	// Time is the virtual time at which the fault strikes.
	Time float64
	// Worker is the affected worker index.
	Worker int
	// Kind discriminates the fault.
	Kind Kind
	// Factor is the compute slowdown for SlowStart (> 1); ignored
	// otherwise.
	Factor float64
}

// Schedule is a deterministic fault scenario: the complete list of fault
// events of one simulated run. The engine replays events in slice order
// (ties on the simulation clock are broken by that order), so a given
// Schedule value yields exactly one behaviour.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Validate checks the schedule against a platform of n workers.
func (s *Schedule) Validate(n int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.Worker < 0 || ev.Worker >= n {
			return fmt.Errorf("fault: event %d targets worker %d of %d", i, ev.Worker, n)
		}
		if ev.Time < 0 || math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("fault: event %d has invalid time %g", i, ev.Time)
		}
		if ev.Kind >= numKinds {
			return fmt.Errorf("fault: event %d has unknown kind %d", i, ev.Kind)
		}
		if ev.Kind == SlowStart && (ev.Factor <= 1 || math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0)) {
			return fmt.Errorf("fault: event %d slow-start factor %g must be finite and > 1", i, ev.Factor)
		}
	}
	return nil
}

// Sort orders events by (time, worker, kind), the canonical replay order
// for generated scenarios.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Kind < b.Kind
	})
}

// Uptime returns worker w's alive time within [0, horizon] under the
// schedule: the total length of the intervals during which the worker has
// not crashed (link outages and slowdowns do not count as downtime — the
// worker keeps computing through them, so treating them as uptime keeps
// capacity estimates conservative).
func (s *Schedule) Uptime(w int, horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	up := 0.0
	alive := true
	last := 0.0
	if s != nil {
		// Events for one worker are replayed in schedule order, matching
		// the engine.
		for _, ev := range s.Events {
			if ev.Worker != w || ev.Time > horizon {
				continue
			}
			switch ev.Kind {
			case Crash:
				if alive {
					up += ev.Time - last
					alive = false
				}
			case Rejoin:
				if !alive {
					alive = true
					last = ev.Time
				}
			}
		}
	}
	if alive {
		up += horizon - last
	}
	return up
}

// Recovery is the engine-side policy for detecting and re-dispatching
// lost work. The zero value disables recovery: lost work stays lost and
// the run completes short.
type Recovery struct {
	// Enabled turns on re-dispatch: chunks lost to crashes, outages or
	// timeouts are re-sent to the live worker with the least pending work
	// (avoiding the worker that just failed them, when possible).
	Enabled bool
	// TimeoutFactor, when > 0, arms a completion timer per dispatched
	// chunk: a chunk not completed within TimeoutFactor times its
	// predicted completion time (queue backlog included) is declared lost,
	// its computation — if any — is killed, and it becomes eligible for
	// re-dispatch. The factor doubles per attempt (exponential backoff),
	// so a chunk stuck on a bounded straggler is eventually allowed to
	// finish rather than killed forever. Zero disables timers; crashes and
	// losses in transit are still detected.
	TimeoutFactor float64
	// MaxAttempts caps re-dispatches per chunk; past the cap the chunk's
	// work is permanently lost. Zero means unlimited.
	MaxAttempts int
}

// TimeoutFor returns the timeout duration for an attempt (0-based) given
// the predicted completion duration, or 0 when timers are disabled.
func (r Recovery) TimeoutFor(predicted float64, attempt int) float64 {
	if r.TimeoutFactor <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30 // cap the backoff; 2^30 is already "never"
	}
	return r.TimeoutFactor * math.Ldexp(1, attempt) * predicted
}

// Scenario draws random fault schedules from per-worker rates — the knobs
// a resilience sweep puts on its axes. All probabilities are in [0, 1]
// and applied independently per worker; times are drawn uniformly within
// [0, Horizon]. Generation is deterministic given the rng.Source.
type Scenario struct {
	// Horizon is the time window faults are drawn in; it should cover the
	// run (e.g. 1.5x the fault-free makespan).
	Horizon float64

	// CrashProb is each worker's probability of crashing once within the
	// horizon.
	CrashProb float64
	// RejoinProb is the probability a crashed worker rejoins, after a
	// delay drawn from [RejoinDelayMin, RejoinDelayMax].
	RejoinProb                     float64
	RejoinDelayMin, RejoinDelayMax float64
	// CorrelatedProb is the probability that a crash is correlated — it
	// takes down the next GroupSize-1 workers (cyclically) at the same
	// instant, modelling a rack or switch failure. GroupSize 0 selects 3.
	CorrelatedProb float64
	GroupSize      int

	// OutageProb is each worker's probability of one transient link
	// outage, with a duration drawn from [OutageMin, OutageMax].
	OutageProb           float64
	OutageMin, OutageMax float64

	// StragglerProb is each worker's probability of becoming a straggler,
	// slowed by a factor drawn from [SlowMin, SlowMax] (both > 1). With
	// probability UnboundedProb the slowdown never ends (an unbounded
	// straggler); otherwise it ends at a time drawn between onset and the
	// horizon.
	StragglerProb    float64
	SlowMin, SlowMax float64
	UnboundedProb    float64

	// AllowTotalFailure lifts the survivor guarantee. By default one
	// worker (chosen pseudo-randomly) is shielded from permanent faults —
	// its crashes always rejoin and its slowdowns always end — so that a
	// recovering engine can always finish the workload.
	AllowTotalFailure bool
}

// Generate draws a schedule for a platform of n workers from src. The
// result is sorted in canonical replay order.
func (sc Scenario) Generate(n int, src *rng.Source) *Schedule {
	s := &Schedule{}
	if n <= 0 || sc.Horizon <= 0 {
		return s
	}
	spare := -1
	if !sc.AllowTotalFailure {
		spare = src.Intn(n)
	}
	group := sc.GroupSize
	if group <= 0 {
		group = 3
	}
	crashed := make([]bool, n)
	crash := func(w int, t float64) {
		if crashed[w] {
			return
		}
		crashed[w] = true
		s.Events = append(s.Events, Event{Time: t, Worker: w, Kind: Crash})
		if w == spare || src.Float64() < sc.RejoinProb {
			delay := src.Uniform(sc.RejoinDelayMin, math.Max(sc.RejoinDelayMin, sc.RejoinDelayMax))
			s.Events = append(s.Events, Event{Time: t + delay, Worker: w, Kind: Rejoin})
			crashed[w] = false
		}
	}
	for w := 0; w < n; w++ {
		if sc.CrashProb > 0 && src.Float64() < sc.CrashProb {
			t := src.Uniform(0, sc.Horizon)
			crash(w, t)
			if sc.CorrelatedProb > 0 && src.Float64() < sc.CorrelatedProb {
				for k := 1; k < group && k < n; k++ {
					crash((w+k)%n, t)
				}
			}
		}
		if sc.OutageProb > 0 && src.Float64() < sc.OutageProb {
			t := src.Uniform(0, sc.Horizon)
			dur := src.Uniform(sc.OutageMin, math.Max(sc.OutageMin, sc.OutageMax))
			s.Events = append(s.Events,
				Event{Time: t, Worker: w, Kind: LinkDown},
				Event{Time: t + dur, Worker: w, Kind: LinkUp})
		}
		if sc.StragglerProb > 0 && src.Float64() < sc.StragglerProb {
			t := src.Uniform(0, sc.Horizon)
			lo := math.Max(sc.SlowMin, 1+1e-9)
			factor := src.Uniform(lo, math.Max(lo, sc.SlowMax))
			s.Events = append(s.Events, Event{Time: t, Worker: w, Kind: SlowStart, Factor: factor})
			if w != spare && src.Float64() < sc.UnboundedProb {
				continue // never recovers
			}
			s.Events = append(s.Events, Event{Time: src.Uniform(t, sc.Horizon), Worker: w, Kind: SlowEnd})
		}
	}
	s.Sort()
	return s
}
