package engine

import (
	"rumr/internal/metrics"
	"rumr/internal/perferr"
)

// Counters is the engine's hot-path telemetry block: DES event traffic,
// dispatcher consults, RNG draws by distribution and fault re-dispatches.
// It is an alias of metrics.EngineCounters so the experiment, shard and
// metrics layers all share one type without an import cycle (metrics
// cannot import engine).
//
// Accumulation is nil-checked plain integer adds on the pooled run state —
// no atomics, no allocation — so a run with Options.Counters set stays
// 0 allocs/op (BenchmarkEngineRunCounters pins this). The struct is NOT
// safe for concurrent runs; give each goroutine its own and fold them
// with Merge or Collector.AddEngineCounters.
type Counters = metrics.EngineCounters

// drawCounter classifies a perturbation model once per run, returning the
// counter field a Perturb call should bump — nil for perfect prediction
// (no draws) or when counting is off. The hot path then pays one nil
// check per draw instead of a type switch.
func drawCounter(c *Counters, m perferr.Model) *int64 {
	if c == nil {
		return nil
	}
	switch m.(type) {
	case perferr.Perfect, *perferr.Perfect:
		return nil
	case *perferr.TruncNormal:
		return &c.TruncNormalDraws
	case *perferr.Uniform:
		return &c.UniformDraws
	default:
		return &c.OtherDraws
	}
}
