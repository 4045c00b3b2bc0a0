package experiment

// Name-based scheduler resolution. A scheduler's name is its whole
// identity: Name() spells every parameter a scheduler has, so
// AlgorithmByName(s.Name()) == s for every scheduler value the code
// accepts. The cache keys and checkpoint fingerprint key on names, and the
// shard protocol sends algorithm lists as names, from which workers
// rebuild the coordinator's exact algorithm slice. This is the one parser
// of names (rumrsim's -algo too); an unknown name is an error, not a
// silent substitution.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/fsc"
	"rumr/internal/sched/gss"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/selfsched"
	"rumr/internal/sched/tss"
	"rumr/internal/sched/umr"
	"rumr/internal/sched/wfactoring"
)

// AlgorithmByName resolves one Scheduler.Name() back into the scheduler
// value that produces it. Names are case-sensitive.
func AlgorithmByName(name string) (sched.Scheduler, bool) {
	switch name {
	case "UMR":
		return umr.Scheduler{}, true
	case "Factoring":
		return factoring.Scheduler{}, true
	case "Factoring-OB":
		return factoring.Scheduler{OverheadBound: true}, true
	case "FSC":
		return fsc.Scheduler{}, true
	case "GSS":
		return gss.Scheduler{}, true
	case "TSS":
		return tss.Scheduler{}, true
	case "SelfSched":
		return selfsched.Scheduler{}, true
	case "WFactoring":
		return wfactoring.Scheduler{}, true
	case "RUMR-adaptive":
		return rumr.Adaptive{}, true
	}
	if k, ok := strings.CutPrefix(name, "MI-"); ok {
		x, err := strconv.Atoi(k)
		if err != nil || x < 1 {
			return nil, false
		}
		return mi.Scheduler{Installments: x}, true
	}
	if k, ok := strings.CutPrefix(name, "SelfSched-"); ok {
		q, err := strconv.ParseFloat(k, 64)
		if err != nil || !(q > 0) || math.IsInf(q, 1) {
			return nil, false
		}
		return selfsched.Scheduler{Quantum: q}, true
	}
	// RUMR family, each optionally wrapped by the fault-tolerant variant
	// as a trailing -ft.
	if base, ok := strings.CutSuffix(name, "-ft"); ok {
		inner, ok := rumrByName(base)
		if !ok {
			return nil, false
		}
		return rumr.FaultTolerant{Variant: inner}, true
	}
	if s, ok := rumrByName(name); ok {
		return s, true
	}
	return nil, false
}

// rumrByName parses the plain RUMR variant names rumr.Scheduler.Name()
// emits: RUMR[-fixed<pct>][-plain][-boundOverError|-boundPlain].
func rumrByName(name string) (rumr.Scheduler, bool) {
	rest, ok := strings.CutPrefix(name, "RUMR")
	if !ok {
		return rumr.Scheduler{}, false
	}
	var s rumr.Scheduler
	for _, m := range []rumr.BoundMode{rumr.BoundOverError, rumr.BoundPlain} {
		if r, ok := strings.CutSuffix(rest, m.NameSuffix()); ok {
			rest, s.Phase2Bound = r, m
			break
		}
	}
	rest, s.PlainPhase1 = strings.CutSuffix(rest, "-plain")
	if rest == "" {
		return s, true
	}
	pct, ok := strings.CutPrefix(rest, "-fixed")
	if !ok {
		return rumr.Scheduler{}, false
	}
	n, err := strconv.Atoi(pct)
	if err != nil || n <= 0 || n > 100 {
		return rumr.Scheduler{}, false
	}
	s.FixedPhase1Fraction = float64(n) / 100
	return s, true
}

// AlgorithmsByName resolves a whole wire algorithm list, preserving order
// (index 0 stays the normalisation baseline).
func AlgorithmsByName(names []string) ([]sched.Scheduler, error) {
	out := make([]sched.Scheduler, len(names))
	for i, name := range names {
		s, ok := AlgorithmByName(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown algorithm %q", name)
		}
		out[i] = s
	}
	return out, nil
}
