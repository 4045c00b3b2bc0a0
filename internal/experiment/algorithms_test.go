package experiment

import (
	"bytes"
	"testing"

	"rumr/internal/platform"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/selfsched"
	"rumr/internal/sched/umr"
	"rumr/internal/sched/wfactoring"
)

// A scheduler's name is its whole identity: every scheduler value the
// code accepts resolves from its own name back to an equal value, so the
// cache keys, the checkpoint fingerprint and the shard wire — all keyed
// on names — can never serve one scheduler's results as another's.
func TestSchedulerNamesAreIdentities(t *testing.T) {
	var all []sched.Scheduler
	all = append(all, StandardAlgorithms()...)
	all = append(all, Fig6Algorithms()...)
	all = append(all, Fig7Algorithms()...)
	// rumrsweep's resilience, multi-job and hetero algorithm sets.
	all = append(all, rumr.FaultTolerant{})
	all = append(all, rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1})
	all = append(all, rumr.Scheduler{}, umr.Scheduler{}, factoring.Scheduler{}, wfactoring.Scheduler{})
	all = append(all, rumr.Adaptive{}, factoring.Scheduler{OverheadBound: true},
		mi.Scheduler{Installments: 7}, selfsched.Scheduler{}, selfsched.Scheduler{Quantum: 64},
		selfsched.Scheduler{Quantum: 0.25})
	var variants []rumr.Scheduler
	for _, s := range append(Fig6Algorithms(), Fig7Algorithms()...) {
		variants = append(variants, s.(rumr.Scheduler))
	}
	for _, m := range []rumr.BoundMode{rumr.BoundTimesError, rumr.BoundOverError, rumr.BoundPlain} {
		variants = append(variants, rumr.Scheduler{Phase2Bound: m},
			rumr.Scheduler{FixedPhase1Fraction: 0.8, PlainPhase1: true, Phase2Bound: m})
	}
	for _, v := range variants {
		all = append(all, v, rumr.FaultTolerant{Variant: v})
	}

	seen := make(map[string]sched.Scheduler)
	for _, s := range all {
		name := s.Name()
		got, ok := AlgorithmByName(name)
		if !ok {
			t.Fatalf("AlgorithmByName(%q) unknown", name)
		}
		if got != s {
			t.Fatalf("AlgorithmByName(%q) = %#v, want %#v", name, got, s)
		}
		if prev, dup := seen[name]; dup && prev != s {
			t.Fatalf("%#v and %#v share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	for _, name := range []string{"SelfSched-0", "SelfSched--1", "SelfSched-NaN", "SelfSched-+Inf",
		"RUMR-plain-fixed80", "RUMR-boundPlain-plain", "RUMR-boundTimesError", "RUMR-adaptive-ft"} {
		if _, ok := AlgorithmByName(name); ok {
			t.Fatalf("AlgorithmByName(%q) resolved a malformed name", name)
		}
	}

	// A fixed split Name cannot spell is refused rather than run under a
	// neighbouring percent's name.
	pr := &sched.Problem{Platform: platform.Homogeneous(4, 1, 8, 0.1, 0.1), Total: 100, MinUnit: 1}
	if _, err := (rumr.Scheduler{FixedPhase1Fraction: 0.705}).NewDispatcher(pr); err == nil {
		t.Fatal("RUMR with a 70.5% fixed split accepted")
	}
}

// Two schedulers that differ only in a parameter get different cache
// entries: a sweep with self-scheduling's default quantum, run through a
// cache a quantum-64 sweep filled, computes its own results.
func TestCacheSeparatesSchedulerParameters(t *testing.T) {
	g := stateTestGrid()
	dir := t.TempDir()
	if _, err := (&Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}, selfsched.Scheduler{Quantum: 64}},
		CachePath: dir}).Sweep(g); err != nil {
		t.Fatal(err)
	}
	unit := []sched.Scheduler{rumr.Scheduler{}, selfsched.Scheduler{}}
	warm, err := (&Runner{Algorithms: unit, CachePath: dir}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (&Runner{Algorithms: unit}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepJSON(t, warm), sweepJSON(t, cold)) {
		t.Fatalf("cache served the quantum-64 sweep for the unit-quantum one: mean[0][0] = %v, want %v",
			warm.Mean[0][0], cold.Mean[0][0])
	}
}
