package experiment

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
)

func stateTestGrid() Grid {
	g := SmokeGrid()
	g.Reps = 2
	return g
}

func sweepJSON(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The pending queue is ordered most-expensive-first: with everything else
// equal, cost is monotone in N, so the big platforms lead.
func TestPendingOrderedByDescendingCost(t *testing.T) {
	g := stateTestGrid() // Ns {10, 20}: configs alternate N=10, N=20 in grid order
	st, err := OpenSweepState(g, []string{"RUMR"}, NormalError, false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Pending) != len(g.Configs()) {
		t.Fatalf("pending = %d, want all %d", len(st.Pending), len(g.Configs()))
	}
	configs := g.Configs()
	last := math.Inf(1)
	for _, ci := range st.Pending {
		cost := expectedCost(g, configs[ci], 1)
		if cost > last {
			t.Fatalf("pending not cost-descending: config %d (cost %g) after cost %g", ci, cost, last)
		}
		last = cost
	}
	// The ordering must actually move something on this grid: N=20 before
	// N=10.
	if configs[st.Pending[0]].N != 20 || configs[st.Pending[len(st.Pending)-1]].N != 10 {
		t.Fatalf("cost ordering did not front-load big platforms: first N=%d, last N=%d",
			configs[st.Pending[0]].N, configs[st.Pending[len(st.Pending)-1]].N)
	}
}

// Satellite guarantee: the cost-ordered queue changes only wall-clock
// behaviour. A sweep through the Runner (cost order, parallel pool) is
// byte-identical to computing every cell sequentially in natural grid
// order.
func TestCostOrderingDoesNotChangeResults(t *testing.T) {
	g := stateTestGrid()
	algos := []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}}
	swept, err := (&Runner{Algorithms: algos, Workers: 4}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}

	configs := g.Configs()
	ref := &Results{Grid: g, Configs: configs, Algorithms: []string{"RUMR", "UMR"},
		Mean: make([][][]float64, len(configs))}
	r := &Runner{Algorithms: algos}
	for ci, cfg := range configs {
		cell, _, err := r.ComputeConfig(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Mean[ci] = cell
	}
	if !bytes.Equal(sweepJSON(t, swept), sweepJSON(t, ref)) {
		t.Fatal("cost-ordered parallel sweep differs from natural-order sequential compute")
	}
}

// The cache key depends on the sweep parameters and the configuration's
// values — not its grid position — and changes with any parameter that
// changes the block's bytes.
func TestCellKeyPositionIndependent(t *testing.T) {
	g := stateTestGrid()
	cfg := g.Configs()[3]
	names := []string{"RUMR", "UMR"}
	key := CellKey(g, names, NormalError, false, cfg)

	// Extending the grid shifts indices but not keys.
	ext := g
	ext.Ns = append([]int{15}, ext.Ns...)
	extConfigs := ext.Configs()
	found := false
	for _, ec := range extConfigs {
		if ec == cfg {
			found = true
			if k := CellKey(ext, names, NormalError, false, ec); k != key {
				t.Fatalf("key changed after grid extension: %s vs %s", k, key)
			}
		}
	}
	if !found {
		t.Fatal("extended grid lost the original configuration")
	}

	// Anything that changes the block's bytes changes the key.
	mutations := []func() string{
		func() string { g2 := g; g2.BaseSeed++; return CellKey(g2, names, NormalError, false, cfg) },
		func() string { g2 := g; g2.Reps++; return CellKey(g2, names, NormalError, false, cfg) },
		func() string { g2 := g; g2.Total *= 2; return CellKey(g2, names, NormalError, false, cfg) },
		func() string {
			g2 := g
			g2.Errors = append([]float64{0.05}, g2.Errors...)
			return CellKey(g2, names, NormalError, false, cfg)
		},
		func() string { return CellKey(g, []string{"RUMR"}, NormalError, false, cfg) },
		func() string { return CellKey(g, names, UniformError, false, cfg) },
		func() string { return CellKey(g, names, NormalError, true, cfg) },
	}
	seen := map[string]bool{key: true}
	for i, mut := range mutations {
		k := mut()
		if seen[k] {
			t.Fatalf("mutation %d did not change the cell key", i)
		}
		seen[k] = true
	}
}

// The acceptance criterion for the cache: extend a swept grid and the
// re-sweep computes only the added cells, with all results byte-identical
// to a cold full sweep.
func TestWarmCacheExtendedGridComputesOnlyNewCells(t *testing.T) {
	g := stateTestGrid()
	dir := t.TempDir()
	algos := func() []sched.Scheduler { return []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}} }

	if _, err := (&Runner{Algorithms: algos(), CachePath: dir}).Sweep(g); err != nil {
		t.Fatal(err)
	}
	base := len(g.Configs())

	ext := g
	ext.Ns = append([]int{15}, ext.Ns...) // 4 new configurations, indices shuffled
	m := metrics.New()
	warm, err := (&Runner{Algorithms: algos(), CachePath: dir, Metrics: m}).Sweep(ext)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	extTotal := len(ext.Configs())
	if s.ConfigsSkipped != int64(base) || s.ConfigsTotal != int64(extTotal) ||
		s.ConfigsDone != int64(extTotal) {
		t.Fatalf("extended re-sweep done/skipped/total = %d/%d/%d, want %d/%d/%d",
			s.ConfigsDone, s.ConfigsSkipped, s.ConfigsTotal, extTotal, base, extTotal)
	}

	cold, err := (&Runner{Algorithms: algos()}).Sweep(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepJSON(t, warm), sweepJSON(t, cold)) {
		t.Fatal("warm-cache extended sweep differs from cold full sweep")
	}
}

// Satellite guarantee: a sweep restored partly from a checkpoint and
// partly from the cache merges both with freshly computed cells into a
// result byte-identical to a cold run.
func TestCheckpointCacheInterplay(t *testing.T) {
	g := stateTestGrid()
	algos := []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}}
	names := []string{"RUMR", "UMR"}
	configs := g.Configs() // 8 configurations
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	cacheDir := t.TempDir()

	cold, err := (&Runner{Algorithms: algos}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint covers configurations 0-2, the cache 2-5 (overlapping at
	// 2: the checkpoint wins, per restore order), 6-7 are computed fresh.
	cp, err := OpenCheckpoint(ckpt, Fingerprint(g, names, NormalError, false))
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci <= 2; ci++ {
		if err := cp.Append(ci, cold.Mean[ci]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 2; ci <= 5; ci++ {
		key := CellKey(g, names, NormalError, false, configs[ci])
		if err := cache.Put(key, configs[ci], cold.Mean[ci]); err != nil {
			t.Fatal(err)
		}
	}

	m := metrics.New()
	merged, err := (&Runner{Algorithms: algos, CheckpointPath: ckpt, CachePath: cacheDir, Metrics: m}).Sweep(g)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.ConfigsSkipped != 6 || s.ConfigsTotal != 8 || s.ConfigsDone != 8 {
		t.Fatalf("merged sweep done/skipped/total = %d/%d/%d, want 8/6/8",
			s.ConfigsDone, s.ConfigsSkipped, s.ConfigsTotal)
	}
	if !bytes.Equal(sweepJSON(t, merged), sweepJSON(t, cold)) {
		t.Fatal("checkpoint+cache merged sweep differs from cold run")
	}
}

// Every scheduler the sweeps and studies use survives the wire: its
// Name() resolves back to a scheduler printing the same name.
func TestAlgorithmsByNameRoundTrip(t *testing.T) {
	var all []sched.Scheduler
	all = append(all, StandardAlgorithms()...)
	all = append(all, Fig6Algorithms()...)
	all = append(all, Fig7Algorithms()...)
	all = append(all, rumr.Adaptive{}, rumr.FaultTolerant{},
		rumr.FaultTolerant{Variant: rumr.Scheduler{PlainPhase1: true}})
	for _, name := range []string{"FSC", "GSS", "TSS", "SelfSched", "WFactoring", "Factoring-OB", "MI-7"} {
		s, ok := AlgorithmByName(name)
		if !ok {
			t.Fatalf("AlgorithmByName(%q) unknown", name)
		}
		all = append(all, s)
	}
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	resolved, err := AlgorithmsByName(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range resolved {
		if s.Name() != names[i] {
			t.Fatalf("round-trip changed %q to %q", names[i], s.Name())
		}
	}
	for _, bad := range []string{"", "rumr", "MI-0", "MI-x", "RUMR-fixed0", "RUMR-fixed101", "UMR-ft-ft"} {
		if _, ok := AlgorithmByName(bad); ok {
			t.Fatalf("AlgorithmByName(%q) resolved unexpectedly", bad)
		}
	}
}
