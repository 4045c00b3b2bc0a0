package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
)

func smallHeteroGrid() HeteroGrid {
	return HeteroGrid{
		N: 8, MeanS: 1, MeanR: 1.6, CLat: 0.2, NLat: 0.2,
		Spreads:   []float64{0, 0.8},
		Errors:    []float64{0, 0.3},
		Platforms: 4, Reps: 2, Total: 500, BaseSeed: 9,
	}
}

func TestRunHeteroShape(t *testing.T) {
	g := smallHeteroGrid()
	algos := []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}, factoring.Scheduler{}}
	res, err := (&Runner{Algorithms: algos}).Hetero(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 2 || res.Algorithms[0] != "UMR" {
		t.Fatalf("algorithms = %v", res.Algorithms)
	}
	if len(res.Ratio) != 2 || len(res.Ratio[0]) != 2 || len(res.Ratio[0][0]) != 2 {
		t.Fatalf("ratio shape wrong")
	}
	for si := range res.Ratio {
		for ei := range res.Ratio[si] {
			for ai, r := range res.Ratio[si][ei] {
				if math.IsNaN(r) || r <= 0 {
					t.Fatalf("ratio[%d][%d][%d] = %v", si, ei, ai, r)
				}
			}
		}
	}
}

func TestRunHeteroDeterministic(t *testing.T) {
	g := smallHeteroGrid()
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}}}
	a, err := r.Hetero(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Hetero(g)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Ratio {
		for ei := range a.Ratio[si] {
			if a.Ratio[si][ei][0] != b.Ratio[si][ei][0] {
				t.Fatal("hetero study not deterministic")
			}
		}
	}
}

func TestRunHeteroZeroSpreadMatchesHomogeneous(t *testing.T) {
	g := smallHeteroGrid()
	p := g.platformFor(0, 3)
	if !p.Homogeneous() {
		t.Fatal("spread 0 must yield a homogeneous platform")
	}
	q := g.platformFor(0.8, 3)
	if q.Homogeneous() {
		t.Fatal("spread 0.8 should yield a heterogeneous platform")
	}
	// Ensemble members differ from each other but are reproducible.
	q2 := g.platformFor(0.8, 3)
	for i := range q.Workers {
		if q.Workers[i] != q2.Workers[i] {
			t.Fatal("platform generation not reproducible")
		}
	}
	other := g.platformFor(0.8, 4)
	same := true
	for i := range q.Workers {
		if q.Workers[i] != other.Workers[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct ensemble members are identical")
	}
}

func TestRunHeteroNeedsCompetitor(t *testing.T) {
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}}}
	if _, err := r.Hetero(smallHeteroGrid()); err == nil {
		t.Fatal("single algorithm accepted")
	}
}

func TestDefaultHeteroGridSane(t *testing.T) {
	g := DefaultHeteroGrid()
	if g.N <= 0 || g.Platforms <= 0 || g.Reps <= 0 || len(g.Spreads) == 0 || len(g.Errors) == 0 {
		t.Fatalf("default grid incomplete: %+v", g)
	}
	// The widest spread must still give valid platforms.
	p := g.platformFor(g.Spreads[len(g.Spreads)-1], 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroGridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*HeteroGrid)
	}{
		{"no platforms", func(g *HeteroGrid) { g.Platforms = 0 }},
		{"no reps", func(g *HeteroGrid) { g.Reps = 0 }},
		{"negative error", func(g *HeteroGrid) { g.Errors = []float64{0, -1} }},
		{"infinite error", func(g *HeteroGrid) { g.Errors = []float64{math.Inf(1)} }},
		{"NaN error", func(g *HeteroGrid) { g.Errors = []float64{math.NaN()} }},
		{"no errors", func(g *HeteroGrid) { g.Errors = nil }},
		{"no spreads", func(g *HeteroGrid) { g.Spreads = nil }},
		{"negative spread", func(g *HeteroGrid) { g.Spreads = []float64{-0.1} }},
		{"spread 2", func(g *HeteroGrid) { g.Spreads = []float64{0, 2} }},
		{"NaN spread", func(g *HeteroGrid) { g.Spreads = []float64{math.NaN()} }},
		{"no workers", func(g *HeteroGrid) { g.N = 0 }},
		{"zero MeanS", func(g *HeteroGrid) { g.MeanS = 0 }},
		{"infinite MeanS", func(g *HeteroGrid) { g.MeanS = math.Inf(1) }},
		{"negative MeanR", func(g *HeteroGrid) { g.MeanR = -1.6 }},
		{"NaN MeanR", func(g *HeteroGrid) { g.MeanR = math.NaN() }},
		{"zero total", func(g *HeteroGrid) { g.Total = 0 }},
		{"infinite total", func(g *HeteroGrid) { g.Total = math.Inf(1) }},
		{"negative cLat", func(g *HeteroGrid) { g.CLat = -0.1 }},
		{"infinite nLat", func(g *HeteroGrid) { g.NLat = math.Inf(1) }},
	}
	r := &Runner{Algorithms: []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := smallHeteroGrid()
			tc.mutate(&g)
			if err := g.Validate(); err == nil {
				t.Fatal("Validate accepted a degenerate grid")
			}
			if _, err := r.Hetero(g); err == nil {
				t.Fatal("degenerate grid accepted")
			}
		})
	}
	if err := smallHeteroGrid().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	if err := DefaultHeteroGrid().Validate(); err != nil {
		t.Fatalf("default grid rejected: %v", err)
	}
}

// TestHeteroWidthsAndWarmCacheByteIdentical runs the heterogeneity study
// at pool widths 1 and 4, then from a warm result cache, from a
// checkpoint left by an interrupted run and from that checkpoint once
// complete: every run's JSON must match the serial run's, and each run
// must restore exactly the cells already on record and simulate only
// the rest.
func TestHeteroWidthsAndWarmCacheByteIdentical(t *testing.T) {
	g := smallHeteroGrid()
	dir := t.TempDir()
	cache, ckpt := filepath.Join(dir, "cache"), filepath.Join(dir, "hetero.jsonl")
	cells := int64(len(g.Spreads) * len(g.Errors))
	var want []byte
	run := func(name string, r *Runner, restored int64) {
		t.Helper()
		m := metrics.New()
		r.Algorithms, r.Metrics = heteroAlgorithms(), m
		res, err := r.Hetero(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
		} else if !bytes.Equal(blob, want) {
			t.Fatalf("%s: results differ from the serial run:\n%s\nvs\n%s", name, blob, want)
		}
		s := m.Snapshot()
		if s.ConfigsTotal != cells || s.ConfigsSkipped != restored {
			t.Fatalf("%s: restored %d of %d cells, want %d of %d", name, s.ConfigsSkipped, s.ConfigsTotal, restored, cells)
		}
		if want := (cells - restored) * int64(g.Platforms*g.Reps*len(r.Algorithms)); s.Simulations != want {
			t.Fatalf("%s: %d simulations, want %d", name, s.Simulations, want)
		}
	}
	run("width 1", &Runner{Workers: 1}, 0)
	run("width 4, cold cache", &Runner{Workers: 4, CachePath: cache}, 0)
	run("width 1, warm cache", &Runner{Workers: 1, CachePath: cache}, cells)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One worker and a cancel after the second cell leave exactly two
	// cells on record.
	r := &Runner{Algorithms: heteroAlgorithms(), Workers: 1, CheckpointPath: ckpt,
		Progress: func(done, _ int) {
			if done == 2 {
				cancel()
			}
		}}
	if _, err := r.HeteroContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted study err = %v, want context.Canceled", err)
	}
	run("width 4, resumed", &Runner{Workers: 4, CheckpointPath: ckpt}, 2)
	run("width 2, completed checkpoint", &Runner{Workers: 2, CheckpointPath: ckpt}, cells)
}
