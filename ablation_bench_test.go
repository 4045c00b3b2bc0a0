package rumr

// Ablation benchmarks beyond the paper's artifacts, covering the design
// choices DESIGN.md calls out: the phase-2 minimum-chunk reading, the
// adaptive (measured-error) variant, Factoring's overhead bound, the
// non-stationary error extension, and a heterogeneous-platform smoke
// study. Like the table/figure benches, each logs its result rows once.

import (
	"fmt"
	"strings"
	"testing"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	rumrsched "rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
	"rumr/internal/sched/wfactoring"
	"rumr/internal/stats"
)

// BenchmarkAblationPhase2Bound compares the three readings of design
// choice (iii) — the phase-2 minimum chunk (cLat + nLat·N) scaled by
// ×error (our default), /error (the paper text's literal words), or not
// at all — against UMR. The /error reading makes RUMR lose to UMR across
// the paper's central error range, which is how we settled the paper's
// internal inconsistency; see DESIGN.md.
func BenchmarkAblationPhase2Bound(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, mode := range []struct {
			name string
			m    rumrsched.BoundMode
		}{
			{"x error (default)", rumrsched.BoundTimesError},
			{"/ error (paper text)", rumrsched.BoundOverError},
			{"plain", rumrsched.BoundPlain},
		} {
			algos := []sched.Scheduler{rumrsched.Scheduler{Phase2Bound: mode.m}, umr.Scheduler{}}
			res, err := Sweep(g, SweepOptions{Algorithms: algos})
			if err != nil {
				b.Fatal(err)
			}
			cv := ComputeCurves(res, nil)
			mean := cv.MeanRatioOverErrors()[0]
			fmt.Fprintf(&sb, "bound %-22s mean UMR/RUMR ratio %.3f, RUMR wins %.1f%%\n",
				mode.name, mean, OverallWinPercent(res, 0))
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkAblationAdaptive compares informed RUMR (told the true error),
// blind RUMR (fixed 80/20 fallback) and adaptive RUMR (online
// measurement) over the bench grid.
func BenchmarkAblationAdaptive(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		informed, err := Sweep(g, SweepOptions{
			Algorithms: []Scheduler{RUMR(), UMR()},
		})
		if err != nil {
			b.Fatal(err)
		}
		blindAndAdaptive, err := Sweep(g, SweepOptions{
			Algorithms:   []Scheduler{RUMR(), RUMRAdaptive()},
			UnknownError: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cvI := ComputeCurves(informed, nil)
			cvB := ComputeCurves(blindAndAdaptive, nil)
			b.Logf("\nmean ratio vs informed-RUMR baseline: UMR %.3f",
				cvI.MeanRatioOverErrors()[0])
			b.Logf("mean ratio of adaptive vs blind-RUMR baseline: %.3f (below 1 = adaptive wins)",
				cvB.MeanRatioOverErrors()[0])
		}
	}
}

// BenchmarkAblationFactoringBound measures what the [15]-style overhead
// floor does to plain Factoring — the mitigation the paper's §4.2 (iii)
// brings into RUMR's phase 2 but that Factoring [14] itself lacks.
func BenchmarkAblationFactoringBound(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		res, err := Sweep(g, SweepOptions{Algorithms: []Scheduler{
			factoring.Scheduler{},
			factoring.Scheduler{OverheadBound: true},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cv := ComputeCurves(res, nil)
			b.Logf("\nFactoring with the overhead floor vs without: mean ratio %.3f (below 1 = floor helps)",
				cv.MeanRatioOverErrors()[0])
		}
	}
}

// BenchmarkAblationNonStationary runs RUMR and UMR under the random-walk
// error model — a controlled violation of the paper's stationarity
// assumption (§4.1 argues phase 2 keeps RUMR effective because it uses no
// predictions; this bench quantifies that).
func BenchmarkAblationNonStationary(b *testing.B) {
	p := platform.Homogeneous(20, 1, 30, 0.3, 0.3)
	algos := []sched.Scheduler{rumrsched.Scheduler{}, umr.Scheduler{}}
	for i := 0; i < b.N; i++ {
		var ratios stats.Welford
		for seed := uint64(0); seed < 40; seed++ {
			mks := make([]float64, len(algos))
			for ai, algo := range algos {
				pr := &sched.Problem{Platform: p, Total: 1000, KnownError: 0.3, MinUnit: 1}
				d, err := algo.NewDispatcher(pr)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.NewFrom(99, seed)
				opts := engine.Options{
					CommModel: perferr.NewRandomWalk(0.3, 0.02, 0.4, src.Split()),
					CompModel: perferr.NewRandomWalk(0.3, 0.02, 0.4, src.Split()),
				}
				res, err := engine.Run(p, d, opts)
				if err != nil {
					b.Fatal(err)
				}
				mks[ai] = res.Makespan
			}
			ratios.Add(mks[1] / mks[0])
		}
		if i == 0 {
			b.Logf("\nnon-stationary errors (drifting mean): UMR/RUMR ratio %.3f ± %.3f",
				ratios.Mean(), ratios.CI95())
		}
	}
}

// BenchmarkAblationParallelSends quantifies the paper's future-work idea
// of simultaneous transfers ("it could be beneficial to allow for
// simultaneous transfers for better throughput in some cases (e.g.
// WANs)"): RUMR's mean makespan with 1, 2 and 4 concurrent master
// transfers on a WAN-like platform (slow per-worker links, so the ramp —
// not link bandwidth — is the bottleneck).
func BenchmarkAblationParallelSends(b *testing.B) {
	p := platform.Homogeneous(16, 1, 18, 0.1, 0.4) // slow links, high nLat
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, k := range []int{1, 2, 4} {
			var mks stats.Welford
			for seed := uint64(0); seed < 30; seed++ {
				pr := &sched.Problem{Platform: p, Total: 1000, KnownError: 0.2, MinUnit: 1}
				d, err := rumrsched.Scheduler{}.NewDispatcher(pr)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.NewFrom(21, seed)
				res, err := engine.Run(p, d, engine.Options{
					CommModel:     perferr.NewTruncNormal(0.2, src.Split()),
					CompModel:     perferr.NewTruncNormal(0.2, src.Split()),
					ParallelSends: k,
				})
				if err != nil {
					b.Fatal(err)
				}
				mks.Add(res.Makespan)
			}
			fmt.Fprintf(&sb, "%d concurrent transfer(s): mean makespan %.2f\n", k, mks.Mean())
		}
		if i == 0 {
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkAblationHeterogeneous is the heterogeneity study the paper
// defers to [17, 13]: RUMR versus UMR, Factoring and Weighted Factoring
// on ensembles of random platforms at increasing heterogeneity spread (MI
// is homogeneous-only, as the paper notes some competitors are "not
// amenable to heterogeneous platforms").
func BenchmarkAblationHeterogeneous(b *testing.B) {
	g := experiment.DefaultHeteroGrid()
	algos := []sched.Scheduler{
		rumrsched.Scheduler{}, umr.Scheduler{},
		factoring.Scheduler{}, wfactoring.Scheduler{},
	}
	for i := 0; i < b.N; i++ {
		res, err := (&experiment.Runner{Algorithms: algos}).Hetero(g)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			fmt.Fprintf(&sb, "mean competitor/RUMR ratios by heterogeneity spread (error 0.2):\n")
			ei := 1 // error = 0.2 in the default grid
			for si, spread := range g.Spreads {
				fmt.Fprintf(&sb, "  spread %.1f:", spread)
				for ai, name := range res.Algorithms {
					fmt.Fprintf(&sb, "  %s %.3f", name, res.Ratio[si][ei][ai])
				}
				sb.WriteByte('\n')
			}
			b.Log("\n" + sb.String())
		}
	}
}
