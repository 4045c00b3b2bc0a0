package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/sched/mi"
)

func miAlgorithms() []sched.Scheduler {
	return []sched.Scheduler{
		mi.Scheduler{Installments: 1},
		mi.Scheduler{Installments: 2},
		mi.Scheduler{Installments: 3},
		mi.Scheduler{Installments: 4},
	}
}

// sweepPlans sweeps g on r with a fresh collector and returns the results
// as JSON with the plans built and shared during the sweep.
func sweepPlans(t *testing.T, r *Runner, g Grid) (out []byte, built, shared int64) {
	t.Helper()
	r.Metrics = metrics.New()
	res, err := r.Sweep(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err = json.Marshal(res.Mean)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Metrics.Snapshot()
	return out, snap.PlansBuilt, snap.PlansShared
}

// TestSharedPlansBuiltOncePerRunner pins the shared plan tier's
// exactly-once rule: MI's latency-free plans depend on (N, r) and the
// installment count only, so a runner sweeping 2 N × 2 r × 2 cLat ×
// 2 nLat with MI-1..MI-4 solves 2·2·4 = 16 plans, whatever its pool
// width; a second sweep on the same runner solves none. Results are
// byte-identical across pool widths. Run it under -race: at Workers 4
// cells with the same (N, r) request the same plans concurrently.
func TestSharedPlansBuiltOncePerRunner(t *testing.T) {
	g := Grid{
		Ns:       []int{10, 20},
		Rs:       []float64{1.2, 1.6},
		CLats:    []float64{0, 0.3},
		NLats:    []float64{0, 0.3},
		Errors:   []float64{0, 0.2},
		Reps:     2,
		Total:    1000,
		BaseSeed: 2003,
	}
	var first []byte
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := &Runner{Algorithms: miAlgorithms(), Workers: workers}
			protos := len(g.Configs()) * len(r.Algorithms) * len(g.Errors)
			out, built, shared := sweepPlans(t, r, g)
			if built != 16 || built+shared != int64(protos) {
				t.Fatalf("first sweep built %d and shared %d plans, want 16 and %d", built, shared, protos-16)
			}
			// A pooled cell state still prepared for its configuration
			// skips planning altogether, so only the builds are exact.
			again, built, _ := sweepPlans(t, r, g)
			if built != 0 {
				t.Fatalf("second sweep built %d plans, want 0", built)
			}
			if !bytes.Equal(again, out) {
				t.Fatal("second sweep's results differ from the first's")
			}
			if first == nil {
				first = out
			} else if !bytes.Equal(out, first) {
				t.Fatalf("results at Workers=%d differ from Workers=1", workers)
			}
		})
	}
}

// TestReducedGridSolvesSixtyMIPlans counts the MI solves of a ReducedGrid
// sweep: its 240 configurations hold 15 distinct (N, r) pairs, so MI-1..
// MI-4 need 60 plans, not one per configuration and algorithm (960), and
// a second sweep on the same runner needs none. The count is independent
// of the error axis and the repetitions, which are trimmed for speed.
func TestReducedGridSolvesSixtyMIPlans(t *testing.T) {
	g := ReducedGrid()
	g.Errors = []float64{0, 0.2}
	g.Reps = 1
	r := &Runner{Algorithms: miAlgorithms(), Workers: 2}
	if _, built, _ := sweepPlans(t, r, g); built != 60 {
		t.Fatalf("ReducedGrid sweep built %d MI plans, want 60", built)
	}
	if _, built, _ := sweepPlans(t, r, g); built != 0 {
		t.Fatalf("second ReducedGrid sweep built %d MI plans, want 0", built)
	}
}
