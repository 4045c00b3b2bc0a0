// Package mi implements the Multi-Installment divisible-load strategy of
// Bharadwaj, Ghose, Mani and Robertazzi ([18], chapter 10), the
// performance-oriented competitor of the RUMR paper. MI-1 (a single
// installment) is also the classic one-round divisible-load schedule used
// as the baseline in [11].
//
// The strategy hands each worker x installments. Chunk sizes are the
// solution of a linear system encoding the model of [18] — which, unlike
// UMR's, has no latencies:
//
//   - the master sends installments back to back, worker 0..N-1 within an
//     installment, so a chunk's arrival time is the running sum of c/B
//     over everything sent before it;
//   - each worker computes continuously: installment j+1 arrives exactly
//     when installment j finishes computing;
//   - all workers finish at the same instant;
//   - the chunks sum to the total workload.
//
// That is N·x unknowns and N·(x-1) + (N-1) + 1 equations, solved by
// Gaussian elimination. Because planning ignores latencies, MI pays the
// full nLat/cLat cost at simulation time — the effect the RUMR paper's
// evaluation exposes.
//
// When the requested installment count is infeasible (some chunk would be
// negative — the master cannot keep workers fed), the planner retries with
// x-1 installments; x=1 is always feasible.
//
// Because the plan reads nothing of the platform but N and the workers' B
// and S, Scheduler.NewDispatcherMemo caches it in two tiers (see
// sched.Memo): on a platform whose workers all share one B and one S —
// every sweep platform — in the memo's shared tier, keyed by scheduler
// name (which carries x), workload, minimal unit, N, B and S, so a sweep
// runner solves each such plan once however many latency settings it
// simulates; on any other platform in the per-cell tier, once per
// configuration.
package mi

import (
	"errors"
	"fmt"

	"rumr/internal/engine"
	"rumr/internal/numeric"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

// Plan is a complete multi-installment schedule.
type Plan struct {
	// Installments is the number actually used (may be below the request
	// after infeasibility fallback).
	Installments int
	// Requested is the originally requested installment count.
	Requested int
	// Sizes[j][i] is worker i's chunk in installment j.
	Sizes [][]float64
	// Predicted is the makespan under the latency-free model of [18].
	Predicted float64
}

// Chunks flattens the plan in dispatch order.
func (p *Plan) Chunks() []engine.Chunk {
	count := 0
	for _, row := range p.Sizes {
		for _, size := range row {
			if size > 0 {
				count++
			}
		}
	}
	out := make([]engine.Chunk, 0, count)
	for j, row := range p.Sizes {
		for i, size := range row {
			if size <= 0 {
				continue
			}
			out = append(out, engine.Chunk{Worker: i, Size: size, Round: j, Phase: 1})
		}
	}
	return out
}

// Total returns the workload covered by the plan.
func (p *Plan) Total() float64 {
	total := 0.0
	for _, row := range p.Sizes {
		for _, s := range row {
			total += s
		}
	}
	return total
}

// negTol is the feasibility tolerance: a solution chunk below -negTol×W
// marks the installment count as infeasible, anything in (-negTol×W, 0]
// is clamped to zero.
const negTol = 1e-9

// system assembles the linear system for exactly x installments over
// the N·x unknowns c[j][i] (index j*N+i): the coefficients as one
// contiguous row-major slab of (N·x)² entries, and the right-hand side.
func system(p *platform.Platform, total float64, x int) (a, rhs []float64, err error) {
	n := p.N()
	size := n * x
	idx := func(j, i int) int { return j*n + i }

	a = make([]float64, size*size)
	rhs = make([]float64, size)
	// eq(row) is row's coefficients.
	eq := func(row int) []float64 { return a[row*size : (row+1)*size] }
	row := 0

	// Continuity: A(j,i) - A(0,i) - Σ_{l<j} c[l][i]/S_i = 0.
	// A(j,i) includes every chunk sent up to and including (j,i).
	for j := 1; j < x; j++ {
		for i := 0; i < n; i++ {
			e := eq(row)
			// + A(j,i)
			for l := 0; l <= j; l++ {
				limit := n - 1
				if l == j {
					limit = i
				}
				for m := 0; m <= limit; m++ {
					e[idx(l, m)] += 1 / p.Workers[m].B
				}
			}
			// - A(0,i)
			for m := 0; m <= i; m++ {
				e[idx(0, m)] -= 1 / p.Workers[m].B
			}
			// - compute time of installments 0..j-1 on worker i
			for l := 0; l < j; l++ {
				e[idx(l, i)] -= 1 / p.Workers[i].S
			}
			rhs[row] = 0
			row++
		}
	}

	// Equal finish: finish_i - finish_0 = 0 for i = 1..n-1, with
	// finish_i = A(0,i) + Σ_l c[l][i]/S_i.
	for i := 1; i < n; i++ {
		e := eq(row)
		for m := 0; m <= i; m++ {
			e[idx(0, m)] += 1 / p.Workers[m].B
		}
		for l := 0; l < x; l++ {
			e[idx(l, i)] += 1 / p.Workers[i].S
		}
		for m := 0; m <= 0; m++ {
			e[idx(0, m)] -= 1 / p.Workers[m].B
		}
		for l := 0; l < x; l++ {
			e[idx(l, 0)] -= 1 / p.Workers[0].S
		}
		rhs[row] = 0
		row++
	}

	// Conservation: Σ c = W.
	e := eq(row)
	for k := range e {
		e[k] = 1
	}
	rhs[row] = total
	row++

	if row != size {
		return nil, nil, fmt.Errorf("mi: internal: %d equations for %d unknowns", row, size)
	}
	return a, rhs, nil
}

// solve builds and solves the linear system for exactly x installments.
// It returns an error when the system is singular or the solution has a
// materially negative chunk.
func solve(p *platform.Platform, total float64, x int) (*Plan, error) {
	a, rhs, err := system(p, total, x)
	if err != nil {
		return nil, err
	}
	sol, err := numeric.SolveLinear(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("mi: %d installments: %w", x, err)
	}
	// The solution vector is c[j][i] at j*N+i, so installment j's sizes
	// are row j of it, clamped in place.
	n := p.N()
	sizes := make([][]float64, x)
	for j := range sizes {
		sizes[j] = sol[j*n : (j+1)*n : (j+1)*n]
		for i, c := range sizes[j] {
			if c < -negTol*total {
				return nil, fmt.Errorf("mi: %d installments infeasible (chunk %g)", x, c)
			}
			if c < 0 {
				sizes[j][i] = 0
			}
		}
	}

	// Predicted makespan under the latency-free model: worker 0's finish.
	finish := 0.0
	for m := 0; m <= 0; m++ {
		finish += sizes[0][m] / p.Workers[m].B
	}
	for l := 0; l < x; l++ {
		finish += sizes[l][0] / p.Workers[0].S
	}
	return &Plan{Installments: x, Sizes: sizes, Predicted: finish}, nil
}

// Build computes an MI plan with the requested number of installments,
// falling back to fewer when infeasible.
func Build(pr *sched.Problem, installments int) (*Plan, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if installments < 1 {
		return nil, fmt.Errorf("mi: installment count %d must be >= 1", installments)
	}
	var lastErr error
	for x := installments; x >= 1; x-- {
		plan, err := solve(pr.Platform, pr.Total, x)
		if err != nil {
			lastErr = err
			continue
		}
		plan.Requested = installments
		return plan, nil
	}
	if lastErr == nil {
		lastErr = errors.New("mi: no feasible installment count")
	}
	return nil, lastErr
}

// Scheduler adapts MI-x to the sched.Scheduler interface.
type Scheduler struct {
	// Installments is the x in MI-x; the paper instantiates 1 through 4.
	Installments int
}

// Name implements sched.Scheduler.
func (s Scheduler) Name() string { return fmt.Sprintf("MI-%d", s.Installments) }

// NewDispatcher implements sched.Scheduler.
func (s Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	plan, err := Build(pr, s.Installments)
	if err != nil {
		return nil, err
	}
	return sched.NewStatic(plan.Chunks(), false), nil
}

// planKeys holds the memo key names of MI-0 through MI-8, formatted once
// so that a plan served from the memo formats no string.
var planKeys = func() (keys [9]string) {
	for x := range keys {
		keys[x] = Scheduler{Installments: x}.Name() + "/plan"
	}
	return keys
}()

// planKey returns the memo key name of s's plan: its name, which carries
// the installment count, in the "/plan" namespace.
func (s Scheduler) planKey() string {
	if s.Installments >= 0 && s.Installments < len(planKeys) {
		return planKeys[s.Installments]
	}
	return s.Name() + "/plan"
}

// NewDispatcherMemo implements sched.Memoizer: the installment linear
// solve depends only on N, the workers' B and S, the workload and the
// installment count — never on the latencies or the error magnitude — so
// it goes through the memo's shared tier. On a sweep's homogeneous
// platforms one cached chunk list then serves every configuration with
// the same N and B (every cLat × nLat cell) for the runner's lifetime; on
// a heterogeneous platform it serves the (error, repetition) cells of one
// configuration through the per-cell tier. The problem is validated
// first, so an invalid platform never reaches a plan cached for a valid
// one with the same key.
func (s Scheduler) NewDispatcherMemo(pr *sched.Problem, m *sched.Memo) (engine.Dispatcher, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	v, err := m.DoShared(pr, sched.MemoKey{
		Scheduler: s.planKey(),
		Total:     pr.Total,
		MinUnit:   pr.EffectiveMinUnit(),
	}, func() (any, error) {
		plan, err := Build(pr, s.Installments)
		if err != nil {
			return nil, err
		}
		return plan.Chunks(), nil
	})
	if err != nil {
		return nil, err
	}
	return sched.NewStatic(v.([]engine.Chunk), false), nil
}
