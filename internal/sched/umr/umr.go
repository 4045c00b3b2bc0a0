// Package umr implements the UMR (Uniform Multi-Round) scheduling
// algorithm of Yang and Casanova (IPDPS'03), summarised in §3.2 of the
// RUMR paper. UMR dispatches the workload in M rounds; within a round
// every worker computes for the same duration, and chunk sizes grow
// between rounds so that the master finishes sending round j+1 exactly
// while the workers compute round j:
//
//	Σ_i (nLat_i + chunk_{j+1,i}/B_i) = R_j,  chunk_{j,i} = S_i (R_j - cLat_i)
//
// which yields the round-time induction R_{j+1} = (R_j - δ)/β with
// β = Σ S_i/B_i and δ = Σ nLat_i - Σ S_i cLat_i / B_i. Given M, the
// constraint that chunks sum to W_total fixes R_0 (equivalently chunk_0);
// the number of rounds is then chosen to minimise the predicted makespan.
// The paper solves the continuous optimisation with Lagrange multipliers
// and bisection; we provide that solver (ContinuousRounds) and a discrete
// search over integer M (Build), which agree to within one round — a
// property the tests pin down.
package umr

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"rumr/internal/engine"
	"rumr/internal/numeric"
	"rumr/internal/platform"
	"rumr/internal/sched"
)

// MaxRounds caps the discrete search. On zero-latency platforms the
// predicted makespan decreases (ever more slowly) with M, so the search
// needs a ceiling; real optima in the paper's parameter space are far
// below it.
const MaxRounds = 300

// Plan is a complete UMR schedule.
type Plan struct {
	// Workers holds original platform indices in dispatch order (fastest
	// links first when resource selection had to drop workers).
	Workers []int
	// Rounds is M, the number of rounds.
	Rounds int
	// Sizes[j][k] is the chunk size for Workers[k] in round j.
	Sizes [][]float64
	// RoundTimes[j] is the common per-worker compute time of round j.
	RoundTimes []float64
	// Predicted is the model's predicted makespan (exact for homogeneous
	// platforms under perfect predictions).
	Predicted float64
}

// Chunks flattens the plan into engine dispatch order: round by round,
// workers in selection order.
func (p *Plan) Chunks() []engine.Chunk {
	out := make([]engine.Chunk, 0, len(p.Sizes)*len(p.Workers))
	for j, round := range p.Sizes {
		for k, size := range round {
			if size <= 0 {
				continue
			}
			out = append(out, engine.Chunk{Worker: p.Workers[k], Size: size, Round: j, Phase: 1})
		}
	}
	return out
}

// Total returns the workload covered by the plan.
func (p *Plan) Total() float64 {
	total := 0.0
	for _, round := range p.Sizes {
		for _, s := range round {
			total += s
		}
	}
	return total
}

// selection orders workers by decreasing link bandwidth and keeps the
// largest prefix with Σ S/B < 1 (at least one worker) — the UMR resource
// selection rule. It returns original indices.
func selection(p *platform.Platform) []int {
	idx := make([]int, p.N())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return p.Workers[idx[a]].B > p.Workers[idx[b]].B
	})
	sum := 0.0
	keep := 0
	for _, i := range idx {
		w := p.Workers[i]
		if keep > 0 && sum+w.S/w.B >= 1 {
			break
		}
		sum += w.S / w.B
		keep++
	}
	return idx[:keep]
}

// instance precomputes the per-selection aggregates used by the planner.
type instance struct {
	p       *platform.Platform
	sel     []int
	beta    float64 // Σ S/B over the selection
	delta   float64 // Σ nLat - Σ S·cLat/B
	stot    float64 // Σ S
	sumCLat float64 // Σ S·cLat
	maxCLat float64
	minUnit float64
	total   float64
}

func newInstance(pr *sched.Problem) instance {
	sel := selection(pr.Platform)
	inst := instance{p: pr.Platform, sel: sel, minUnit: pr.EffectiveMinUnit(), total: pr.Total}
	for _, i := range sel {
		w := pr.Platform.Workers[i]
		inst.beta += w.S / w.B
		inst.delta += w.NLat - w.S*w.CLat/w.B
		inst.stot += w.S
		inst.sumCLat += w.S * w.CLat
		if w.CLat > inst.maxCLat {
			inst.maxCLat = w.CLat
		}
	}
	return inst
}

// roundTimes fills rs with the len(rs) round times of the schedule whose
// chunks sum to the workload. The induction R_{j+1} = (R_j - δ)/β has the
// closed form R_j = R_fp + u0·q^j with q = 1/β and fixed point
// R_fp = δ/(1-β); the total-work constraint Σ_j R_j = (W + M·ΣS·cLat)/ΣS
// determines u0. Using the closed form matters: iterating the recursion
// forward multiplies the rounding error of R_0 by q^M, which for the
// paper's platforms (q up to 2) and large M turns one ulp into whole
// workload units.
func (in *instance) roundTimes(rs []float64) error {
	m := len(rs)
	target := (in.total + float64(m)*in.sumCLat) / in.stot
	if math.Abs(in.beta-1) < 1e-12 {
		// β = 1: arithmetic progression R_j = R_0 - j·δ.
		r0 := (target + in.delta*float64(m)*float64(m-1)/2) / float64(m)
		for j := 0; j < m; j++ {
			rs[j] = r0 - float64(j)*in.delta
		}
		return nil
	}
	q := 1 / in.beta
	rfp := in.delta / (1 - in.beta)
	g := numeric.GeomSum(q, m)
	if g == 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return errDegenerate
	}
	u0 := (target - float64(m)*rfp) / g
	for j := 0; j < m; j++ {
		rs[j] = rfp + u0*math.Pow(q, float64(j))
	}
	return nil
}

// Reasons a round count is rejected. Build only tests for an error, so
// these carry no per-candidate detail.
var (
	errDegenerate = errors.New("umr: degenerate round recursion")
	errDiverged   = errors.New("umr: round time diverged")
	errDecreasing = errors.New("umr: rounds would decrease")
	errBelowFloor = errors.New("umr: chunk below floor")
	errResidual   = errors.New("umr: residual cannot be absorbed")
)

// candidate is one round count's schedule under evaluation: its round
// times and its chunk sizes, row-major with one row of len(sel) per
// round. Build's search evaluates every round count into one of two
// recycled candidates, so a rejected round count allocates nothing.
type candidate struct {
	rs        []float64
	sizes     []float64
	predicted float64
}

// scratch recycles Build's two candidates across calls: Build copies its
// winner out, so no Plan aliases them.
var scratch = sync.Pool{New: func() any { return new([2]candidate) }}

// eval computes the schedule for m rounds into c, or returns an error
// when some chunk would be non-positive / below the validity floor.
func (in *instance) eval(m int, c *candidate) error {
	k := len(in.sel)
	// The search tries M = 1, 2, 3, ...: grow amortized, as append does.
	c.rs = slices.Grow(c.rs[:0], m)[:m]
	c.sizes = slices.Grow(c.sizes[:0], m*k)[:m*k]
	if err := in.roundTimes(c.rs); err != nil {
		return err
	}
	// The smallest chunk must stay above a floor: the workload's minimal
	// unit, relaxed for tiny per-worker workloads.
	perWorker := in.total / float64(k)
	floor := math.Min(in.minUnit, perWorker/float64(m))
	for j, r := range c.rs {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return errDiverged
		}
		// UMR's premise is that chunk sizes never shrink between rounds
		// (Fig. 3 of the paper); plans whose rounds would decrease are
		// rejected, which is what makes UMR degenerate to a single round
		// in high-latency regimes — a behaviour §5.1 of the RUMR paper
		// relies on ("RUMR often uses only one round in phase #1").
		if j > 0 && r < c.rs[j-1]-1e-9 {
			return errDecreasing
		}
		row := c.sizes[j*k : (j+1)*k]
		for kk, i := range in.sel {
			w := in.p.Workers[i]
			size := w.S * (r - w.CLat)
			if size < floor {
				return errBelowFloor
			}
			row[kk] = size
		}
	}
	// Absorb the floating-point residual into the largest chunk of the
	// last round so the plan sums to the workload exactly.
	total := 0.0
	for _, s := range c.sizes {
		total += s
	}
	residual := in.total - total
	last := c.sizes[(m-1)*k:]
	big := 0
	for kk := range last {
		if last[kk] > last[big] {
			big = kk
		}
	}
	if last[big]+residual <= 0 {
		return errResidual
	}
	last[big] += residual
	c.predicted = in.predict(c.sizes[:k], c.rs)
	return nil
}

// plan materializes candidate c as a Plan with storage of its own.
func (in *instance) plan(c *candidate) *Plan {
	k := len(in.sel)
	slab := append([]float64(nil), c.sizes...)
	sizes := make([][]float64, len(c.rs))
	for j := range sizes {
		sizes[j] = slab[j*k : (j+1)*k : (j+1)*k]
	}
	return &Plan{
		Workers:    append([]int(nil), in.sel...),
		Rounds:     len(c.rs),
		Sizes:      sizes,
		RoundTimes: append([]float64(nil), c.rs...),
		Predicted:  c.predicted,
	}
}

// predict estimates the makespan of a plan from its first round's chunk
// sizes and its round times: ramp-up of round 0 plus the (equal) compute
// times of all rounds on the last-served worker.
func (in *instance) predict(first, rs []float64) float64 {
	ramp := 0.0
	for k, i := range in.sel {
		w := in.p.Workers[i]
		ramp += w.NLat + first[k]/w.B
	}
	lastW := in.p.Workers[in.sel[len(in.sel)-1]]
	total := ramp + lastW.TLat
	for _, r := range rs {
		total += r
	}
	return total
}

// Build computes the UMR plan with the (discretely) optimal number of
// rounds for the problem.
func Build(pr *sched.Problem) (*Plan, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	in := newInstance(pr)
	// cur is the candidate under evaluation; an improving one swaps places
	// with best, so only the winner is ever copied out.
	sc := scratch.Get().(*[2]candidate)
	defer scratch.Put(sc)
	cur, best := &sc[0], &sc[1]
	found := false
	objective := func(m int) float64 {
		if in.eval(m, cur) != nil {
			return math.Inf(1)
		}
		if !found || cur.predicted < best.predicted {
			found = true
			cur, best = best, cur
			return best.predicted
		}
		return cur.predicted
	}
	numeric.MinimizeUnimodalInt(objective, 1, MaxRounds, 4)
	if found {
		return in.plan(best), nil
	}
	// No M admits a uniform schedule above the floor (e.g. a tiny
	// workload): fall back to a single round of proportional chunks.
	return singleRoundFallback(in)
}

// singleRoundFallback splits the workload in one round, proportionally to
// worker speed, ignoring the chunk floor.
func singleRoundFallback(in instance) (*Plan, error) {
	if in.stot <= 0 {
		return nil, errors.New("umr: platform has no compute capacity")
	}
	row := make([]float64, len(in.sel))
	for k, i := range in.sel {
		row[k] = in.total * in.p.Workers[i].S / in.stot
	}
	rs := []float64{in.total/in.stot + in.maxCLat}
	return &Plan{
		Workers:    append([]int(nil), in.sel...),
		Rounds:     1,
		Sizes:      [][]float64{row},
		RoundTimes: rs,
		Predicted:  in.predict(row, rs),
	}, nil
}

// ContinuousRounds solves the paper's continuous optimisation for the
// number of rounds on a homogeneous platform: minimise
//
//	E(M) = N·nLat + N·chunk0(M)/B + M·cLat + W/(N·S)  (+ tLat)
//
// subject to the chunks summing to W, via the stationarity condition
// dE/dM = 0 found with Brent's method — the Lagrange-multiplier/bisection
// procedure of [17]. It returns the (real-valued) optimal M.
func ContinuousRounds(pr *sched.Problem) (float64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	p := pr.Platform
	if !p.Homogeneous() {
		return 0, errors.New("umr: ContinuousRounds requires a homogeneous platform")
	}
	w := p.Workers[0]
	n := float64(p.N())
	theta := w.B / (n * w.S)
	eta := w.B * (w.CLat - n*w.NLat) / n
	wPer := pr.Total / n // per-worker workload

	chunk0 := func(m float64) float64 {
		if math.Abs(theta-1) < 1e-12 {
			return wPer/m - eta*(m-1)/2
		}
		f := eta / (1 - theta)
		g := (math.Pow(theta, m) - 1) / (theta - 1)
		return f + (wPer-m*f)/g
	}
	dE := func(m float64) float64 {
		var d float64
		if math.Abs(theta-1) < 1e-12 {
			d = -wPer/(m*m) - eta/2
		} else {
			f := eta / (1 - theta)
			g := (math.Pow(theta, m) - 1) / (theta - 1)
			gp := math.Pow(theta, m) * math.Log(theta) / (theta - 1)
			d = (-f*g - (wPer-m*f)*gp) / (g * g)
		}
		return n/w.B*d + w.CLat
	}
	// Feasibility: chunk sizes must not shrink between rounds, i.e.
	// chunk0(M) must stay at or above the recursion's fixed point
	// F = eta/(1-theta). Since chunk0(M) - F = (wPer - M·F)/G(M) and
	// G > 0 for theta > 1, the bound has the closed form M <= wPer/F
	// (always feasible when F <= 0).
	maxFeasible := float64(MaxRounds)
	if math.Abs(theta-1) < 1e-12 {
		if eta < 0 {
			maxFeasible = 1
		}
	} else if theta > 1 {
		if f := eta / (1 - theta); f > 0 {
			maxFeasible = math.Max(1, math.Min(maxFeasible, wPer/f))
		}
	}

	lo, hi := 1.0, maxFeasible
	if hi <= lo {
		return lo, nil
	}
	if dE(lo) >= 0 {
		return lo, nil // makespan already increasing at M=1
	}
	if dE(hi) <= 0 {
		return hi, nil // still decreasing at the feasibility edge
	}
	m, err := numeric.Brent(dE, lo, hi, 1e-9)
	if err != nil {
		return 0, err
	}
	if chunk0(m) <= 0 {
		return 0, fmt.Errorf("umr: continuous optimum M=%g yields non-positive chunk0", m)
	}
	return m, nil
}

// Scheduler adapts UMR to the sched.Scheduler interface. It plays the
// plan strictly in order; RUMR's phase 1 builds its own out-of-order
// sched.Static from BuildChunksMemo.
type Scheduler struct{}

// Name implements sched.Scheduler.
func (Scheduler) Name() string { return "UMR" }

// NewDispatcher implements sched.Scheduler.
func (Scheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	plan, err := Build(pr)
	if err != nil {
		return nil, err
	}
	return sched.NewStatic(plan.Chunks(), false), nil
}

// BuildChunksMemo returns Build(pr).Chunks() through the memo: the round
// optimisation runs once per (platform, workload, minimal unit) and the
// flattened chunk list is shared by every dispatcher built from it. The
// UMR plan does not depend on the error magnitude, so the key leaves
// KnownError at zero — one entry serves a sweep configuration's whole
// (error x repetition) block. RUMR's phase 1 uses the same namespace with
// its phase-1 share as the workload, so e.g. at error 0 it shares UMR's
// entry outright.
func BuildChunksMemo(pr *sched.Problem, m *sched.Memo) ([]engine.Chunk, error) {
	v, err := m.Do(pr, sched.MemoKey{
		Scheduler: "UMR/plan",
		Total:     pr.Total,
		MinUnit:   pr.EffectiveMinUnit(),
	}, func() (any, error) {
		plan, err := Build(pr)
		if err != nil {
			return nil, err
		}
		return plan.Chunks(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]engine.Chunk), nil
}

// NewDispatcherMemo implements sched.Memoizer.
func (Scheduler) NewDispatcherMemo(pr *sched.Problem, m *sched.Memo) (engine.Dispatcher, error) {
	chunks, err := BuildChunksMemo(pr, m)
	if err != nil {
		return nil, err
	}
	return sched.NewStatic(chunks, false), nil
}
