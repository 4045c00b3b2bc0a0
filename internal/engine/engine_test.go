package engine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

// listDispatcher sends a fixed list of chunks in order, as soon as the port
// is free — the simplest possible static policy, used to probe engine
// timing precisely.
type listDispatcher struct {
	plan []Chunk
	pos  int
}

func (l *listDispatcher) Next(v *View) (Chunk, bool) {
	if l.pos >= len(l.plan) {
		return Chunk{}, false
	}
	c := l.plan[l.pos]
	l.pos++
	return c, true
}

// demandDispatcher sends unit chunks only to idle workers, up to a total.
type demandDispatcher struct {
	remaining float64
	size      float64
}

func (d *demandDispatcher) Next(v *View) (Chunk, bool) {
	if d.remaining <= 0 {
		return Chunk{}, false
	}
	for i, w := range v.Workers {
		if w.Idle() {
			s := math.Min(d.size, d.remaining)
			d.remaining -= s
			return Chunk{Worker: i, Size: s}, true
		}
	}
	return Chunk{}, false
}

func TestSingleChunkTiming(t *testing.T) {
	// One worker: makespan = nLat + size/B + tLat + cLat + size/S.
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 2, B: 4, CLat: 0.3, NLat: 0.1, TLat: 0.25},
	}}
	res, err := Run(p, &listDispatcher{plan: []Chunk{{Worker: 0, Size: 8}}}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + 8.0/4 + 0.25 + 0.3 + 8.0/2
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Chunks != 1 || res.DispatchedWork != 8 {
		t.Fatalf("accounting: %+v", res)
	}
	r := res.Trace.Records[0]
	if r.SendStart != 0 || math.Abs(r.SendEnd-2.1) > 1e-12 || math.Abs(r.Arrive-2.35) > 1e-12 {
		t.Fatalf("record = %+v", r)
	}
	if math.Abs(r.CompStart-2.35) > 1e-12 || math.Abs(r.CompEnd-want) > 1e-12 {
		t.Fatalf("compute times = %+v", r)
	}
}

func TestFrontEndOverlap(t *testing.T) {
	// Two chunks to one worker: the second transfer happens while the
	// first chunk computes (front-end model), so the second computation
	// starts the moment the first ends.
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 1, B: 10, CLat: 0, NLat: 0, TLat: 0},
	}}
	plan := []Chunk{{Worker: 0, Size: 10}, {Worker: 0, Size: 10}}
	res, err := Run(p, &listDispatcher{plan: plan}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 arrives at 1, computes 1..11. Chunk 2 sent 1..2, arrives at
	// 2, waits, computes 11..21.
	if math.Abs(res.Makespan-21) > 1e-12 {
		t.Fatalf("makespan = %v, want 21", res.Makespan)
	}
	r2 := res.Trace.Records[1]
	if math.Abs(r2.SendStart-1) > 1e-12 || math.Abs(r2.Arrive-2) > 1e-12 || math.Abs(r2.CompStart-11) > 1e-12 {
		t.Fatalf("second chunk = %+v", r2)
	}
}

func TestSerializedPort(t *testing.T) {
	// Two workers: the second send cannot start before the first finishes.
	p := platform.Homogeneous(2, 1, 10, 0, 0.5)
	plan := []Chunk{{Worker: 0, Size: 10}, {Worker: 1, Size: 10}}
	res, err := Run(p, &listDispatcher{plan: plan}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := res.Trace.Records[0], res.Trace.Records[1]
	if math.Abs(r0.SendEnd-1.5) > 1e-12 {
		t.Fatalf("first send end = %v", r0.SendEnd)
	}
	if math.Abs(r1.SendStart-1.5) > 1e-12 {
		t.Fatalf("second send must start at 1.5, got %v", r1.SendStart)
	}
}

func TestTLatOverlaps(t *testing.T) {
	// A large tLat delays arrival but not the next send.
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 1, B: 1, TLat: 100},
		{S: 1, B: 1, TLat: 100},
	}}
	plan := []Chunk{{Worker: 0, Size: 1}, {Worker: 1, Size: 1}}
	res, err := Run(p, &listDispatcher{plan: plan}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := res.Trace.Records[1]
	if math.Abs(r1.SendStart-1) > 1e-12 {
		t.Fatalf("tLat must not block the port: second send at %v, want 1", r1.SendStart)
	}
	if math.Abs(r1.Arrive-102) > 1e-12 {
		t.Fatalf("arrive = %v, want 102", r1.Arrive)
	}
}

func TestRoundRobinStartTimes(t *testing.T) {
	// Paper Fig. 2 style: worker i starts computing at
	// i*(nLat + c/B) + nLat + c/B + tLat for identical chunks.
	n := 3
	p := platform.Homogeneous(n, 1, 6, 0.2, 0.1)
	var plan []Chunk
	for i := 0; i < n; i++ {
		plan = append(plan, Chunk{Worker: i, Size: 3})
	}
	res, err := Run(p, &listDispatcher{plan: plan}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	per := 0.1 + 3.0/6
	for i, r := range res.Trace.Records {
		wantStart := float64(i+1) * per
		if math.Abs(r.CompStart-wantStart) > 1e-12 {
			t.Fatalf("worker %d compute start = %v, want %v", i, r.CompStart, wantStart)
		}
	}
	// Makespan: last worker starts at 3*per, computes 0.2 + 3.
	want := 3*per + 0.2 + 3
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestFIFOComputeOrder(t *testing.T) {
	p := &platform.Platform{Workers: []platform.Worker{{S: 1, B: 100}}}
	plan := []Chunk{
		{Worker: 0, Size: 5, Round: 0},
		{Worker: 0, Size: 1, Round: 1},
		{Worker: 0, Size: 2, Round: 2},
	}
	res, err := Run(p, &listDispatcher{plan: plan}, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0.0
	for i, r := range res.Trace.Records {
		if r.Round != i {
			t.Fatalf("records out of order: %+v", res.Trace.Records)
		}
		if r.CompStart < prevEnd-1e-12 {
			t.Fatalf("compute overlap at record %d", i)
		}
		prevEnd = r.CompEnd
	}
}

func TestDemandDrivenDrains(t *testing.T) {
	p := platform.Homogeneous(4, 1, 16, 0.05, 0.05)
	d := &demandDispatcher{remaining: 100, size: 5}
	res, err := Run(p, d, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DispatchedWork-100) > 1e-9 {
		t.Fatalf("dispatched %v, want 100", res.DispatchedWork)
	}
	if res.Chunks != 20 {
		t.Fatalf("chunks = %d, want 20", res.Chunks)
	}
	if err := res.Trace.Validate(p, 100); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestErrorModelPerturbsDeterministically(t *testing.T) {
	p := platform.Homogeneous(4, 1, 16, 0.1, 0.1)
	run := func(seed uint64) float64 {
		src := rng.New(seed)
		opts := Options{
			CommModel: perferr.NewTruncNormal(0.3, src.Split()),
			CompModel: perferr.NewTruncNormal(0.3, src.Split()),
		}
		res, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b, c := run(1), run(1), run(2)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	if a == c {
		t.Fatal("different seeds gave identical makespans (suspicious)")
	}
	// And the perfect run differs from the perturbed one.
	perfect, err := Run(p, &demandDispatcher{remaining: 100, size: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Makespan == a {
		t.Fatal("error model had no effect")
	}
}

func TestInvalidPlatform(t *testing.T) {
	var p platform.Platform
	if _, err := Run(&p, &listDispatcher{}, Options{}); err == nil {
		t.Fatal("empty platform accepted")
	}
}

func TestDispatcherBadWorker(t *testing.T) {
	p := platform.Homogeneous(2, 1, 4, 0, 0)
	_, err := Run(p, &listDispatcher{plan: []Chunk{{Worker: 5, Size: 1}}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "worker 5") {
		t.Fatalf("err = %v", err)
	}
}

func TestDispatcherBadSize(t *testing.T) {
	p := platform.Homogeneous(2, 1, 4, 0, 0)
	for _, size := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		_, err := Run(p, &listDispatcher{plan: []Chunk{{Worker: 0, Size: size}}}, Options{})
		if err == nil {
			t.Fatalf("size %v accepted", size)
		}
	}
}

// runaway sends forever; the engine must abort it.
type runaway struct{}

func (runaway) Next(v *View) (Chunk, bool) { return Chunk{Worker: 0, Size: 1}, true }

func TestRunawayDispatcherAborted(t *testing.T) {
	defer func(old int) { maxChunks = old }(maxChunks)
	maxChunks = 100
	p := platform.Homogeneous(1, 1, 1, 0, 0)
	_, err := Run(p, runaway{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "runaway") {
		t.Fatalf("err = %v", err)
	}
}

// observer records completions.
type observer struct {
	listDispatcher
	completions []int
	predicted   []float64
	effective   []float64
}

func (o *observer) OnComplete(w int, c Chunk, at, pred, eff float64) {
	o.completions = append(o.completions, w)
	o.predicted = append(o.predicted, pred)
	o.effective = append(o.effective, eff)
}

func TestObserverCallback(t *testing.T) {
	p := platform.Homogeneous(2, 2, 8, 0.5, 0)
	o := &observer{listDispatcher: listDispatcher{plan: []Chunk{
		{Worker: 0, Size: 4}, {Worker: 1, Size: 4},
	}}}
	if _, err := Run(p, o, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(o.completions) != 2 {
		t.Fatalf("completions = %v", o.completions)
	}
	wantPred := 0.5 + 4.0/2
	for i, pr := range o.predicted {
		if math.Abs(pr-wantPred) > 1e-12 || math.Abs(o.effective[i]-wantPred) > 1e-12 {
			t.Fatalf("pred/eff = %v/%v, want %v", pr, o.effective[i], wantPred)
		}
	}
}

// TestViewIdleWorkers checks FirstIdle and WorkerIdle on a hand-built
// View, whose nil IdleMask makes both fall back to WorkerState.Idle.
func TestViewIdleWorkers(t *testing.T) {
	v := &View{Workers: []WorkerState{
		{Computing: true}, // busy
		{Queued: 1},       // has work queued
		{InFlight: 1},     // data on the way
		{Down: true},      // crashed
		{LinkDown: true},  // unreachable
		{},                // idle
		{},                // idle
	}}
	if got := v.FirstIdle(); got != 5 {
		t.Fatalf("FirstIdle = %d, want 5", got)
	}
	for i := range v.Workers {
		if got, want := v.WorkerIdle(i), i >= 5; got != want {
			t.Errorf("WorkerIdle(%d) = %v, want %v", i, got, want)
		}
	}
	v.Workers = v.Workers[:5]
	if got := v.FirstIdle(); got != -1 {
		t.Fatalf("FirstIdle with no idle worker = %d, want -1", got)
	}
}

// Property: for random platforms, random static plans and random error
// magnitudes, the recorded trace always validates and work is conserved.
func TestTraceAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(8)
		spec := platform.HeterogeneousSpec{
			N: n, SMin: 0.2, SMax: 3, BMin: 0.5, BMax: 50,
			CLatMax: 1, NLatMax: 1, TLatMax: 0.5,
		}
		p := platform.Heterogeneous(spec, src)
		var plan []Chunk
		total := 0.0
		for i := 0; i < 1+src.Intn(30); i++ {
			size := src.Uniform(0.1, 20)
			total += size
			plan = append(plan, Chunk{Worker: src.Intn(n), Size: size, Round: i})
		}
		errMag := src.Uniform(0, 0.5)
		opts := Options{
			CommModel:   perferr.NewTruncNormal(errMag, src.Split()),
			CompModel:   perferr.NewTruncNormal(errMag, src.Split()),
			RecordTrace: true,
		}
		res, err := Run(p, &listDispatcher{plan: plan}, opts)
		if err != nil {
			return false
		}
		if math.Abs(res.DispatchedWork-total) > 1e-9*total {
			return false
		}
		return res.Trace.Validate(p, total) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRun100Chunks(b *testing.B) {
	p := platform.Homogeneous(10, 1, 20, 0.1, 0.1)
	for i := 0; i < b.N; i++ {
		d := &demandDispatcher{remaining: 1000, size: 10}
		if _, err := Run(p, d, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
