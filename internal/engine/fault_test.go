package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rumr/internal/des"
	"rumr/internal/fault"
	"rumr/internal/obs"
	"rumr/internal/perferr"
	"rumr/internal/platform"
	"rumr/internal/rng"
)

func homog(n int) *platform.Platform {
	return platform.Homogeneous(n, 1, 10, 0.05, 0.01)
}

// TestCrashWithoutRecoveryLosesWork: with recovery disabled, a crash
// swallows the queued/in-progress chunks and the run completes short.
func TestCrashWithoutRecoveryLosesWork(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{{Time: 0.5, Worker: 0, Kind: fault.Crash}}}
	res, err := Run(p, &demandDispatcher{remaining: 20, size: 2}, Options{
		Faults: faults, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostChunks == 0 || res.LostWork <= 0 {
		t.Fatalf("crash lost nothing: %+v", res)
	}
	if res.Redispatches != 0 {
		t.Fatalf("recovery disabled but %d redispatches", res.Redispatches)
	}
	if math.Abs(res.CompletedWork+res.LostWork-res.DispatchedWork) > 1e-9 {
		t.Fatalf("work accounting broken: completed %g + lost %g != dispatched %g",
			res.CompletedWork, res.LostWork, res.DispatchedWork)
	}
	if err := res.Trace.Validate(p, res.DispatchedWork); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// TestCrashWithRecoveryCompletes: with recovery on, the full workload
// completes on the surviving worker and the trace still validates.
func TestCrashWithRecoveryCompletes(t *testing.T) {
	p := homog(3)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.5, Worker: 0, Kind: fault.Crash},
		{Time: 0.7, Worker: 1, Kind: fault.Crash},
	}}
	res, err := Run(p, &demandDispatcher{remaining: 30, size: 2}, Options{
		Faults: faults, Recovery: fault.Recovery{Enabled: true}, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedWork != 30 {
		t.Fatalf("dispatched %g, want 30", res.DispatchedWork)
	}
	if res.CompletedWork != 30 || res.LostWork != 0 {
		t.Fatalf("completed %g lost %g, want all 30 recovered", res.CompletedWork, res.LostWork)
	}
	if res.LostChunks == 0 || res.Redispatches == 0 {
		t.Fatalf("crash at t=0.5 caused no recovery: %+v", res)
	}
	if err := res.Trace.Validate(p, 30); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if got := res.Trace.CompletedWork(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("trace completed work %g, want 30", got)
	}
}

// TestCrashedWorkerDisappearsFromView: a crashed worker is never idle, so
// demand-driven dispatchers stop targeting it; after rejoin it serves
// again.
func TestCrashedWorkerDisappearsFromView(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.2, Worker: 1, Kind: fault.Crash},
		{Time: 6, Worker: 1, Kind: fault.Rejoin},
	}}
	res, err := Run(p, &demandDispatcher{remaining: 20, size: 1}, Options{
		Faults: faults, Recovery: fault.Recovery{Enabled: true}, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWork != 20 {
		t.Fatalf("completed %g, want 20", res.CompletedWork)
	}
	sawDead, sawRejoined := false, false
	for _, r := range res.Trace.Records {
		if r.Worker == 1 {
			if r.SendStart > 0.2+1e-9 && r.SendStart < 6-1e-9 && !r.Lost {
				sawDead = true
			}
			if r.SendStart >= 6 && !r.Lost {
				sawRejoined = true
			}
		}
	}
	if sawDead {
		t.Fatal("dispatcher fed the dead worker a chunk that completed while it was down")
	}
	if !sawRejoined {
		t.Fatal("rejoined worker never served again")
	}
}

// TestLinkOutageLosesArrivals: data arriving during an outage is lost and
// re-dispatched; computation of already-queued chunks continues.
func TestLinkOutageLosesArrivals(t *testing.T) {
	p := &platform.Platform{Workers: []platform.Worker{
		{S: 1, B: 2, CLat: 0, NLat: 0, TLat: 0},
		{S: 1, B: 2, CLat: 0, NLat: 0, TLat: 0},
	}}
	// Worker 0's link is down during [0.4, 3]; the first chunk to it
	// (send [0, 0.5], arrive 0.5) is lost in the outage window.
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.4, Worker: 0, Kind: fault.LinkDown},
		{Time: 3, Worker: 0, Kind: fault.LinkUp},
	}}
	res, err := Run(p, &listDispatcher{plan: []Chunk{
		{Worker: 0, Size: 1}, {Worker: 1, Size: 1},
	}}, Options{Faults: faults, Recovery: fault.Recovery{Enabled: true}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostChunks != 1 || res.Redispatches != 1 {
		t.Fatalf("lost %d redispatched %d, want 1/1", res.LostChunks, res.Redispatches)
	}
	if res.CompletedWork != 2 {
		t.Fatalf("completed %g, want 2", res.CompletedWork)
	}
	if err := res.Trace.Validate(p, 2); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// TestTimeoutKillsStuckChunk: an unbounded straggler holds a chunk
// forever; the completion timeout kills it and the chunk finishes
// elsewhere.
func TestTimeoutKillsStuckChunk(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0, Worker: 0, Kind: fault.SlowStart, Factor: 1e6},
	}}
	res, err := Run(p, &demandDispatcher{remaining: 4, size: 2}, Options{
		Faults:   faults,
		Recovery: fault.Recovery{Enabled: true, TimeoutFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWork != 4 {
		t.Fatalf("completed %g, want 4 (stuck chunk not recovered)", res.CompletedWork)
	}
	if res.Redispatches == 0 {
		t.Fatal("timeout never fired on the stuck chunk")
	}
	// A 1e6x straggler would need ~2e6 time units; recovery must finish in
	// ordinary time.
	if res.Makespan > 1000 {
		t.Fatalf("makespan %g: recovery did not bypass the straggler", res.Makespan)
	}
}

// TestBoundedStragglerEventuallyFinishes: with exponential backoff a
// mildly slow worker is allowed to finish its chunk rather than being
// killed forever (no livelock).
func TestBoundedStragglerEventuallyFinishes(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0, Worker: 0, Kind: fault.SlowStart, Factor: 3},
		{Time: 0, Worker: 1, Kind: fault.SlowStart, Factor: 3},
	}}
	res, err := Run(p, &demandDispatcher{remaining: 10, size: 1}, Options{
		Faults:   faults,
		Recovery: fault.Recovery{Enabled: true, TimeoutFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWork != 10 {
		t.Fatalf("completed %g, want 10", res.CompletedWork)
	}
}

// TestMaxAttemptsCapsRecovery: past the attempt cap the work is written
// off rather than retried forever.
func TestMaxAttemptsCapsRecovery(t *testing.T) {
	p := homog(1)
	faults := &fault.Schedule{Events: []fault.Event{{Time: 0.1, Worker: 0, Kind: fault.Crash}}}
	res, err := Run(p, &listDispatcher{plan: []Chunk{{Worker: 0, Size: 5}}}, Options{
		Faults:      faults,
		Recovery:    fault.Recovery{Enabled: true, MaxAttempts: 2},
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWork != 0 || res.LostWork != 5 {
		t.Fatalf("completed %g lost %g, want 0/5 (sole worker dead)", res.CompletedWork, res.LostWork)
	}
	if res.Redispatches > 2 {
		t.Fatalf("%d redispatches exceed MaxAttempts 2", res.Redispatches)
	}
	if err := res.Trace.Validate(p, 5); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// faultAwareProbe records FaultAware callbacks.
type faultAwareProbe struct {
	demandDispatcher
	downs, ups []int
}

func (f *faultAwareProbe) OnWorkerDown(w int, at float64, v *View) { f.downs = append(f.downs, w) }
func (f *faultAwareProbe) OnWorkerUp(w int, at float64, v *View)   { f.ups = append(f.ups, w) }

func TestFaultAwareCallbacks(t *testing.T) {
	p := homog(3)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.3, Worker: 2, Kind: fault.Crash},
		{Time: 0.9, Worker: 2, Kind: fault.Rejoin},
		{Time: 1.1, Worker: 0, Kind: fault.Crash},
	}}
	d := &faultAwareProbe{demandDispatcher: demandDispatcher{remaining: 30, size: 1}}
	if _, err := Run(p, d, Options{Faults: faults, Recovery: fault.Recovery{Enabled: true}}); err != nil {
		t.Fatal(err)
	}
	if len(d.downs) != 2 || d.downs[0] != 2 || d.downs[1] != 0 {
		t.Fatalf("downs = %v, want [2 0]", d.downs)
	}
	if len(d.ups) != 1 || d.ups[0] != 2 {
		t.Fatalf("ups = %v, want [2]", d.ups)
	}
}

// TestFaultEventStream: every fault and recovery action appears on the
// event stream with the right kinds.
func TestFaultEventStream(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.4, Worker: 0, Kind: fault.Crash},
		{Time: 2, Worker: 0, Kind: fault.Rejoin},
		{Time: 2.5, Worker: 1, Kind: fault.LinkDown},
		{Time: 2.7, Worker: 1, Kind: fault.LinkUp},
		{Time: 3, Worker: 1, Kind: fault.SlowStart, Factor: 2},
	}}
	counts := map[obs.Kind]int{}
	sink := obs.Func(func(e obs.Event) { counts[e.Kind]++ })
	res, err := Run(p, &demandDispatcher{remaining: 40, size: 1}, Options{
		Faults: faults, Recovery: fault.Recovery{Enabled: true}, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []obs.Kind{obs.KindWorkerCrash, obs.KindWorkerRejoin,
		obs.KindLinkDown, obs.KindLinkUp, obs.KindSlowdown} {
		if counts[k] != 1 {
			t.Errorf("%v events = %d, want 1", k, counts[k])
		}
	}
	if counts[obs.KindChunkLost] != res.LostChunks {
		t.Errorf("chunk-lost events %d != LostChunks %d", counts[obs.KindChunkLost], res.LostChunks)
	}
	if counts[obs.KindRedispatch] != res.Redispatches {
		t.Errorf("redispatch events %d != Redispatches %d", counts[obs.KindRedispatch], res.Redispatches)
	}
	if counts[obs.KindChunkLost] == 0 {
		t.Error("crash produced no chunk-lost events")
	}
}

// TestDuplicateFaultsIgnored: crashing a dead worker or cutting a dead
// link twice is a no-op, not a corruption.
func TestDuplicateFaultsIgnored(t *testing.T) {
	p := homog(2)
	faults := &fault.Schedule{Events: []fault.Event{
		{Time: 0.3, Worker: 0, Kind: fault.Crash},
		{Time: 0.4, Worker: 0, Kind: fault.Crash},
		{Time: 0.5, Worker: 0, Kind: fault.LinkDown}, // dead already
		{Time: 0.6, Worker: 1, Kind: fault.Rejoin},   // never crashed
	}}
	res, err := Run(p, &demandDispatcher{remaining: 10, size: 1}, Options{
		Faults: faults, Recovery: fault.Recovery{Enabled: true}, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedWork != 10 {
		t.Fatalf("completed %g, want 10", res.CompletedWork)
	}
	if err := res.Trace.Validate(p, 10); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// TestFaultyRunDeterministic: identical options (including faults,
// recovery and parallel sends) give byte-identical traces.
func TestFaultyRunDeterministic(t *testing.T) {
	p := platform.Heterogeneous(platform.HeterogeneousSpec{
		N: 4, SMin: 0.5, SMax: 2, BMin: 4, BMax: 10,
		CLatMax: 0.1, NLatMax: 0.05, TLatMax: 0.1,
	}, rng.New(7))
	sc := fault.Scenario{
		Horizon: 50, CrashProb: 0.6, RejoinProb: 0.5, RejoinDelayMax: 10,
		OutageProb: 0.5, OutageMax: 5, StragglerProb: 0.5, SlowMin: 2, SlowMax: 4,
	}
	run := func() Result {
		faults := sc.Generate(4, rng.New(99))
		res, err := Run(p, &demandDispatcher{remaining: 60, size: 1.5}, Options{
			Faults:        faults,
			Recovery:      fault.Recovery{Enabled: true, TimeoutFactor: 4},
			CommModel:     perferr.NewTruncNormal(0.3, rng.New(1)),
			CompModel:     perferr.NewTruncNormal(0.3, rng.New(2)),
			ParallelSends: 2,
			RecordTrace:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Redispatches != b.Redispatches || a.LostChunks != b.LostChunks {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
	if len(a.Trace.Records) != len(b.Trace.Records) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace.Records), len(b.Trace.Records))
	}
	for i := range a.Trace.Records {
		if a.Trace.Records[i] != b.Trace.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Trace.Records[i], b.Trace.Records[i])
		}
	}
}

// TestCancelledRetentionBounded is the regression test for stale-entry
// retention: a demand-driven recovery run arms one completion timer per
// chunk at 1,000 times its predicted completion, so every chunk completes
// long before its timer and disarms it. A disarmed timer stays queued
// until it reaches the root, and none does before the last chunk
// completes, so without compaction the queue would grow with every chunk
// sent. At every consult the physical queue must stay within twice its
// live entries plus the compaction slack, and once the run drains every
// stale entry must have been dropped or compacted away. A compaction
// fires every compactMin+1 disarms, so a chunk count that is a multiple
// of it has the last completion compact a queue whose only other entries
// are stale.
func TestCancelledRetentionBounded(t *testing.T) {
	for _, chunks := range []int{2000, 30 * (compactMin + 1)} {
		t.Run(fmt.Sprint(chunks), func(t *testing.T) { cancelledRetention(t, chunks) })
	}
}

func cancelledRetention(t *testing.T, chunks int) {
	p := platform.Homogeneous(4, 1, 40, 0.01, 0.01)
	maxQ := 0
	consultAudit = func(mr *multiRun) {
		q := mr.sim.QueueLen()
		if live := q - mr.stale; mr.stale < 0 || q > 2*live+4*compactMin {
			t.Fatalf("queue holds %d entries, %d of them stale: disarmed timers retained", q, mr.stale)
		}
		maxQ = max(maxQ, q)
	}
	defer func() { consultAudit = nil }()
	mr := &multiRun{sim: des.New()}
	jobs := []Job{{Total: float64(chunks), Dispatcher: &demandDispatcher{remaining: float64(chunks), size: 1}}}
	var ctr Counters
	err := mr.exec(p, jobs, MultiOptions{Counters: &ctr}, nil, fault.Recovery{Enabled: true, TimeoutFactor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if mr.jobs[0].res.CompletedWork != float64(chunks) || mr.redispatches != 0 {
		t.Fatalf("completed %g of %d units with %d re-dispatches", mr.jobs[0].res.CompletedWork, chunks, mr.redispatches)
	}
	// Every completion disarmed its timer; the queue's peak must be in the
	// order of the compaction threshold, not of the disarm count.
	if ctr.LazyCancels != int64(chunks) || maxQ > 4*compactMin {
		t.Fatalf("%d disarms, queue peaked at %d", ctr.LazyCancels, maxQ)
	}
	if mr.stale != 0 || mr.sim.QueueLen() != 0 {
		t.Fatalf("drained run left %d stale of %d queued entries", mr.stale, mr.sim.QueueLen())
	}
	mr.release()
}

// A run that needs a chunk index, an attempt, a job or a fault beyond what
// the event payload holds fails with an error instead of wrapping into
// another entry's identity. The limits are lowered so small runs reach
// them.
func TestPayloadLimitsFailTheRun(t *testing.T) {
	defer func(i, a int) { maxIndex, maxAttempt = i, a }(maxIndex, maxAttempt)
	maxIndex, maxAttempt = 5, 3

	p := homog(2)
	plan := make([]Chunk, 10)
	for i := range plan {
		plan[i] = Chunk{Worker: i % 2, Size: 1}
	}
	if _, err := Run(p, &listDispatcher{plan: plan[:6]}, Options{}); err != nil {
		t.Fatalf("6 chunks fit indices 0..5: %v", err)
	}
	if _, err := Run(p, &listDispatcher{plan: plan}, Options{}); err == nil || !strings.Contains(err.Error(), "index limit 5") {
		t.Fatalf("10 chunks over index limit 5: err = %v", err)
	}

	// Both workers stall forever: every timeout kills the chunk and
	// re-sends it, so its attempt count climbs past the limit.
	stuck := &fault.Schedule{Events: []fault.Event{
		{Time: 0, Worker: 0, Kind: fault.SlowStart, Factor: 1e12},
		{Time: 0, Worker: 1, Kind: fault.SlowStart, Factor: 1e12},
	}}
	_, err := Run(p, &listDispatcher{plan: plan[:1]}, Options{
		Faults: stuck, Recovery: fault.Recovery{Enabled: true, TimeoutFactor: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "attempt limit 3") {
		t.Fatalf("re-dispatch past attempt limit 3: err = %v", err)
	}

	jobs := make([]Job, 7)
	for j := range jobs {
		jobs[j] = Job{Total: 1, Dispatcher: &listDispatcher{plan: plan[:1]}}
	}
	if _, err := RunMulti(p, jobs, MultiOptions{}); err == nil || !strings.Contains(err.Error(), "7 jobs") {
		t.Fatalf("7 jobs over index limit 5: err = %v", err)
	}
	many := &fault.Schedule{}
	for i := 0; i < 7; i++ {
		many.Events = append(many.Events, fault.Event{Time: float64(i), Worker: 0, Kind: fault.LinkDown})
	}
	if _, err := Run(p, &listDispatcher{plan: plan[:1]}, Options{Faults: many}); err == nil || !strings.Contains(err.Error(), "7 fault events") {
		t.Fatalf("7 fault events over index limit 5: err = %v", err)
	}
}
