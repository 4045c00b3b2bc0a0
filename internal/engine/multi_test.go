package engine

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rumr/internal/des"
	"rumr/internal/obs"
	"rumr/internal/platform"
	"rumr/internal/rng"
	"rumr/internal/trace"
)

func multiTestPlatform() *platform.Platform {
	return &platform.Platform{Workers: []platform.Worker{
		{S: 2, B: 4, CLat: 0.3, NLat: 0.1, TLat: 0.25},
		{S: 3, B: 5, CLat: 0.2, NLat: 0.15, TLat: 0.1},
		{S: 1.5, B: 3, CLat: 0.1, NLat: 0.2, TLat: 0.3},
	}}
}

// Three jobs with open arrivals under every built-in policy: all work is
// conserved per job, the trace passes the multi-job validator, and per-job
// results are internally consistent.
func TestRunMultiAllPoliciesConserveWork(t *testing.T) {
	for _, pol := range LinkPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			p := multiTestPlatform()
			jobs := []Job{
				{Name: "a", Total: 20, Arrival: 0, Priority: 2, Weight: 1,
					Dispatcher: &demandDispatcher{remaining: 20, size: 2}},
				{Name: "b", Total: 12, Arrival: 1.5, Priority: 1, Weight: 2,
					Dispatcher: &demandDispatcher{remaining: 12, size: 1.5}},
				{Name: "c", Total: 8, Arrival: 3, Priority: 3, Weight: 4,
					Dispatcher: &demandDispatcher{remaining: 8, size: 1}},
			}
			res, err := RunMulti(p, jobs, MultiOptions{RecordTrace: true, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			specs := []trace.MultiJobSpec{
				{Arrival: 0, Total: 20}, {Arrival: 1.5, Total: 12}, {Arrival: 3, Total: 8},
			}
			if err := res.Trace.ValidateMultiJob(p, specs); err != nil {
				t.Fatalf("trace invalid under %s: %v", pol.Name(), err)
			}
			for j, jr := range res.Jobs {
				if math.Abs(jr.CompletedWork-jobs[j].Total) > 1e-9 {
					t.Fatalf("job %d completed %g of %g", j, jr.CompletedWork, jobs[j].Total)
				}
				if jr.Start < jr.Arrival {
					t.Fatalf("job %d started at %g before arrival %g", j, jr.Start, jr.Arrival)
				}
				if jr.Finish < jr.Start || jr.Response != jr.Finish-jr.Arrival {
					t.Fatalf("job %d times inconsistent: %+v", j, jr)
				}
			}
			if res.Makespan != maxFinish(res.Jobs) {
				t.Fatalf("makespan %g != max finish %g", res.Makespan, maxFinish(res.Jobs))
			}
		})
	}
}

func maxFinish(jobs []JobResult) float64 {
	m := 0.0
	for _, j := range jobs {
		if j.Finish > m {
			m = j.Finish
		}
	}
	return m
}

// Under FCFS, a job that arrived earlier fully drains its dispatcher's
// appetite before a later-arrived job gets the port: with identical
// demand dispatchers the first job must finish dispatching no later than
// the second starts... not in general (worker contention), but the first
// chunk sent must belong to the earliest-arrived job, and before job b
// arrives no record of b may exist.
func TestRunMultiFCFSArrivalOrder(t *testing.T) {
	p := multiTestPlatform()
	res, err := RunMulti(p, []Job{
		{Name: "early", Total: 10, Arrival: 0, Dispatcher: &demandDispatcher{remaining: 10, size: 2}},
		{Name: "late", Total: 10, Arrival: 2, Dispatcher: &demandDispatcher{remaining: 10, size: 2}},
	}, MultiOptions{RecordTrace: true, Policy: FCFS()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Records[0].Job != 0 {
		t.Fatalf("first record belongs to job %d, want 0", res.Trace.Records[0].Job)
	}
	for i, r := range res.Trace.Records {
		if r.Job == 1 && r.SendStart < 2 {
			t.Fatalf("record %d of the late job sent at %g before its arrival", i, r.SendStart)
		}
	}
}

// Strict priority lets an urgent late arrival overtake a background job at
// the port from the moment it arrives.
func TestRunMultiStrictPriorityOvertakes(t *testing.T) {
	p := multiTestPlatform()
	res, err := RunMulti(p, []Job{
		{Name: "bg", Total: 40, Arrival: 0, Priority: 10, Dispatcher: &demandDispatcher{remaining: 40, size: 1}},
		{Name: "urgent", Total: 4, Arrival: 5, Priority: 0, Dispatcher: &demandDispatcher{remaining: 4, size: 1}},
	}, MultiOptions{RecordTrace: true, Policy: StrictPriority()})
	if err != nil {
		t.Fatal(err)
	}
	// After t=5, whenever the urgent job had work left and a worker was
	// idle it must have been offered the port first. Weaker but robust
	// check: the urgent job's last send starts well before the background
	// job's last send.
	lastBG, lastUrgent := 0.0, 0.0
	for _, r := range res.Trace.Records {
		if r.Job == 0 && r.SendStart > lastBG {
			lastBG = r.SendStart
		}
		if r.Job == 1 && r.SendStart > lastUrgent {
			lastUrgent = r.SendStart
		}
	}
	if lastUrgent >= lastBG {
		t.Fatalf("urgent job still sending at %g, background last send %g", lastUrgent, lastBG)
	}
}

// Weighted sharing splits the port between two saturating jobs roughly in
// proportion to their weights over a window where both are active.
func TestRunMultiWeightedShareProportions(t *testing.T) {
	p := multiTestPlatform()
	res, err := RunMulti(p, []Job{
		{Name: "w1", Total: 30, Weight: 1, Dispatcher: &demandDispatcher{remaining: 30, size: 1}},
		{Name: "w3", Total: 30, Weight: 3, Dispatcher: &demandDispatcher{remaining: 30, size: 1}},
	}, MultiOptions{RecordTrace: true, Policy: WeightedShare()})
	if err != nil {
		t.Fatal(err)
	}
	// While both jobs still have work (before either finishes dispatching),
	// granted volume should track the 1:3 weights.
	horizon := math.Min(lastSend(res.Trace, 0), lastSend(res.Trace, 1))
	var g0, g1 float64
	for _, r := range res.Trace.Records {
		if r.SendStart >= horizon {
			continue
		}
		if r.Job == 0 {
			g0 += r.Size
		} else {
			g1 += r.Size
		}
	}
	if g0 == 0 || g1 == 0 {
		t.Fatalf("degenerate grant split g0=%g g1=%g", g0, g1)
	}
	ratio := g1 / g0
	if ratio < 2 || ratio > 4 {
		t.Fatalf("weighted 1:3 split gave grant ratio %g (g0=%g g1=%g)", ratio, g0, g1)
	}
}

func lastSend(tr *trace.Trace, job int) float64 {
	last := 0.0
	for _, r := range tr.Records {
		if r.Job == job && r.SendStart > last {
			last = r.SendStart
		}
	}
	return last
}

// The same multi-job run twice must be bit-identical: trace JSON and the
// tagged event stream.
func TestRunMultiDeterministic(t *testing.T) {
	run := func() (string, string) {
		p := multiTestPlatform()
		var events strings.Builder
		sink := obs.JobFunc(func(job int, e obs.Event) {
			events.WriteString(strings.Repeat(" ", job))
			events.WriteString(e.Kind.String())
		})
		res, err := RunMulti(p, []Job{
			{Name: "a", Total: 15, Arrival: 0, Weight: 1, Dispatcher: &demandDispatcher{remaining: 15, size: 2}},
			{Name: "b", Total: 10, Arrival: 0.5, Weight: 2, Dispatcher: &demandDispatcher{remaining: 10, size: 1.5}},
			{Name: "c", Total: 5, Arrival: 1, Weight: 3, Dispatcher: &demandDispatcher{remaining: 5, size: 1}},
		}, MultiOptions{RecordTrace: true, Policy: WeightedShare(), Events: sink})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), events.String()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 {
		t.Fatal("trace JSON differs between identical runs")
	}
	if e1 != e2 {
		t.Fatal("event stream differs between identical runs")
	}
}

// Job events arrive tagged with the right job: every chunk seq that shows
// up in job j's stream must belong to a trace record of job j.
func TestRunMultiEventTagging(t *testing.T) {
	p := multiTestPlatform()
	type tagged struct {
		job int
		e   obs.Event
	}
	var got []tagged
	res, err := RunMulti(p, []Job{
		{Name: "a", Total: 6, Dispatcher: &demandDispatcher{remaining: 6, size: 2}},
		{Name: "b", Total: 4, Arrival: 0.25, Dispatcher: &demandDispatcher{remaining: 4, size: 2}},
	}, MultiOptions{RecordTrace: true,
		Events: obs.JobFunc(func(job int, e obs.Event) { got = append(got, tagged{job, e}) })})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int]int{}
	for _, r := range res.Trace.Records {
		owner[r.ChunkID] = r.Job
	}
	sendStarts := 0
	for _, tg := range got {
		switch tg.e.Kind {
		case obs.KindSendStart, obs.KindSendEnd, obs.KindArrive, obs.KindCompStart, obs.KindCompEnd:
			if owner[tg.e.Seq] != tg.job {
				t.Fatalf("event %+v tagged job %d but chunk %d belongs to job %d",
					tg.e, tg.job, tg.e.Seq, owner[tg.e.Seq])
			}
			if tg.e.Kind == obs.KindSendStart {
				sendStarts++
			}
		case obs.KindRunDone:
			// one per job, checked below
		}
	}
	if sendStarts != res.Chunks {
		t.Fatalf("%d send-start events for %d chunks", sendStarts, res.Chunks)
	}
	dones := 0
	for _, tg := range got {
		if tg.e.Kind == obs.KindRunDone {
			dones++
		}
	}
	if dones != 2 {
		t.Fatalf("%d run-done events, want one per job", dones)
	}
}

func TestRunMultiInputValidation(t *testing.T) {
	p := multiTestPlatform()
	d := func() Dispatcher { return &demandDispatcher{remaining: 1, size: 1} }
	// A platform one worker past what the attempt-stamped event payload
	// can address. The zero-valued slice is never walked: the size check
	// runs before per-worker validation, so its pages stay untouched.
	huge := &platform.Platform{Workers: make([]platform.Worker, 1<<workerBits)}
	cases := []struct {
		name string
		p    *platform.Platform
		jobs []Job
		want string
	}{
		{"no jobs", p, nil, "at least one job"},
		{"nil dispatcher", p, []Job{{Total: 1}}, "no dispatcher"},
		{"bad total", p, []Job{{Total: 0, Dispatcher: d()}}, "invalid workload"},
		{"negative arrival", p, []Job{{Total: 1, Arrival: -1, Dispatcher: d()}}, "invalid arrival"},
		{"nan arrival", p, []Job{{Total: 1, Arrival: math.NaN(), Dispatcher: d()}}, "invalid arrival"},
		{"negative weight", p, []Job{{Total: 1, Weight: -2, Dispatcher: d()}}, "invalid weight"},
		{"too many workers", huge, []Job{{Total: 1, Dispatcher: d()}}, "exceed the supported maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMulti(tc.p, tc.jobs, MultiOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRunMultiRejectsBadDispatch(t *testing.T) {
	p := multiTestPlatform()
	_, err := RunMulti(p, []Job{{Total: 1,
		Dispatcher: &listDispatcher{plan: []Chunk{{Worker: 99, Size: 1}}}}}, MultiOptions{})
	if err == nil || !strings.Contains(err.Error(), "worker 99") {
		t.Fatalf("err = %v", err)
	}
	_, err = RunMulti(p, []Job{{Total: 1,
		Dispatcher: &listDispatcher{plan: []Chunk{{Worker: 0, Size: -1}}}}}, MultiOptions{})
	if err == nil || !strings.Contains(err.Error(), "invalid chunk size") {
		t.Fatalf("err = %v", err)
	}
}

// dueNow — onSendEnd's "is another event due at this instant" — must agree
// with a brute-force scan over every armed DES entry and send end queued
// so far, at every step of a random run: entries land at now+{0,1,2}, so
// ties with the clock are frequent, several send ends are pending at once
// (a port wider than one slot), and disarmed timers leave stale entries at
// the heap root for peek to drop (and, once they pile up, for disarm to
// compact away).
func TestDueNowMatchesScan(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		mr := &multiRun{sim: des.New()}
		mr.workers = make([]mjWorker, 1)
		type rec struct {
			pc   *mjChunk
			time float64
		}
		var queued []rec
		for step := 0; step < 200; step++ {
			now := mr.sim.Now()
			for k := src.Intn(3); k > 0; k-- {
				tt := now + float64(src.Intn(3))
				pc := mr.allocMC()
				pc.seq, pc.attempt, pc.timer = mr.mcUsed-1, 0, true
				mr.sim.At(tt, pack(evTimeout, pc.seq, 0, 0))
				queued = append(queued, rec{pc: pc, time: tt})
			}
			for k := src.Intn(2); k > 0 && len(mr.port) < 3; k-- {
				tt := now + float64(src.Intn(3))
				mr.port = append(mr.port, portEnd{time: tt, seq: mr.sim.Reserve(tt)})
			}
			if len(queued) > 0 && src.Float64() < 0.4 {
				if pc := queued[src.Intn(len(queued))].pc; pc.timer {
					pc.timer = false
					mr.disarm()
				}
			}
			want := false
			for _, r := range queued {
				want = want || (r.pc.timer && r.time <= now)
			}
			for _, e := range mr.port {
				want = want || e.time <= now
			}
			if mr.dueNow() != want {
				return false
			}
			// Fire the earliest event by (time, seq), as run does.
			tt, seq, data, ok := mr.peek()
			next := -1
			for i, e := range mr.port {
				if !ok || e.time < tt || (e.time == tt && e.seq < seq) {
					next, tt, seq, ok = i, e.time, e.seq, true
				}
			}
			switch {
			case next >= 0:
				mr.port = append(mr.port[:next], mr.port[next+1:]...)
				mr.sim.Advance(tt)
			case ok:
				mr.sim.Step()
				_, index, _, _ := unpack(data)
				mr.mcs[index].timer = false
				mr.sim.Settle()
			}
		}
		return mr.stale >= 0 && mr.stale <= mr.sim.QueueLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
