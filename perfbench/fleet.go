package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/sched"
	"rumr/internal/shard"
)

// fleetWorkers is the fleet's worker count: the machine has two cores,
// and each worker computes one configuration at a time (Procs=1).
const fleetWorkers = 2

// fleetExtraN is the axis value the warm re-sweep adds to the grid's Ns:
// one new platform size, 48 new cells next to the 240 cached ones.
const fleetExtraN = 60

// fleet is a distributed sweep on one machine: a shard coordinator on a
// loopback HTTP server with in-process workers, a result cache and a
// checkpoint in a scratch directory. Its grid has many cheap cells
// (ReducedGrid at one repetition, three algorithms), so leasing, result
// posts, cache and checkpoint writes, and per-cell planning are a large
// share of each cell. A pass sweeps the grid cold (every cell computed
// and written), then re-sweeps the grid extended by one platform size
// warm (cached cells read back, new cells computed).
type fleet struct {
	c      config
	g, ext experiment.Grid
	algos  []sched.Scheduler
	dir    string

	coord   *shard.Coordinator
	srv     *http.Server
	srvDone chan error
	tr      *http.Transport
	stop    context.CancelFunc
	wg      sync.WaitGroup
	workMet *metrics.Collector // the workers' run counters

	mu        sync.Mutex
	st        shardStats
	busySince [fleetWorkers]time.Time // when each worker's current lease was granted
	contacted [fleetWorkers]bool      // the worker's first lease poll was answered
	contact   chan struct{}           // one send per worker, on its first answer
	workerErr error
	rec       atomic.Pointer[recorder]

	last     *experiment.Results // the last warm pass's results
	lastJSON [2][]byte           // the last pass's cold and warm results
}

// shardStats is what the transport and handler wrappers measure over a
// pass.
type shardStats struct {
	leases, emptyLeases    int64
	leaseRTT               time.Duration
	results                int64
	resultRTT              time.Duration
	posts, failedPosts     int64
	handlerLease           callTimes
	handlerResult          callTimes
	bytes                  int64
	cells                  int64 // cells computed by workers
	busy, lanesWall        time.Duration
	cacheHits, cacheLookup int64 // the warm re-sweep's restores
}

func (s *shardStats) add(o *shardStats) {
	s.leases += o.leases
	s.emptyLeases += o.emptyLeases
	s.leaseRTT += o.leaseRTT
	s.results += o.results
	s.resultRTT += o.resultRTT
	s.posts += o.posts
	s.failedPosts += o.failedPosts
	s.handlerLease.add(o.handlerLease)
	s.handlerResult.add(o.handlerResult)
	s.bytes += o.bytes
	s.cells += o.cells
	s.busy += o.busy
	s.lanesWall += o.lanesWall
	s.cacheHits += o.cacheHits
	s.cacheLookup += o.cacheLookup
}

// metrics reports the shard layer; every figure is 0 on a workload that
// bypasses it.
func (s *shardStats) metrics() map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return map[string]metric{
		"shard.lease_rtt_ms":      {ratio(ms(s.leaseRTT), float64(s.leases)), "ms"},
		"shard.result_rtt_ms":     {ratio(ms(s.resultRTT), float64(s.results)), "ms"},
		"shard.handler_us.lease":  {ratio(float64(s.handlerLease.Nanos)/1e3, float64(s.handlerLease.Calls)), "us"},
		"shard.handler_us.result": {ratio(float64(s.handlerResult.Nanos)/1e3, float64(s.handlerResult.Calls)), "us"},
		"shard.empty_lease_frac":  {ratio(float64(s.emptyLeases), float64(s.leases)), "ratio"},
		"shard.bytes_per_cell":    {ratio(float64(s.bytes), float64(s.cells)), "B"},
		"shard.worker_busy_frac":  {ratio(s.busy.Seconds(), s.lanesWall.Seconds()), "ratio"},
	}
}

func fleetGrid(seed uint64) (cold, ext experiment.Grid) {
	cold = experiment.ReducedGrid()
	cold.Reps = 1
	cold.BaseSeed = seed
	ext = cold
	ext.Ns = append(append([]int(nil), cold.Ns...), fleetExtraN)
	return cold, ext
}

func fleetAlgorithms() []sched.Scheduler {
	std := experiment.StandardAlgorithms()
	return []sched.Scheduler{std[0], std[1], std[len(std)-1]} // RUMR, UMR, Factoring
}

// setupFleet starts the coordinator's server and the workers, and
// returns once every worker has polled the coordinator.
func setupFleet(ctx context.Context, c config) (instance, error) {
	f := &fleet{c: c, algos: fleetAlgorithms(), workMet: metrics.New(),
		srvDone: make(chan error, 1), contact: make(chan struct{}, fleetWorkers)}
	f.g, f.ext = fleetGrid(c.seed)
	dir, err := os.MkdirTemp(c.dir, "fleet-")
	if err != nil {
		return nil, err
	}
	f.dir = dir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.coord = shard.NewCoordinator()
	f.srv = &http.Server{Handler: f.timeHandler(f.coord.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { f.srvDone <- f.srv.Serve(ln) }()
	f.tr = &http.Transport{MaxIdleConnsPerHost: 2 * fleetWorkers}
	wctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	base := "http://" + ln.Addr().String()
	for i := 0; i < fleetWorkers; i++ {
		w := &shard.Worker{
			Base: base, ID: fmt.Sprintf("w%d", i), Procs: 1,
			Client:  &http.Client{Transport: &clientTimer{f: f, worker: i}, Timeout: 30 * time.Second},
			Metrics: f.workMet,
			// Short backoffs: an idle worker must pick up the next sweep
			// at once, or its poll interval would show in every pass.
			Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				f.mu.Lock()
				f.workerErr = errors.Join(f.workerErr, fmt.Errorf("worker %s: %w", w.ID, err))
				f.mu.Unlock()
			}
		}()
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i := 0; i < fleetWorkers; i++ {
		select {
		case <-f.contact:
		case <-timeout.C:
			return nil, errors.Join(errors.New("fleet: workers did not reach the coordinator"), f.close())
		case <-ctx.Done():
			return nil, errors.Join(ctx.Err(), f.close())
		}
	}
	return f, nil
}

func (f *fleet) close() error {
	f.coord.Close() // workers see 410 Gone and return
	f.wg.Wait()
	f.stop()
	// With every worker gone nothing is in flight, so the server closes
	// at once; a graceful Shutdown would wait seconds for connections
	// the workers opened but never used.
	f.tr.CloseIdleConnections()
	err := f.srv.Close()
	if serr := <-f.srvDone; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.mu.Lock()
	err = errors.Join(err, f.workerErr)
	f.mu.Unlock()
	return errors.Join(err, os.RemoveAll(f.dir))
}

// clientTimer is a worker's HTTP transport: it counts and times every
// request, tracks when the worker holds a lease, and counts the bytes
// both ways.
type clientTimer struct {
	f      *fleet
	worker int
}

func (t *clientTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.f
	start := time.Now()
	path := req.URL.Path
	if path == "/v1/lease" {
		// A worker asks for a lease only when it has finished the last.
		f.mu.Lock()
		if s := f.busySince[t.worker]; !s.IsZero() {
			f.st.busy += start.Sub(s)
			f.busySince[t.worker] = time.Time{}
		}
		f.mu.Unlock()
	}
	resp, err := f.tr.RoundTrip(req)
	end := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.posts++
	if req.ContentLength > 0 {
		f.st.bytes += req.ContentLength
	}
	failed := err != nil
	switch {
	case path == "/v1/lease":
		f.st.leases++
		f.st.leaseRTT += end.Sub(start)
		if err == nil && !f.contacted[t.worker] {
			f.contacted[t.worker] = true
			f.contact <- struct{}{} // buffered for every worker: never blocks
		}
		if err == nil && resp.StatusCode == http.StatusOK {
			f.busySince[t.worker] = end
		} else if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
			f.st.emptyLeases++
		} else if err == nil && resp.StatusCode != http.StatusGone {
			failed = true
		}
	case path == "/v1/result":
		f.st.results++
		f.st.resultRTT += end.Sub(start)
		failed = failed || resp.StatusCode != http.StatusOK
	default:
		failed = failed || resp.StatusCode != http.StatusOK
	}
	if failed {
		f.st.failedPosts++
	}
	if err != nil {
		return nil, err
	}
	f.rec.Load().add("client "+path, 0, -1, start, end)
	resp.Body = &countingBody{ReadCloser: resp.Body, f: f}
	return resp, nil
}

// countingBody adds the response bytes read to the pass's byte count.
type countingBody struct {
	io.ReadCloser
	f *fleet
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.f.mu.Lock()
	b.f.st.bytes += int64(n)
	b.f.mu.Unlock()
	return n, err
}

// timeHandler times the coordinator's handlers by path.
func (f *fleet) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		ct := callTimes{Calls: 1, Nanos: end.Sub(start).Nanoseconds()}
		f.mu.Lock()
		switch r.URL.Path {
		case "/v1/lease":
			f.st.handlerLease.add(ct)
		case "/v1/result":
			f.st.handlerResult.add(ct)
		}
		f.mu.Unlock()
		f.rec.Load().add("handler "+r.URL.Path, 0, -1, start, end)
	})
}

func (f *fleet) pass(ctx context.Context, rec *recorder) (*passStats, error) {
	dir, err := os.MkdirTemp(f.dir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f.mu.Lock()
	f.st = shardStats{}
	// Between sweeps no worker holds a lease.
	f.busySince = [fleetWorkers]time.Time{}
	if err := f.workerErr; err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Unlock()
	f.rec.Store(rec)
	defer f.rec.Store(nil)
	root := rec.open("fleet pass", 0, -1)
	defer rec.close(root)

	ps := &passStats{lanes: fleetWorkers}
	before := f.workMet.Snapshot()
	cache := filepath.Join(dir, "cache")
	cold, coldMet, err := f.sweep(ctx, rec, root, "cold", f.g, cache, filepath.Join(dir, "cold.jsonl"), ps)
	if err != nil {
		return nil, err
	}
	warm, warmMet, err := f.sweep(ctx, rec, root, "warm", f.ext, cache, filepath.Join(dir, "warm.jsonl"), ps)
	if err != nil {
		return nil, err
	}
	after := f.workMet.Snapshot()
	ps.runs = after.Simulations - before.Simulations
	ps.events = after.Events - before.Events
	ps.engine.Merge(coldMet.Engine)
	ps.engine.Merge(warmMet.Engine)
	computed := (coldMet.ConfigsDone - coldMet.ConfigsSkipped) + (warmMet.ConfigsDone - warmMet.ConfigsSkipped)
	ps.plans = computed * int64(len(f.g.Errors)*len(f.algos))

	f.mu.Lock()
	end := time.Now()
	for _, s := range f.busySince {
		if !s.IsZero() {
			f.st.busy += end.Sub(s)
		}
	}
	st := f.st
	f.mu.Unlock()
	st.cells = computed
	st.lanesWall = time.Duration(fleetWorkers) * (ps.wall + ps.warm)
	st.cacheHits, st.cacheLookup = warmMet.ConfigsSkipped, warmMet.ConfigsTotal
	ps.busy = st.busy
	ps.attempted += int(computed) + int(st.posts) + fleetWorkers
	ps.failed += int(st.failedPosts)
	if rec != nil {
		ps.shard = &st
	}

	// Correctness, outside the timed sweeps: the warm pass restored
	// exactly the cold pass's blocks.
	coldJSON, warmJSON := resultsJSON(cold), resultsJSON(warm)
	for ci := range cold.Configs {
		if cold.Configs[ci] != warm.Configs[ci] || !sameBlock(cold.Mean[ci], warm.Mean[ci]) {
			return nil, fmt.Errorf("fleet: warm re-sweep changed cell %s", cold.Configs[ci])
		}
	}
	if warmMet.ConfigsSkipped != int64(len(cold.Configs)) {
		return nil, fmt.Errorf("fleet: warm re-sweep restored %d cells, want %d", warmMet.ConfigsSkipped, len(cold.Configs))
	}
	if st.failedPosts > 0 {
		return nil, fmt.Errorf("fleet: %d of %d requests failed", st.failedPosts, st.posts)
	}
	h := sha256.New()
	h.Write(coldJSON)
	h.Write(warmJSON)
	ps.digest = hex.EncodeToString(h.Sum(nil))
	f.last, f.lastJSON = warm, [2][]byte{coldJSON, warmJSON}
	return ps, nil
}

// verify checks that the last pass's sweeps equal local sweeps of the
// same grids byte for byte.
func (f *fleet) verify(ctx context.Context) error {
	for i, g := range []experiment.Grid{f.g, f.ext} {
		ref, err := f.localSweep(ctx, g)
		if err != nil {
			return err
		}
		if !bytes.Equal(f.lastJSON[i], ref) {
			return fmt.Errorf("fleet: results differ from a local sweep of the same grid")
		}
	}
	return nil
}

// sweep runs one coordinator sweep to its rendered win table.
func (f *fleet) sweep(ctx context.Context, rec *recorder, root uint64, phase string, g experiment.Grid, cache, ckpt string, ps *passStats) (*experiment.Results, metrics.Snapshot, error) {
	met := metrics.New()
	sp := rec.open("sweep "+phase, root, -1)
	start := time.Now()
	last := start
	res, err := f.coord.Run(ctx, shard.SweepJob{Grid: g, Algorithms: names(f.algos), Model: experiment.NormalError},
		shard.RunOptions{CheckpointPath: ckpt, CachePath: cache, Metrics: met,
			Progress: func(done, total int) {
				now := time.Now()
				if phase == "cold" {
					ps.cellMs = append(ps.cellMs, float64(now.Sub(last).Nanoseconds())/1e6)
				}
				rec.add("cell", sp, done-1, last, now)
				last = now
			}})
	if err != nil {
		return nil, metrics.Snapshot{}, fmt.Errorf("fleet %s sweep: %w", phase, err)
	}
	aggStart := time.Now()
	var out bytes.Buffer
	if err := experiment.RenderWinTable(experiment.ComputeWinTable(res, 0, experiment.PaperBuckets()), "Table 2 (fleet)").Write(&out); err != nil {
		return nil, metrics.Snapshot{}, err
	}
	end := time.Now()
	ps.aggregate += end.Sub(aggStart)
	rec.add("aggregate", sp, -1, aggStart, end)
	rec.close(sp)
	if phase == "cold" {
		ps.wall = end.Sub(start)
	} else {
		ps.warm = end.Sub(start)
	}
	ps.cells += len(res.Configs)
	return res, met.Snapshot(), nil
}

func (f *fleet) localSweep(ctx context.Context, g experiment.Grid) ([]byte, error) {
	res, err := (&experiment.Runner{Algorithms: f.algos, Workers: 1}).SweepContext(ctx, g)
	if err != nil {
		return nil, err
	}
	return resultsJSON(res), nil
}

func resultsJSON(res *experiment.Results) []byte {
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		return []byte(err.Error())
	}
	return b.Bytes()
}

// layers replays a stride sample of the warm pass's (configuration,
// error, algorithm) triples, times the plans of a sample of its
// configurations as a worker's cell builds them, and replays its blocks
// through the cache and checkpoint.
func (f *fleet) layers(ctx context.Context, rec *recorder, ls *layerStats) error {
	res := f.last
	g := f.ext
	nE, nA := len(g.Errors), len(f.algos)
	n := len(res.Configs) * nE * nA
	k := stride(n, sampleRuns)
	sp := rec.open("replay engine.Run", 0, -1)
	for i := 0; i < n; i += k {
		if err := ctx.Err(); err != nil {
			return err
		}
		ci, ei, ai := i/(nE*nA), i/nA%nE, i%nA
		if err := replayCell(ls, rec, sp, g, res.Configs[ci], ci, ei, f.algos[ai], res.Mean[ci][ei][ai]); err != nil {
			return err
		}
	}
	rec.close(sp)
	if ls == nil {
		return nil
	}
	var sample []experiment.Config
	for ci := 0; ci < len(res.Configs); ci += 3 {
		sample = append(sample, res.Configs[ci])
	}
	start := time.Now()
	if err := replayPlans(ls, g, sample, f.algos); err != nil {
		return err
	}
	rec.add("replay plans", 0, -1, start, time.Now())
	sp = rec.open("replay cache+checkpoint", 0, -1)
	defer rec.close(sp)
	return replayStore(ctx, ls, f.c.dir, res.Configs[0], res.Mean)
}
