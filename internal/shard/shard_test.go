package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
)

// testGrid is small enough to sweep in well under a second but has enough
// configurations (8) to spread over several leases and workers.
func testGrid() experiment.Grid {
	g := experiment.SmokeGrid()
	g.Reps = 2
	return g
}

func testJob() SweepJob {
	return SweepJob{Grid: testGrid(), Algorithms: []string{"RUMR", "UMR", "Factoring"}}
}

// localJSON runs the reference single-process sweep and returns its
// aggregate JSON.
func localJSON(t *testing.T, job SweepJob) []byte {
	t.Helper()
	algos, err := experiment.AlgorithmsByName(job.Algorithms)
	if err != nil {
		t.Fatal(err)
	}
	r := &experiment.Runner{Algorithms: algos, ErrorModel: job.Model, UnknownError: job.UnknownError}
	res, err := r.Sweep(job.Grid)
	if err != nil {
		t.Fatal(err)
	}
	return resultsJSON(t, res)
}

func resultsJSON(t *testing.T, res *experiment.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cluster is a coordinator on an httptest server plus a cancellable worker
// fleet.
type cluster struct {
	coord  *Coordinator
	server *httptest.Server
	wg     sync.WaitGroup
	cancel context.CancelFunc
	errs   chan error
}

func startCluster(t *testing.T, coord *Coordinator, workers int, eachProcs int, cellDelay ...time.Duration) *cluster {
	t.Helper()
	cl := &cluster{coord: coord, server: httptest.NewServer(coord.Handler()), errs: make(chan error, workers)}
	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = cancel
	for i := 0; i < workers; i++ {
		w := &Worker{
			Base:    cl.server.URL,
			ID:      fmt.Sprintf("w%d", i),
			Procs:   eachProcs,
			Client:  cl.server.Client(),
			Backoff: 5 * time.Millisecond,
		}
		if len(cellDelay) > 0 {
			w.cellDelay = cellDelay[0]
		}
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			cl.errs <- w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		cl.coord.Close()
		cl.wg.Wait()
		cl.server.Close()
	})
	return cl
}

// shutdown closes the coordinator (workers exit on 410) and verifies every
// worker returned cleanly.
func (cl *cluster) shutdown(t *testing.T, workers int) {
	t.Helper()
	cl.coord.Close()
	cl.wg.Wait()
	for i := 0; i < workers; i++ {
		if err := <-cl.errs; err != nil && err != context.Canceled {
			t.Fatalf("worker exited with %v", err)
		}
	}
}

// The tentpole acceptance test: coordinator + {1, 2, 4} workers all
// produce aggregate results byte-identical to the single-process sweep on
// the same grid and seed.
func TestDistributedByteIdenticalAcrossTopologies(t *testing.T) {
	job := testJob()
	want := localJSON(t, job)
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord := NewCoordinator()
			coord.Batch = 2
			cl := startCluster(t, coord, workers, 2)
			res, err := coord.Run(context.Background(), job, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultsJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("distributed aggregate differs from single-process run (%d workers)", workers)
			}
			cl.shutdown(t, workers)
		})
	}
}

// A worker that takes a lease and dies mid-sweep must not lose its
// configurations: the lease expires and the coordinator re-issues them.
// The dead worker here is simulated exactly — it leases a batch over HTTP
// and never computes, posts, or heartbeats — and a real worker is also
// cancelled mid-run for good measure. The aggregate must still be
// byte-identical to the single-process sweep.
func TestWorkerKillMidSweepReissuesLease(t *testing.T) {
	job := testJob()
	want := localJSON(t, job)

	coord := NewCoordinator()
	coord.Batch = 3
	coord.LeaseTTL = 150 * time.Millisecond
	server := httptest.NewServer(coord.Handler())
	defer server.Close()

	// The doomed worker grabs a lease first, so real workers cannot finish
	// the sweep without its configurations being re-issued.
	var stolen Lease
	{
		blob, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
		// The coordinator only leases while a Run is active; start Run
		// first, then steal.
		done := make(chan struct{})
		var res *experiment.Results
		var runErr error
		go func() {
			defer close(done)
			res, runErr = coord.Run(context.Background(), job, RunOptions{})
		}()
		// Poll until the job is active and the lease granted.
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Post(server.URL+"/v1/lease", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			ok := resp.StatusCode == http.StatusOK
			if ok {
				if err := json.NewDecoder(resp.Body).Decode(&stolen); err != nil {
					t.Fatal(err)
				}
			}
			resp.Body.Close()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("never got the doomed lease")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if len(stolen.Configs) == 0 {
			t.Fatal("doomed lease is empty")
		}

		// Two real workers, one of which is killed as soon as it completes
		// its first configuration.
		killCtx, kill := context.WithCancel(context.Background())
		defer kill()
		var wg sync.WaitGroup
		var once sync.Once
		for i := 0; i < 2; i++ {
			ctx := context.Background()
			id := fmt.Sprintf("real%d", i)
			if i == 0 {
				ctx = killCtx
			}
			w := &Worker{Base: server.URL, ID: id, Procs: 1, Client: server.Client(), Backoff: 5 * time.Millisecond}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(ctx) //nolint:errcheck // killed worker returns context.Canceled
			}()
		}
		// Kill worker 0 once anything has completed.
		go func() {
			for {
				if coord.Status().Done > 0 {
					once.Do(kill)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		<-done
		if runErr != nil {
			t.Fatal(runErr)
		}
		if got := resultsJSON(t, res); !bytes.Equal(got, want) {
			t.Fatal("aggregate after worker kill differs from single-process run")
		}
		coord.Close()
		wg.Wait()

		st := coord.Status()
		var doomedExpired int64
		for _, ws := range st.Workers {
			if ws.Worker == "doomed" {
				doomedExpired = ws.ExpiredLeases
			}
		}
		if doomedExpired == 0 {
			t.Fatal("doomed worker's lease never expired/re-issued")
		}
	}
}

// Restored configurations (checkpoint or cache) are not served to workers,
// and the merged aggregate is still byte-identical.
func TestDistributedWarmCacheComputesOnlyMissing(t *testing.T) {
	job := testJob()
	want := localJSON(t, job)
	cacheDir := t.TempDir()

	// Warm the cache with a local sweep.
	algos, err := experiment.AlgorithmsByName(job.Algorithms)
	if err != nil {
		t.Fatal(err)
	}
	r := &experiment.Runner{Algorithms: algos, CachePath: cacheDir}
	if _, err := r.Sweep(job.Grid); err != nil {
		t.Fatal(err)
	}

	// Extend the grid: 4 new configurations (N=15), 8 cached ones.
	extended := job
	extended.Grid.Ns = append([]int{15}, extended.Grid.Ns...)
	met := metrics.New()
	coord := NewCoordinator()
	cl := startCluster(t, coord, 1, 2)
	if _, err := coord.Run(context.Background(), extended, RunOptions{CachePath: cacheDir, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	s := met.Snapshot()
	wantTotal := int64(len(extended.Grid.Configs()))
	if s.ConfigsTotal != wantTotal || s.ConfigsSkipped != 8 || s.ConfigsDone != wantTotal {
		t.Fatalf("extended sweep done/skipped/total = %d/%d/%d, want %d/8/%d",
			s.ConfigsDone, s.ConfigsSkipped, s.ConfigsTotal, wantTotal, wantTotal)
	}

	// The original sub-grid still reproduces the reference bytes.
	sub, err := coord.Run(context.Background(), job, RunOptions{CachePath: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsJSON(t, sub); !bytes.Equal(got, want) {
		t.Fatal("cached aggregate differs from computed one")
	}
	cl.shutdown(t, 1)
}

// A sweep whose algorithms include an unknown name must fail the worker's
// Run with a clear error, not hang the coordinator silently.
func TestWorkerRejectsUnknownAlgorithm(t *testing.T) {
	job := testJob()
	job.Algorithms = []string{"RUMR", "definitely-not-a-scheduler"}

	coord := NewCoordinator()
	server := httptest.NewServer(coord.Handler())
	defer server.Close()
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, job, RunOptions{})
		runDone <- err
	}()

	w := &Worker{Base: server.URL, ID: "w0", Client: server.Client(), Backoff: 5 * time.Millisecond}
	if err := w.Run(ctx); err == nil {
		t.Fatal("worker accepted an unknown algorithm name")
	}
	cancel()
	if err := <-runDone; err == nil {
		t.Fatal("coordinator Run finished without any worker computing")
	}
}

// Progress on the coordinator follows the Runner contract: serialized,
// strictly increasing, full-grid denominator.
func TestCoordinatorProgressContract(t *testing.T) {
	job := testJob()
	total := len(job.Grid.Configs())
	var mu sync.Mutex
	var dones []int
	coord := NewCoordinator()
	cl := startCluster(t, coord, 2, 2)
	_, err := coord.Run(context.Background(), job, RunOptions{
		Progress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			if tot != total {
				t.Errorf("total = %d, want %d", tot, total)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != total {
		t.Fatalf("progress calls = %d, want %d", len(dones), total)
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] != dones[i-1]+1 {
			t.Fatalf("done not strictly increasing by 1: %v", dones)
		}
	}
	cl.shutdown(t, 2)
}

// TestCoordinatorRejectsOversizedPosts: a body over the size cap on any
// endpoint gets 413 while a sweep is being served, and the sweep then
// finishes byte-identical to a single-process run.
func TestCoordinatorRejectsOversizedPosts(t *testing.T) {
	job := testJob()
	want := localJSON(t, job)
	coord := NewCoordinator()
	server := httptest.NewServer(coord.Handler())
	defer server.Close()

	type outcome struct {
		res *experiment.Results
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(context.Background(), job, RunOptions{})
		done <- outcome{res, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); !coord.Status().Active; {
		if time.Now().After(deadline) {
			t.Fatal("sweep never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	huge := append([]byte(`{"worker":"w","pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	huge = append(huge, `"}`...)
	for _, path := range []string{"/v1/lease", "/v1/result", "/v1/heartbeat"} {
		t.Run(path, func(t *testing.T) {
			resp, err := http.Post(server.URL+path, "application/json", bytes.NewReader(huge))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized post to %s: status %d, want 413", path, resp.StatusCode)
			}
		})
	}

	w := &Worker{Base: server.URL, ID: "w0", Procs: 1, Client: server.Client(), Backoff: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()
	out := <-done
	coord.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := resultsJSON(t, out.res); !bytes.Equal(got, want) {
		t.Fatal("aggregate after oversized posts differs from single-process run")
	}
}

// A posted block whose values cannot be mean makespans — zero or negative
// — is refused with 400 and persisted nowhere; a later valid post for the
// same configuration is accepted.
func TestCoordinatorRejectsImpossibleMakespans(t *testing.T) {
	job := testJob()
	dir := t.TempDir()
	ckpt, cacheDir := filepath.Join(dir, "ckpt.jsonl"), filepath.Join(dir, "cache")
	coord := NewCoordinator()
	server := httptest.NewServer(coord.Handler())
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background(), job, RunOptions{CheckpointPath: ckpt, CachePath: cacheDir})
		done <- err
	}()
	defer func() {
		coord.Close()
		<-done
	}()
	for deadline := time.Now().Add(5 * time.Second); !coord.Status().Active; {
		if time.Now().After(deadline) {
			t.Fatal("sweep never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	post := func(path string, body any) *http.Response {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(server.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/v1/lease", LeaseRequest{Worker: "w"})
	var lease Lease
	err := json.NewDecoder(resp.Body).Decode(&lease)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(lease.Configs) == 0 {
		t.Fatalf("lease: status %d, err %v, %d configs", resp.StatusCode, err, len(lease.Configs))
	}
	// persisted counts the lines of the checkpoint and of every cache
	// segment.
	persisted := func() int {
		n := 0
		files, _ := filepath.Glob(filepath.Join(cacheDir, "seg-*.jsonl"))
		for _, f := range append(files, ckpt) {
			if b, err := os.ReadFile(f); err == nil {
				n += bytes.Count(b, []byte("\n"))
			}
		}
		return n
	}
	before := persisted()
	postBlock := func(bad float64) int {
		t.Helper()
		block := make([][]float64, len(job.Grid.Errors))
		for i := range block {
			block[i] = []float64{10, math.NaN(), 12}
		}
		block[len(block)-1][2] = bad
		mean, err := experiment.EncodeCell(block)
		if err != nil {
			t.Fatal(err)
		}
		resp := post("/v1/result", Result{Worker: "w", Lease: lease.ID,
			Fingerprint: lease.Job.Fingerprint, Config: lease.Configs[0], Mean: mean})
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []float64{0, -3} {
		if code := postBlock(bad); code != http.StatusBadRequest {
			t.Fatalf("block with makespan %g: status %d, want 400", bad, code)
		}
		if d := coord.Status().Done; d != 0 {
			t.Fatalf("block with makespan %g counted: Done = %d", bad, d)
		}
		if n := persisted(); n != before {
			t.Fatalf("block with makespan %g persisted: %d lines, %d before", bad, n, before)
		}
	}
	if code := postBlock(11); code != http.StatusOK {
		t.Fatalf("valid block: status %d, want 200", code)
	}
	if d := coord.Status().Done; d != 1 {
		t.Fatalf("valid block not counted: Done = %d", d)
	}
	if n := persisted(); n <= before {
		t.Fatalf("valid block not persisted: %d lines, %d before", n, before)
	}
}
