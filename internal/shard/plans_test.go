package shard

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
)

var miAlgorithms = []string{"MI-1", "MI-2", "MI-3", "MI-4"}

// localPlans runs job as a local sweep on a Runner of the given width and
// returns its aggregate JSON and the plans it built.
func localPlans(t *testing.T, job SweepJob, workers int) ([]byte, int64) {
	t.Helper()
	algos, err := experiment.AlgorithmsByName(job.Algorithms)
	if err != nil {
		t.Fatal(err)
	}
	met := metrics.New()
	r := &experiment.Runner{Algorithms: algos, Workers: workers, Metrics: met}
	res, err := r.Sweep(job.Grid)
	if err != nil {
		t.Fatal(err)
	}
	return resultsJSON(t, res), met.Snapshot().PlansBuilt
}

// startWorker runs one worker against server until the test ends.
func startWorker(t *testing.T, server *httptest.Server, w *Worker) {
	t.Helper()
	w.Base, w.Client, w.Backoff = server.URL, server.Client(), 5*time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // stopped by the cleanup's cancel
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// A worker computes every lease on one Runner, so configurations sharing
// (N, r) share their latency-free MI plans across leases, and a second
// sweep on the same worker builds none.
func TestWorkerReusesRunnerAcrossLeases(t *testing.T) {
	g := testGrid()
	g.Ns = []int{10}
	g.CLats = []float64{0, 0.5}
	g.Reps = 1
	job := SweepJob{Grid: g, Algorithms: miAlgorithms}
	want, wantBuilt := localPlans(t, job, 1)
	if wantBuilt == 0 {
		t.Fatal("local sweep built no plans")
	}

	coord := NewCoordinator()
	coord.Batch = 1
	server := httptest.NewServer(coord.Handler())
	defer server.Close()
	defer coord.Close()
	met := metrics.New()
	startWorker(t, server, &Worker{ID: "w0", Procs: 1, Metrics: met})

	// The total stays at the local count after the second sweep: it
	// builds nothing.
	for sweep := 1; sweep <= 2; sweep++ {
		res, err := coord.Run(context.Background(), job, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resultsJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("sweep %d differs from the local sweep", sweep)
		}
		if got := met.Snapshot().PlansBuilt; got != wantBuilt {
			t.Fatalf("after sweep %d the worker built %d plans in total, want %d", sweep, got, wantBuilt)
		}
	}
}

// Workers ship each cell's plan counts with its result, so the
// coordinator's plans_built covers the fleet: at least every plan a local
// sweep builds, at most once per worker.
func TestDistributedPlanCounts(t *testing.T) {
	job := SweepJob{Grid: testGrid(), Algorithms: miAlgorithms}
	want, local := localPlans(t, job, 4)

	coord := NewCoordinator()
	coord.Batch = 2
	server := httptest.NewServer(coord.Handler())
	defer server.Close()
	defer coord.Close()
	startWorker(t, server, &Worker{ID: "w0", Procs: 2})
	startWorker(t, server, &Worker{ID: "w1", Procs: 2})

	met := metrics.New()
	res, err := coord.Run(context.Background(), job, RunOptions{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsJSON(t, res); !bytes.Equal(got, want) {
		t.Fatal("distributed aggregate differs from the local sweep")
	}
	if got := met.Snapshot().PlansBuilt; got < local || got > 2*local {
		t.Fatalf("coordinator reports %d plans built, want between %d and %d", got, local, 2*local)
	}
}
