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
	"testing"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
)

// studyCase runs one of the four studies on a Runner, with the block
// edits that break its value rule and a legitimate edit it must accept.
type studyCase struct {
	name  string
	algos []string
	run   func(ctx context.Context, r *experiment.Runner) (any, error)
	// bad edits each break the rule; ok writes values the rule allows.
	bad []func(b [][]float64)
	ok  func(b [][]float64)
}

func studyCases() []studyCase {
	multi := experiment.MultiJobGrid{
		Config: experiment.Config{N: 4, R: 1.8, CLat: 0.3, NLat: 0.9}, Jobs: 3,
		ArrivalRates: []float64{0, 0.05}, Policies: []string{"fcfs"}, Reps: 2, Total: 60, BaseSeed: 77,
	}
	res := experiment.ResilienceGrid{
		Config: experiment.Config{N: 6, R: 1.5, CLat: 0.1, NLat: 0.1}, CrashRates: []float64{0, 0.4},
		RejoinProb: 0.5, Error: 0.1, Reps: 2, Total: 500, BaseSeed: 17,
	}
	het := experiment.HeteroGrid{
		N: 6, MeanS: 1, MeanR: 1.6, CLat: 0.3, NLat: 0.3, Spreads: []float64{0, 0.8},
		Errors: []float64{0, 0.2}, Platforms: 2, Reps: 1, Total: 300, BaseSeed: 4242,
	}
	set := func(row, col int, v float64) func(b [][]float64) {
		return func(b [][]float64) { b[row][col] = v }
	}
	// nanColumn marks algorithm col failed in every row.
	nanColumn := func(col int) func(b [][]float64) {
		return func(b [][]float64) {
			for _, row := range b {
				row[col] = math.NaN()
			}
		}
	}
	return []studyCase{
		{
			name: "sweep", algos: []string{"RUMR", "UMR", "Factoring"},
			run: func(ctx context.Context, r *experiment.Runner) (any, error) { return r.SweepContext(ctx, testGrid()) },
			bad: []func([][]float64){set(0, 0, 0), set(1, 2, -3)},
			ok:  nanColumn(1),
		},
		{
			// Rows: response, slowdown, fairness, makespan.
			name: "multijob", algos: []string{"RUMR", "Factoring", "MI-1"},
			run: func(ctx context.Context, r *experiment.Runner) (any, error) { return r.MultiJobContext(ctx, multi) },
			bad: []func([][]float64){set(0, 0, 0), set(3, 1, -2), set(1, 2, 0), set(2, 0, -0.5)},
			ok: func(b [][]float64) {
				nanColumn(2)(b)
				b[2][0] = 0 // a fairness index may be zero
			},
		},
		{
			// Rows: mean makespan, completed fraction, re-sends.
			name: "resilience", algos: []string{"RUMR", "RUMR-ft"},
			run: func(ctx context.Context, r *experiment.Runner) (any, error) { return r.ResilienceContext(ctx, res) },
			bad: []func([][]float64){set(0, 0, 0), set(2, 1, -1), set(1, 0, -0.25)},
			ok: func(b [][]float64) {
				for ai := range b[2] {
					b[2][ai] = 0 // no re-sends: the fault-free norm
				}
			},
		},
		{
			name: "hetero", algos: []string{"RUMR", "UMR", "Factoring"},
			run: func(ctx context.Context, r *experiment.Runner) (any, error) { return r.HeteroContext(ctx, het) },
			bad: []func([][]float64){set(0, 0, 0), set(0, 1, -1)},
			ok:  nanColumn(0),
		},
	}
}

// runner returns a Runner of the case's algorithms.
func (sc studyCase) runner(t *testing.T) *experiment.Runner {
	t.Helper()
	algos, err := experiment.AlgorithmsByName(sc.algos)
	if err != nil {
		t.Fatal(err)
	}
	return &experiment.Runner{Algorithms: algos, Workers: 2}
}

// show renders a study's results for byte comparison (%v prints floats
// exactly and NaN without failing).
func show(res any) string { return fmt.Sprintf("%+v", res) }

// editBlocks applies edit to the "mean" block of every line of a cache
// segment or checkpoint file.
func editBlocks(t *testing.T, path string, edit func(b [][]float64)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		block, err := experiment.DecodeCell(rec["mean"])
		if err != nil {
			t.Fatal(err)
		}
		edit(block)
		if rec["mean"], err = experiment.EncodeCell(block); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, blob...), '\n')
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyFiles copies files into a new temporary directory and returns it.
func copyFiles(t *testing.T, files ...string) string {
	t.Helper()
	dst := t.TempDir()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStudyBlockRules holds every study's blocks to its value rule, on
// both ways a block enters from outside the process: posted by a worker,
// a block that breaks the rule is answered 400 and counted nowhere;
// restored from the checkpoint or the cache, it is recomputed, and the
// study matches a cold run. Blocks within the rule — NaN for a failed
// algorithm, the multi-job study's zero fairness, the resilience study's
// zero re-sends — are accepted both ways.
func TestStudyBlockRules(t *testing.T) {
	for _, sc := range studyCases() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			cacheDir, ckpt := filepath.Join(dir, "cache"), filepath.Join(dir, "ckpt.jsonl")
			r := sc.runner(t)
			r.CachePath, r.CheckpointPath = cacheDir, ckpt
			cold, err := sc.run(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(cacheDir, "seg-*.jsonl"))
			if len(segs) != 1 {
				t.Fatalf("cold run wrote %d cache segments, want 1", len(segs))
			}

			// restored runs the study over a copy of the cache or the
			// checkpoint with edit applied to every block, and returns its
			// results and its restored and total cell counts.
			restored := func(fromCache bool, edit func([][]float64)) (res any, skipped, total int64) {
				t.Helper()
				r := sc.runner(t)
				r.Metrics = metrics.New()
				if fromCache {
					r.CachePath = copyFiles(t, segs[0])
					editBlocks(t, filepath.Join(r.CachePath, filepath.Base(segs[0])), edit)
				} else {
					r.CheckpointPath = filepath.Join(copyFiles(t, ckpt), filepath.Base(ckpt))
					editBlocks(t, r.CheckpointPath, edit)
				}
				res, err := sc.run(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				s := r.Metrics.Snapshot()
				return res, s.ConfigsSkipped, s.ConfigsTotal
			}
			for _, fromCache := range []bool{true, false} {
				for i, bad := range sc.bad {
					res, skipped, _ := restored(fromCache, bad)
					if skipped != 0 {
						t.Fatalf("cache=%v: restored %d blocks with bad edit %d", fromCache, skipped, i)
					}
					if show(res) != show(cold) {
						t.Fatalf("cache=%v: recomputed study differs from the cold run", fromCache)
					}
				}
				if _, skipped, total := restored(fromCache, sc.ok); skipped != total || total == 0 {
					t.Fatalf("cache=%v: restored %d of %d legitimate blocks", fromCache, skipped, total)
				}
			}

			// Posted blocks: lease one cell, then post edits of its true block.
			coord := NewCoordinator()
			server := httptest.NewServer(coord.Handler())
			defer server.Close()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			fleet := sc.runner(t)
			fleet.Fleet = coord
			go func() {
				defer close(done)
				sc.run(ctx, fleet) //nolint:errcheck // cancelled below
			}()
			defer func() { cancel(); <-done }()
			for deadline := time.Now().Add(5 * time.Second); !coord.Status().Active; {
				if time.Now().After(deadline) {
					t.Fatal("study never became active")
				}
				time.Sleep(time.Millisecond)
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
			err = json.NewDecoder(resp.Body).Decode(&lease)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(lease.Configs) == 0 {
				t.Fatalf("lease: status %d, err %v, %d cells", resp.StatusCode, err, len(lease.Configs))
			}
			cell, err := sc.runner(t).Cells(lease.Job.Job)
			if err != nil {
				t.Fatal(err)
			}
			ci := lease.Configs[0]
			postBlock := func(edit func([][]float64)) int {
				t.Helper()
				block, _, err := cell(context.Background(), ci)
				if err != nil {
					t.Fatal(err)
				}
				edit(block)
				mean, err := experiment.EncodeCell(block)
				if err != nil {
					t.Fatal(err)
				}
				resp := post("/v1/result", Result{Worker: "w", Lease: lease.ID,
					Fingerprint: lease.Job.Fingerprint, Config: ci, Mean: mean})
				resp.Body.Close()
				return resp.StatusCode
			}
			before := coord.Status().Done
			for i, bad := range sc.bad {
				if code := postBlock(bad); code != http.StatusBadRequest {
					t.Fatalf("bad edit %d: status %d, want 400", i, code)
				}
				if d := coord.Status().Done; d != before {
					t.Fatalf("bad edit %d counted: Done %d, was %d", i, d, before)
				}
			}
			if code := postBlock(sc.ok); code != http.StatusOK {
				t.Fatalf("legitimate block: status %d, want 200", code)
			}
			// A wave that this block completed hands over to the next one,
			// and Status reads no study in between.
			for deadline := time.Now().Add(5 * time.Second); coord.Status().Done != before+1; {
				if time.Now().After(deadline) {
					t.Fatalf("legitimate block not counted: Done %d, was %d", coord.Status().Done, before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// A multi-job study whose algorithms include MI-1 builds its plans on the
// workers, which report them: over two workers, plans_built is positive
// and at most twice a local run's, and the results match the local run.
func TestDistributedMultiJobPlanCounts(t *testing.T) {
	sc := studyCases()[1]
	met := metrics.New()
	local := sc.runner(t)
	local.Metrics = met
	want, err := sc.run(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	localBuilt := met.Snapshot().PlansBuilt
	if localBuilt == 0 {
		t.Fatal("local multi-job study built no plans")
	}

	coord := NewCoordinator()
	coord.Batch = 1
	server := httptest.NewServer(coord.Handler())
	defer server.Close()
	defer coord.Close()
	startWorker(t, server, &Worker{ID: "w0", Procs: 2})
	startWorker(t, server, &Worker{ID: "w1", Procs: 2})
	r := sc.runner(t)
	r.Fleet, r.Metrics = coord, metrics.New()
	got, err := sc.run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if show(got) != show(want) {
		t.Fatal("distributed multi-job study differs from the local run")
	}
	if built := r.Metrics.Snapshot().PlansBuilt; built == 0 || built > 2*localBuilt {
		t.Fatalf("coordinator reports %d plans built, want 1..%d", built, 2*localBuilt)
	}
}
