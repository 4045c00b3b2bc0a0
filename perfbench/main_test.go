package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkOnce runs one pass of a workload — cold and warm, with its
// invariants and determinism — its check against a reference, and the
// replay that re-simulates a sample of its runs, returning the first
// check that failed.
func checkOnce(t *testing.T, name string, seed uint64) error {
	t.Helper()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	ctx := context.Background()
	inst, err := wl.setup(ctx, config{seed: seed, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: set-up: %v", name, seed, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Errorf("%s seed %d: close: %v", name, seed, err)
		}
	}()
	p, err := inst.pass(ctx, nil)
	if err != nil {
		return err
	}
	if p.failed != 0 || p.attempted == 0 || p.runs == 0 {
		t.Errorf("%s seed %d: %d of %d failed, %d runs", name, seed, p.failed, p.attempted, p.runs)
	}
	if err := inst.verify(ctx); err != nil {
		return err
	}
	return inst.layers(ctx, nil, nil)
}

// TestChecksHoldAtAnotherSeed runs every benchmarked workload's checks at
// a seed other than the reference seed, so no check depends on the seed
// the reference digest was recorded at. table2 also runs at the
// reference seed, where its digest must match.
func TestChecksHoldAtAnotherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, r := range []struct {
		wl   string
		seed uint64
	}{{"table2", defaultSeed}, {"table2", 4242}, {"multijob", 4242}, {"fleet", 4242}} {
		if err := checkOnce(t, r.wl, r.seed); err != nil {
			t.Errorf("%s seed %d: %v", r.wl, r.seed, err)
		}
	}
}

// TestResilienceCrashRateZeroCheck pins why resilience is not among
// BENCHMARK.json's workloads: at crash rate 0 the study's runs keep
// re-dispatch timeouts armed, and at some seeds a timeout fires in a
// fault-free run, so degradation at crash rate 0 is not exactly 1 as the
// study documents. The benchmark's check reports it. Once the program is
// fixed, seed 12 passes, this test fails, and the workload goes back in.
func TestResilienceCrashRateZeroCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the resilience study")
	}
	if err := checkOnce(t, "resilience", 4242); err != nil {
		t.Errorf("seed 4242: %v", err)
	}
	err := checkOnce(t, "resilience", 12)
	if err == nil || !strings.Contains(err.Error(), "at crash rate 0, want 1") {
		t.Errorf("seed 12: got %v, want the crash-rate-0 degradation check to fail", err)
	}
}

// TestResultLine runs the command end to end and checks its last line
// is one JSON object with exactly the keys correct, attempted, failed
// and metrics, and that it holds every metric BENCHMARK.json lists for
// its mode.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name string }{"0": manifest.EndToEnd, "1": manifest.PerLayer} {
		var out bytes.Buffer
		code := run([]string{"-workdir", t.TempDir(), "--workload", "multijob", "--seed", "9", "--seconds", "1", "--trace", trace}, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if code != 0 || len(res) != 4 {
			t.Fatalf("trace %s: exit %d, keys %v", trace, code, res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(want) {
			t.Errorf("trace %s: correct %v, %d attempted, %d failed, %d metrics (want %d)",
				trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("trace %s: metric %s missing", trace, m.Name)
			}
		}
	}
}
