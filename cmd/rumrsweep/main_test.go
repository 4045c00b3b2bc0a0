package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"rumr/internal/metrics"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can drive the command end to end in a child process.
const runMainEnv = "RUMRSWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command returns the command running main with args.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// rumrsweep runs the command with args and returns its stdout and final
// metrics snapshot.
func rumrsweep(t *testing.T, args ...string) ([]byte, metrics.Snapshot) {
	t.Helper()
	metOut := filepath.Join(t.TempDir(), "metrics.json")
	cmd := command(append(args, "-metrics", metOut)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rumrsweep %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out, readMetrics(t, metOut)
}

// readMetrics reads a -metrics dump.
func readMetrics(t *testing.T, path string) metrics.Snapshot {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCheckpointResumeRestoresEveryStudy runs the paper sweep, the
// multi-job study, the resilience study and the heterogeneity study twice
// against one checkpoint directory: the second run must restore every
// cell of every study instead of computing it, and print byte-identical
// output. The hetero study writes its CSV under -out like the others.
func TestCheckpointResumeRestoresEveryStudy(t *testing.T) {
	outDir := t.TempDir()
	args := []string{"-smoke", "-table2", "-multijob", "-resilience", "-hetero", "-q", "-workers", "2",
		"-checkpoint", filepath.Join(t.TempDir(), "ckpt"), "-out", outDir}
	first, cold := rumrsweep(t, args...)
	if cold.ConfigsTotal == 0 || cold.ConfigsSkipped != 0 {
		t.Fatalf("cold run: %d cells, %d restored; want a computed sweep", cold.ConfigsTotal, cold.ConfigsSkipped)
	}
	second, warm := rumrsweep(t, args...)
	if warm.ConfigsTotal != cold.ConfigsTotal || warm.ConfigsSkipped != warm.ConfigsTotal {
		t.Fatalf("resumed run restored %d of %d cells, want all %d", warm.ConfigsSkipped, warm.ConfigsTotal, cold.ConfigsTotal)
	}
	if warm.Simulations != 0 {
		t.Fatalf("resumed run simulated %d times, want 0", warm.Simulations)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("resumed output differs:\n%s\nvs\n%s", second, first)
	}
	csv, err := os.ReadFile(filepath.Join(outDir, "hetero.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// A header, then 4 spreads × 3 errors × 3 competitors.
	if lines := bytes.Count(csv, []byte("\n")); lines != 1+4*3*3 {
		t.Fatalf("hetero.csv has %d lines, want 37:\n%s", lines, csv)
	}
}

// TestHeteroHonoursReps checks that -reps caps the hetero study: its
// 20 platforms × 3 errors × 4 algorithms × 4 spreads run once each.
func TestHeteroHonoursReps(t *testing.T) {
	_, snap := rumrsweep(t, "-hetero", "-reps", "1", "-q", "-workers", "2")
	if snap.Simulations != 960 {
		t.Fatalf("simulations = %d, want 960", snap.Simulations)
	}
}

// TestMetricsDumpCountsPlans checks the plan counters of the -metrics
// dump. The smoke grid's 8 configurations share 2 (N, r) pairs, so its
// 8 × 5 errors × 4 MI prototypes are served by 2 × 4 = 8 MI solves,
// the other 152 by the runner's shared plan tier.
func TestMetricsDumpCountsPlans(t *testing.T) {
	_, snap := rumrsweep(t, "-smoke", "-table2", "-q", "-workers", "2")
	if snap.PlansShared != 152 {
		t.Fatalf("plans_shared = %d, want 152", snap.PlansShared)
	}
	if snap.PlansBuilt < 8 {
		t.Fatalf("plans_built = %d, want at least the 8 MI solves", snap.PlansBuilt)
	}
}

// TestCurveFiguresWriteEveryArtifact drives the five makespan-vs-error
// figures: each prints its table header on stdout and saves a CSV (with
// an x column header) and an SVG under -out.
func TestCurveFiguresWriteEveryArtifact(t *testing.T) {
	outDir := t.TempDir()
	out, _ := rumrsweep(t, "-smoke", "-fig4a", "-fig4b", "-fig5", "-fig6", "-fig7", "-q", "-workers", "2", "-out", outDir)
	for _, header := range []string{
		"Fig 4(a): makespan normalised to RUMR vs error (all parameters)",
		"Fig 4(b): makespan normalised to RUMR vs error (cLat<0.3, nLat<0.3)",
		"Fig 5: makespan normalised to RUMR vs error (cLat=0.3, nLat=0.9, N=20, B=36)",
		"Fig 6: fixed phase-1 splits normalised to original RUMR",
		"Fig 7: plain (in-order) phase 1 normalised to original RUMR",
	} {
		if !bytes.Contains(out, []byte("\n"+header+"\n")) {
			t.Errorf("stdout lacks the header line %q", header)
		}
	}
	for _, name := range []string{"fig4a", "fig4b", "fig5", "fig6", "fig7"} {
		csv, err := os.ReadFile(filepath.Join(outDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(csv, []byte("x,")) || bytes.Count(csv, []byte("\n")) < 2 {
			t.Errorf("%s.csv is not a header plus rows:\n%s", name, csv)
		}
		svg, err := os.ReadFile(filepath.Join(outDir, name+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(svg, []byte("<svg")) || !bytes.HasSuffix(bytes.TrimSpace(svg), []byte("</svg>")) {
			t.Errorf("%s.svg is not a complete SVG document", name)
		}
	}
}

// listenAddr finds the address in the coordinator's "listening" log line.
var listenAddr = regexp.MustCompile(`msg="coordinator listening[^"]*" addr=(\S+)`)

// serve runs the command with -serve on a free port, joins it with the
// given number of workers, and returns its stdout and final metrics
// snapshot once it has finished.
func serve(t *testing.T, workers int, args ...string) ([]byte, metrics.Snapshot) {
	t.Helper()
	metOut := filepath.Join(t.TempDir(), "metrics.json")
	cmd := command(append(args, "-serve", "127.0.0.1:0", "-metrics", metOut)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	lines := bufio.NewScanner(stderr)
	addr := ""
	for addr == "" && lines.Scan() {
		fmt.Fprintln(&log, lines.Text())
		if m := listenAddr.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
	}
	// The rest of the log drains until the command exits; Wait may
	// only follow the last read.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(&log, stderr) //nolint:errcheck // diagnostics only
	}()
	if addr == "" {
		<-drained
		cmd.Wait() //nolint:errcheck // the log below says why it stopped
		t.Fatalf("no listening address in the coordinator's log:\n%s", log.Bytes())
	}
	type joined struct {
		done chan struct{} // closed when the worker has exited
		err  error
	}
	fleet := make([]*joined, workers)
	for i := range fleet {
		w := command("-join", addr, "-q", "-workers", "1")
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		j := &joined{done: make(chan struct{})}
		go func() {
			j.err = w.Wait()
			close(j.done)
		}()
		fleet[i] = j
		t.Cleanup(func() {
			w.Process.Kill() //nolint:errcheck // it has normally exited already
			<-j.done
		})
	}
	<-drained
	if err := cmd.Wait(); err != nil {
		t.Fatalf("rumrsweep %v -serve: %v\n%s", args, err, log.Bytes())
	}
	// The coordinator answers 410 until every worker has heard it, so the
	// workers exit cleanly right after it instead of retrying its address.
	deadline := time.After(2 * time.Second)
	for i, j := range fleet {
		select {
		case <-j.done:
			if j.err != nil {
				t.Fatalf("-join worker %d of %d exited with %v", i, workers, j.err)
			}
		case <-deadline:
			t.Fatalf("-join worker %d of %d still running 2s after its coordinator exited", i, workers)
		}
	}
	return stdout.Bytes(), readMetrics(t, metOut)
}

// TestServeJoinEveryStudy drives the paper sweep and the multi-job,
// resilience and heterogeneity studies through -serve/-join with 1, 2
// and 4 workers, and from a warm cache with none: every run prints the
// bytes of a local run, and the serving process simulates nothing
// itself — the workers compute every cell of every study.
func TestServeJoinEveryStudy(t *testing.T) {
	studies := []string{"-smoke", "-table2", "-multijob", "-resilience", "-hetero", "-q", "-workers", "1"}
	cache := filepath.Join(t.TempDir(), "cache")
	want, cold := rumrsweep(t, append(studies, "-cache", cache)...)
	if warm, snap := rumrsweep(t, append(studies, "-cache", cache)...); !bytes.Equal(warm, want) || snap.ConfigsSkipped != snap.ConfigsTotal {
		t.Fatalf("local warm-cache run restored %d of %d cells; output equal: %v",
			snap.ConfigsSkipped, snap.ConfigsTotal, bytes.Equal(warm, want))
	}
	for _, workers := range []int{1, 2, 4} {
		got, snap := serve(t, workers, studies...)
		if !bytes.Equal(got, want) {
			t.Fatalf("-serve with %d workers printed\n%s\nwant\n%s", workers, got, want)
		}
		if snap.Simulations != 0 || snap.ConfigsDone != cold.ConfigsTotal {
			t.Fatalf("-serve with %d workers: the coordinator simulated %d runs and counted %d of %d cells done",
				workers, snap.Simulations, snap.ConfigsDone, cold.ConfigsTotal)
		}
	}
	got, snap := serve(t, 0, append(studies, "-cache", cache)...)
	if !bytes.Equal(got, want) || snap.ConfigsSkipped != cold.ConfigsTotal {
		t.Fatalf("-serve from a warm cache restored %d of %d cells and printed\n%s\nwant\n%s",
			snap.ConfigsSkipped, cold.ConfigsTotal, got, want)
	}
}
