package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

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

// rumrsweep runs the command with args and returns its stdout and final
// metrics snapshot.
func rumrsweep(t *testing.T, args ...string) ([]byte, metrics.Snapshot) {
	t.Helper()
	metOut := filepath.Join(t.TempDir(), "metrics.json")
	cmd := exec.Command(os.Args[0], append(args, "-metrics", metOut)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rumrsweep %v: %v\n%s", args, err, stderr.Bytes())
	}
	blob, err := os.ReadFile(metOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	return out, snap
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
