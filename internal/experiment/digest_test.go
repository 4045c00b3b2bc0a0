package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumr/internal/sched"
	"rumr/internal/sched/factoring"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
	"rumr/internal/sched/wfactoring"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/golden_study_digest.txt")

const studyDigestPath = "testdata/golden_study_digest.txt"

// studyDigest runs every study of the Runner — the paper sweep, the
// multi-job study, the resilience study and the heterogeneity study —
// over small grids at pool
// widths 1 and 4 and returns one line per run: its name and a sha256 of
// the JSON results.
func studyDigest(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	row := func(name string, blob []byte) {
		fmt.Fprintf(&out, "%s %x\n", name, sha256.Sum256(blob))
	}
	sets := []struct {
		name  string
		algos func() []sched.Scheduler
	}{
		{"standard", StandardAlgorithms},
		{"fig6", Fig6Algorithms},
		{"fig7", Fig7Algorithms},
	}
	for _, set := range sets {
		for _, model := range []ErrorModelKind{NormalError, UniformError} {
			for _, unknown := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					r := &Runner{Algorithms: set.algos(), Workers: workers, ErrorModel: model, UnknownError: unknown}
					res, err := r.Sweep(SmokeGrid())
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := res.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					row(fmt.Sprintf("sweep %s model=%d unknown=%v workers=%d", set.name, model, unknown, workers), buf.Bytes())
				}
			}
		}
	}

	mg := MultiJobGrid{
		Config:       Config{N: 8, R: 1.8, CLat: 0.3, NLat: 0.9},
		Jobs:         3,
		ArrivalRates: []float64{0, 0.02, 0.1},
		Policies:     []string{"fcfs", "weighted"},
		Error:        0.2,
		Reps:         4,
		Total:        200,
		BaseSeed:     2003,
	}
	jsonRow := func(name string, res any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		row(name, blob)
	}
	for _, workers := range []int{1, 4} {
		r := &Runner{
			Algorithms: []sched.Scheduler{rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1}},
			Workers:    workers,
		}
		res, err := r.MultiJob(mg)
		jsonRow(fmt.Sprintf("multijob workers=%d", workers), res, err)
	}
	for _, unknown := range []bool{false, true} {
		r := &Runner{
			Algorithms:   []sched.Scheduler{rumr.Scheduler{}, factoring.Scheduler{}, mi.Scheduler{Installments: 1}},
			ErrorModel:   UniformError,
			UnknownError: unknown,
		}
		res, err := r.MultiJob(mg)
		jsonRow(fmt.Sprintf("multijob model=%d unknown=%v", UniformError, unknown), res, err)
	}

	rg := DefaultResilienceGrid()
	rg.Config = Config{N: 10, R: 1.8, CLat: 0.3, NLat: 0.9}
	rg.CrashRates = []float64{0, 0.2, 0.4}
	rg.Reps = 4
	for _, v := range []struct {
		name    string
		workers int
		unknown bool
		model   ErrorModelKind
	}{
		{"workers=1", 1, false, NormalError}, {"workers=4", 4, false, NormalError}, {"unknown=true", 0, true, NormalError},
		{"model=1", 0, false, UniformError}, {"model=1 unknown=true", 0, true, UniformError},
	} {
		r := &Runner{
			Algorithms:   append(StandardAlgorithms(), rumr.FaultTolerant{}),
			Workers:      v.workers,
			ErrorModel:   v.model,
			UnknownError: v.unknown,
		}
		res, err := r.Resilience(rg)
		jsonRow("resilience "+v.name, res, err)
	}

	heteroSets := []struct {
		name  string
		algos func() []sched.Scheduler
	}{
		{"rumrsweep", heteroAlgorithms},
		{"umr-baseline", func() []sched.Scheduler {
			return []sched.Scheduler{umr.Scheduler{}, rumr.Scheduler{}, mi.Scheduler{Installments: 2}}
		}},
	}
	for _, set := range heteroSets {
		for _, workers := range []int{1, 4} {
			r := &Runner{Algorithms: set.algos(), Workers: workers}
			res, err := r.Hetero(smallHeteroGrid())
			jsonRow(fmt.Sprintf("hetero %s workers=%d", set.name, workers), res, err)
		}
		for _, unknown := range []bool{false, true} {
			r := &Runner{Algorithms: set.algos(), ErrorModel: UniformError, UnknownError: unknown}
			res, err := r.Hetero(smallHeteroGrid())
			jsonRow(fmt.Sprintf("hetero %s model=%d unknown=%v", set.name, UniformError, unknown), res, err)
		}
	}
	res, err := (&Runner{Algorithms: heteroAlgorithms()}).Hetero(DefaultHeteroGrid())
	jsonRow("hetero default", res, err)
	return out.String()
}

// heteroAlgorithms is rumrsweep's -hetero set: RUMR as the baseline, then
// UMR, Factoring and Weighted Factoring.
func heteroAlgorithms() []sched.Scheduler {
	return []sched.Scheduler{rumr.Scheduler{}, umr.Scheduler{}, factoring.Scheduler{}, wfactoring.Scheduler{}}
}

// TestStudyDigest pins the results of every Runner study, so a change to
// how studies are scheduled, restored or batched cannot move a number
// unnoticed. Regenerate (only for an intentional semantic change) with:
//
//	go test -run TestStudyDigest -update ./internal/experiment/
func TestStudyDigest(t *testing.T) {
	got := studyDigest(t)
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(studyDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(studyDigestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(studyDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest has %d rows, %s has %d", len(gotLines), studyDigestPath, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d diverged:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
