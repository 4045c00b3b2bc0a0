package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testFingerprint() string {
	return Fingerprint(SmokeGrid(), []string{"A", "B"}, NormalError, false)
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testFingerprint()
	if base != testFingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	g2 := SmokeGrid()
	g2.Reps++
	variants := []string{
		Fingerprint(g2, []string{"A", "B"}, NormalError, false),
		Fingerprint(SmokeGrid(), []string{"B", "A"}, NormalError, false),
		Fingerprint(SmokeGrid(), []string{"A", "B"}, UniformError, false),
		Fingerprint(SmokeGrid(), []string{"A", "B"}, NormalError, true),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d has the same fingerprint as the base sweep", i)
		}
	}
}

func TestCheckpointAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	fp := testFingerprint()
	cp, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	mean := [][]float64{{1.25, math.NaN()}, {3.5, 4.75}}
	if err := cp.Append(3, mean); err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(7, [][]float64{{9, 10}, {11, 12}}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp2, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 2 {
		t.Fatalf("reloaded %d configs, want 2", cp2.Len())
	}
	got, ok := cp2.Completed(3)
	if !ok || got[0][0] != 1.25 || !math.IsNaN(got[0][1]) || got[1][1] != 4.75 {
		t.Fatalf("restored block = %v, %v", got, ok)
	}
	if _, ok := cp2.Completed(5); ok {
		t.Fatal("config 5 was never recorded")
	}
}

func TestCheckpointRejectsForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cp, err := OpenCheckpoint(path, "aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(0, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if _, err := OpenCheckpoint(path, "bbbb"); err == nil {
		t.Fatal("checkpoint of a different sweep accepted")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckpointTruncatesPartialTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	fp := testFingerprint()
	cp, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(1, [][]float64{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Simulate a kill mid-append: a partial, unterminated line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"fingerprint":"` + fp + `","config":2,"mean":[[4`)
	f.Close()

	cp2, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != 1 {
		t.Fatalf("reloaded %d configs, want 1 (partial line dropped)", cp2.Len())
	}
	// The file is usable again: appends land after the last whole line.
	if err := cp2.Append(2, [][]float64{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	cp2.Close()
	cp3, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if cp3.Len() != 2 {
		t.Fatalf("after repair+append got %d configs, want 2", cp3.Len())
	}
	if got, ok := cp3.Completed(2); !ok || got[0][0] != 5 {
		t.Fatalf("repaired append lost data: %v, %v", got, ok)
	}
}

func TestCheckpointDropsCorruptTailLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	fp := testFingerprint()
	cp, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	cp.Append(0, [][]float64{{1}})
	cp.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("not json at all\n")
	f.Close()
	cp2, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 1 {
		t.Fatalf("reloaded %d configs, want 1", cp2.Len())
	}
}

// FuzzCheckpointLoad opens arbitrary bytes as a checkpoint: the open
// either fails with the foreign-fingerprint error or keeps a prefix of
// whole, well-formed lines, and the file then takes one more append.
func FuzzCheckpointLoad(f *testing.F) {
	fp := testFingerprint()
	valid := `{"fingerprint":"` + fp + `","config":3,"mean":[[1.25,null],[3.5,4.75]]}` + "\n"
	f.Add([]byte(valid + `{"fingerprint":"` + fp + `","config":7,"mean":[[9,10],[11,12]]}` + "\n"))
	f.Add([]byte(valid + `{"fingerprint":"` + fp + `","config":7,"mean":[[9,1`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := OpenCheckpoint(path, fp)
		if err != nil {
			if !strings.Contains(err.Error(), "different sweep") {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			return
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("kept %q, not a prefix of whole lines of %q", kept, data)
		}
		configs := map[int]bool{}
		for _, line := range bytes.SplitAfter(kept, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var cl checkpointLine
			if err := json.Unmarshal(line, &cl); err != nil || cl.Fingerprint != fp {
				t.Fatalf("kept line %q does not parse under the fingerprint", line)
			}
			configs[cl.Config] = true
		}
		n := cp.Len()
		if n != len(configs) {
			t.Fatalf("Len = %d, kept lines name %d configs", n, len(configs))
		}
		fresh := 0
		for configs[fresh] {
			fresh++
		}
		if err := cp.Append(fresh, [][]float64{{1, 2}}); err != nil {
			t.Fatal(err)
		}
		cp.Close()
		cp2, err := OpenCheckpoint(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		defer cp2.Close()
		if cp2.Len() != n+1 {
			t.Fatalf("Len after one append and a reopen = %d, want %d", cp2.Len(), n+1)
		}
	})
}
