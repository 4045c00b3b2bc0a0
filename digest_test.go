package rumr

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumr/internal/obs"
	"rumr/internal/rng"
)

const engineDigestPath = "testdata/golden_engine_digest.txt"

// digestPlatforms are the platform shapes of the engine digest: homogeneous
// and heterogeneous, each with and without a pipeline tail (TLat), since the
// engine delivers TLat = 0 arrivals differently from delayed ones.
func digestPlatforms() []struct {
	name string
	p    *Platform
} {
	hetero := func(tLat float64) *Platform {
		return &Platform{Workers: []Worker{
			{S: 1, B: 10, CLat: 0.3, NLat: 0.3, TLat: tLat},
			{S: 1.5, B: 14, CLat: 0.2, NLat: 0.25, TLat: tLat},
			{S: 0.8, B: 9, CLat: 0.4, NLat: 0.2, TLat: tLat},
			{S: 2, B: 18, CLat: 0.1, NLat: 0.35, TLat: tLat},
			{S: 1.2, B: 12, CLat: 0.3, NLat: 0.3, TLat: tLat},
			{S: 0.6, B: 8, CLat: 0.5, NLat: 0.15, TLat: tLat},
		}}
	}
	homog := func(tLat float64) *Platform {
		p := HomogeneousPlatform(6, 1, 12, 0.3, 0.3)
		for i := range p.Workers {
			p.Workers[i].TLat = tLat
		}
		return p
	}
	return []struct {
		name string
		p    *Platform
	}{
		{"homog-tlat0", homog(0)},
		{"homog-tlat0.2", homog(0.2)},
		{"hetero-tlat0", hetero(0)},
		{"hetero-tlat0.2", hetero(0.2)},
	}
}

// digestSchedulers are the algorithms of the engine digest, covering
// static plans, demand-driven policies, RUMR's two phases and its
// fault-aware and adaptive variants.
func digestSchedulers() []struct {
	name string
	s    Scheduler
} {
	return []struct {
		name string
		s    Scheduler
	}{
		{"RUMR", RUMR()},
		{"RUMR-ft", RUMRFaultTolerant()},
		{"RUMR-adaptive", RUMRAdaptive()},
		{"UMR", UMR()},
		{"MI-2", MI(2)},
		{"Factoring", Factoring()},
		{"WFactoring", WeightedFactoring()},
		{"FSC", FSC()},
		{"GSS", GSS()},
	}
}

// engineDigest runs every digest config and returns one line per config:
// the config's name and a sha256 over its result summary, trace JSON and
// event stream. Result.Events (the DES event count) is left out: it is a
// cost figure of the engine, not simulated behaviour.
func engineDigest(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	idx := 0
	for _, pl := range digestPlatforms() {
		n := pl.p.N()
		for _, sc := range digestSchedulers() {
			for _, e := range []float64{0, 0.3, 0.7} {
				for ps := 1; ps <= 3; ps++ {
					for _, faulty := range []bool{false, true} {
						idx++
						var events strings.Builder
						opts := SimOptions{Error: e, Seed: uint64(idx), RecordTrace: true, ParallelSends: ps,
							Events: obs.Func(func(ev Event) { fmt.Fprintf(&events, "%+v\n", ev) })}
						if faulty {
							opts.Faults = FaultScenario{
								Horizon: 60, CrashProb: 0.35, RejoinProb: 0.5,
								RejoinDelayMin: 5, RejoinDelayMax: 30,
								OutageProb: 0.25, OutageMin: 1, OutageMax: 8,
								StragglerProb: 0.3, SlowMin: 2, SlowMax: 6,
							}.Generate(n, rng.New(uint64(1000+idx)))
							opts.Recovery = DefaultRecovery()
						}
						name := fmt.Sprintf("%s %s err=%g ps=%d faults=%v", pl.name, sc.name, e, ps, faulty)
						res, err := Simulate(pl.p, sc.s, 240, opts)
						h := sha256.New()
						if err != nil {
							fmt.Fprintf(h, "error: %v\n", err)
						} else {
							fmt.Fprintf(h, "%v %d %v %v %d %v %d %v\n", res.Makespan, res.Chunks,
								res.DispatchedWork, res.CompletedWork, res.LostChunks, res.LostWork,
								res.Redispatches, res.RedispatchedWork)
							var buf bytes.Buffer
							if err := res.Trace.WriteJSON(&buf); err != nil {
								t.Fatal(err)
							}
							h.Write(buf.Bytes())
						}
						h.Write([]byte(events.String()))
						fmt.Fprintf(&out, "%s %x\n", name, h.Sum(nil))
					}
				}
			}
		}
	}
	return out.String()
}

// TestEngineDigest pins the engine's observable behaviour — result
// summary, trace and event stream — across a grid of platforms, algorithms,
// error levels, port widths and fault scenarios, one sha256 per config.
// The two byte goldens cover two configs in full; this file covers many
// configs, including tie-heavy ones (error 0 with parallel sends) where
// event ordering is easiest to perturb. Regenerate (only for an
// intentional semantic change) with:
//
//	go test -run TestEngineDigest -update .
func TestEngineDigest(t *testing.T) {
	got := engineDigest(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(engineDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineDigestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(engineDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest has %d rows, %s has %d", len(gotLines), engineDigestPath, len(wantLines))
	}
	diffs := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if diffs < 10 {
				t.Errorf("row %d diverged:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d configs diverged from %s", diffs, len(gotLines)-1, engineDigestPath)
	}
}
