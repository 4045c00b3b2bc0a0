package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// validMultiTrace interleaves two jobs on the serialised port: job 0
// arrives at 0 with 10 units, job 1 at 0.5 with 5 units.
func validMultiTrace() *Trace {
	return &Trace{
		Records: []ChunkRecord{
			{ChunkID: 0, Job: 0, Worker: 0, Size: 5, SendStart: 0, SendEnd: 0.6, Arrive: 0.6, CompStart: 0.6, CompEnd: 5.7},
			{ChunkID: 1, Job: 1, Worker: 1, Size: 5, SendStart: 0.6, SendEnd: 1.2, Arrive: 1.2, CompStart: 1.2, CompEnd: 6.3},
			{ChunkID: 2, Job: 0, Worker: 0, Size: 5, SendStart: 1.2, SendEnd: 1.8, Arrive: 1.8, CompStart: 5.7, CompEnd: 10.8},
		},
		Makespan: 10.8,
	}
}

func multiSpecs() []MultiJobSpec {
	return []MultiJobSpec{{Arrival: 0, Total: 10}, {Arrival: 0.5, Total: 5}}
}

func TestValidateMultiJobAccepts(t *testing.T) {
	if err := validMultiTrace().ValidateMultiJob(twoWorkerPlatform(), multiSpecs()); err != nil {
		t.Fatalf("valid multi-job trace rejected: %v", err)
	}
}

// Hand-built violations, one rule each.
func TestValidateMultiJobRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		specs  func() []MultiJobSpec
		want   string
	}{
		{
			name:   "no specs",
			mutate: func(tr *Trace) {},
			specs:  func() []MultiJobSpec { return nil },
			want:   "at least one job spec",
		},
		{
			name:   "job index out of range",
			mutate: func(tr *Trace) { tr.Records[1].Job = 7 },
			specs:  multiSpecs,
			want:   "belongs to job 7",
		},
		{
			name:   "fault state leaks in",
			mutate: func(tr *Trace) { tr.Records[2].Lost = true; tr.Records[2].LostAt = 6 },
			specs:  multiSpecs,
			want:   "fault state",
		},
		{
			name:   "re-dispatch attempt leaks in",
			mutate: func(tr *Trace) { tr.Records[2].Attempt = 1 },
			specs:  multiSpecs,
			want:   "fault state",
		},
		{
			name:   "worker out of range",
			mutate: func(tr *Trace) { tr.Records[0].Worker = 5 },
			specs:  multiSpecs,
			want:   "targets worker 5",
		},
		{
			name:   "non-positive size",
			mutate: func(tr *Trace) { tr.Records[0].Size = 0 },
			specs:  multiSpecs,
			want:   "non-positive size",
		},
		{
			name:   "send before arrival",
			mutate: func(tr *Trace) { tr.Records[1].SendStart = 0.2 },
			specs:  multiSpecs,
			want:   "before job 1 arrived",
		},
		{
			name: "per-job conservation broken",
			mutate: func(tr *Trace) {
				// Shift a unit of work from job 0 to job 1; the global sum
				// is unchanged, only per-job grouping catches it.
				tr.Records[2].Job = 1
			},
			specs: multiSpecs,
			want:  "job 0 dispatched 5 units, want 10",
		},
		{
			name: "link serialization violated across jobs",
			mutate: func(tr *Trace) {
				// Job 1's transfer overlaps job 0's on the serialised port.
				tr.Records[1].SendStart = 0.55
				tr.Records[1].Arrive = 1.2
			},
			specs: multiSpecs,
			want:  "master port overlap",
		},
		{
			name: "compute overlap across jobs",
			mutate: func(tr *Trace) {
				// Job 1's chunk computes on worker 0 while job 0's is running.
				tr.Records[1].Worker = 0
				tr.Records[1].CompStart = 1.2
				tr.Records[1].CompEnd = 6.3
			},
			specs: multiSpecs,
			want:  "computes two chunks at once",
		},
		{
			name:   "compute before arrival",
			mutate: func(tr *Trace) { tr.Records[2].CompStart = 1.0; tr.Records[2].CompEnd = 6.1 },
			specs:  multiSpecs,
			want:   "inconsistent compute times",
		},
		{
			name:   "makespan below last completion",
			mutate: func(tr *Trace) { tr.Makespan = 9 },
			specs:  multiSpecs,
			want:   "makespan 9 below",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validMultiTrace()
			tc.mutate(tr)
			err := tr.ValidateMultiJob(twoWorkerPlatform(), tc.specs())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// The single-job trace JSON must not change shape: Job is omitted when
// zero, so pre-multi-job goldens decode and re-encode unchanged.
func TestChunkRecordJobOmittedWhenZero(t *testing.T) {
	b, err := json.Marshal(ChunkRecord{Worker: 1, Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Job") {
		t.Fatalf("zero Job serialized: %s", b)
	}
	b, err = json.Marshal(ChunkRecord{Worker: 1, Size: 2, Job: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"Job":3`) {
		t.Fatalf("non-zero Job missing: %s", b)
	}
}

func TestWriteMultiPerfetto(t *testing.T) {
	tr := validMultiTrace()
	var buf bytes.Buffer
	if err := tr.WriteMultiPerfetto(&buf, 2, 2, []string{"alpha", ""}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// One process per job, named from jobNames with a fallback.
	names := map[int]string{}
	slices := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Name == "process_name" {
			names[e.Pid] = e.Args["name"].(string)
		}
		if e.Ph == "X" {
			slices[e.Pid]++
		}
	}
	if names[1] != "job 0: alpha" || names[2] != "job 1" {
		t.Fatalf("process names = %v", names)
	}
	// Job 0 has 2 records → 4 slices (send+compute); job 1 has 1 → 2.
	if slices[1] != 4 || slices[2] != 2 {
		t.Fatalf("slice counts per pid = %v", slices)
	}
	// Every slice carries its job in args.
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if int(e.Args["job"].(float64)) != e.Pid-1 {
			t.Fatalf("slice %q on pid %d tagged job %v", e.Name, e.Pid, e.Args["job"])
		}
	}
	if err := tr.WriteMultiPerfetto(&buf, 2, 0, nil); err == nil {
		t.Fatal("accepted zero job lanes")
	}
}
