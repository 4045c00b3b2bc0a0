// Command rumrtrace inspects a trace saved by `rumrsim -trace-json`:
// it re-validates the schedule against a platform, prints statistics and
// phase timelines, renders an ASCII Gantt chart, and converts to CSV or
// Chrome trace-event JSON for ui.perfetto.dev.
//
// Validation rebuilds the platform from the -n/-r/-s/-clat/-nlat flags
// and therefore only checks traces from homogeneous platforms; a trace
// recorded on a heterogeneous platform will fail validation even though
// the schedule was feasible.
//
// Examples:
//
//	rumrsim -algo RUMR -n 8 -error 0.3 -trace-json run.json -gantt=false
//	rumrtrace -n 8 -r 1.5 -clat 0.3 -nlat 0.3 -w 1000 run.json
//	rumrtrace -csv run.csv run.json
//	rumrtrace -perfetto run.perfetto.json run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rumr/internal/platform"
	"rumr/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 0, "worker count for validation (0 = infer from the trace)")
		r        = flag.Float64("r", 1.5, "bandwidth ratio B = r*N, for validation")
		s        = flag.Float64("s", 1, "worker speed, for validation")
		cLat     = flag.Float64("clat", 0.3, "computation latency, for validation")
		nLat     = flag.Float64("nlat", 0.3, "transfer latency, for validation")
		total    = flag.Float64("w", 0, "expected workload (0 = accept the trace's own total)")
		csv      = flag.String("csv", "", "convert the trace to CSV at this path")
		perfetto = flag.String("perfetto", "", "convert the trace to Chrome trace-event JSON at this path (open in ui.perfetto.dev)")
		gantt    = flag.Bool("gantt", true, "render an ASCII Gantt chart")
		width    = flag.Int("width", 100, "gantt width in characters")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rumrtrace [flags] trace.json")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tr, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	workers := *n
	if workers == 0 {
		for _, rec := range tr.Records {
			if rec.Worker+1 > workers {
				workers = rec.Worker + 1
			}
		}
	}
	if workers == 0 {
		fatal(fmt.Errorf("empty trace"))
	}

	want := *total
	if want == 0 {
		want = tr.TotalDispatched()
	}
	p := platform.Homogeneous(workers, *s, *r*float64(workers), *cLat, *nLat)
	if err := tr.Validate(p, want); err != nil {
		fmt.Fprintf(os.Stderr, "rumrtrace: VALIDATION FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d chunks, %.6g units, makespan %.6g — schedule valid for N=%d\n",
		len(tr.Records), tr.TotalDispatched(), tr.Makespan, workers)

	st := tr.ComputeStats(workers)
	if st.LostAttempts > 0 {
		fmt.Printf("faults: %d attempts lost and re-dispatched or abandoned — completed %.6g of %.6g dispatched\n",
			st.LostAttempts, st.CompletedWork, tr.TotalDispatched())
	}
	fmt.Printf("port utilization %.1f%%   mean worker utilization %.1f%%   mean idle gap %.4g s\n",
		100*st.PortUtilization, 100*st.MeanWorkerUtilization, st.MeanIdleGap)
	fmt.Printf("chunk sizes [%.4g, %.4g]\n", st.ChunkSizeMin, st.ChunkSizeMax)
	timeline := tr.PhaseTimeline()
	for _, ph := range tr.Phases() {
		span := timeline[ph]
		fmt.Printf("phase %d: %.6g units over t=[%.6g, %.6g]\n",
			ph, st.PhaseWork[ph], span[0], span[1])
	}

	if *gantt {
		fmt.Print(tr.Gantt(workers, *width))
	}
	if *csv != "" {
		writeFile(*csv, tr.WriteCSV)
	}
	if *perfetto != "" {
		writeFile(*perfetto, func(w io.Writer) error { return tr.WritePerfetto(w, workers) })
	}
}

// writeFile creates path and runs write on it, exiting on any error.
func writeFile(path string, write func(io.Writer) error) {
	out, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(out); err != nil {
		out.Close()
		fatal(err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rumrtrace:", err)
	os.Exit(1)
}
