// Command rumrsim simulates one divisible-workload execution on a
// homogeneous star platform and prints the makespan, per-chunk schedule
// statistics and an ASCII Gantt chart.
//
// Examples:
//
//	rumrsim -algo RUMR -n 20 -r 1.5 -clat 0.3 -nlat 0.3 -error 0.3
//	rumrsim -algo UMR -n 10 -b 30 -w 5000 -gantt=false
//	rumrsim -algo RUMR-fixed80-plain -error 0.2 -gantt=false
//	rumrsim -algo all -n 20 -r 1.8 -clat 0.3 -nlat 0.9 -error 0.2 -reps 40
//
// -algo takes the scheduler names the reports and sweeps print (RUMR,
// MI-3, Factoring-OB, SelfSched-64, RUMR-fixed80-plain-ft, ...): every
// name the sweep wire resolves, spelled exactly as printed.
//
// Faults are injected either explicitly (-faults) or from a random
// scenario (-crash-prob); by default lost chunks are re-dispatched to
// surviving workers:
//
//	rumrsim -algo RUMR-ft -n 8 -faults crash:2@40,rejoin:2@90
//	rumrsim -algo RUMR -n 8 -faults slow:0@10*8 -recover -timeout-factor 4
//	rumrsim -algo all -n 20 -crash-prob 0.3 -fault-seed 7 -gantt=false
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"rumr"
	"rumr/internal/dlt"
	"rumr/internal/experiment"
	"rumr/internal/rng"
	"rumr/internal/stats"
	"rumr/internal/trace"
)

// traceFlags bundle the trace-output options.
type traceFlags struct {
	csv      string
	json     string
	perfetto string
	stats    bool
}

func main() {
	var (
		algo      = flag.String("algo", "RUMR", "scheduler, by the name reports print: RUMR[-fixed<pct>][-plain][-boundOverError|-boundPlain][-ft], RUMR-adaptive, UMR, MI-<x>, Factoring, Factoring-OB, WFactoring, FSC, GSS, TSS, SelfSched[-<quantum>], or 'all'")
		n         = flag.Int("n", 20, "number of workers")
		r         = flag.Float64("r", 1.5, "bandwidth ratio: B = r*N (ignored when -b is set)")
		b         = flag.Float64("b", 0, "link rate B in units/s (overrides -r)")
		s         = flag.Float64("s", 1, "worker speed S in units/s")
		cLat      = flag.Float64("clat", 0.3, "computation latency in seconds")
		nLat      = flag.Float64("nlat", 0.3, "transfer latency in seconds")
		total     = flag.Float64("w", 1000, "total workload in units")
		errMag    = flag.Float64("error", 0, "prediction-error magnitude (sd of the predicted/effective ratio)")
		unknown   = flag.Bool("unknown-error", false, "hide the error magnitude from the scheduler")
		uniform   = flag.Bool("uniform", false, "use the uniform error model instead of the truncated normal")
		seed      = flag.Uint64("seed", 1, "random seed")
		reps      = flag.Int("reps", 1, "repetitions (reports mean and sd when > 1)")
		parallel  = flag.Int("parallel", 1, "concurrent master transfers (1 = the paper's serialised port)")
		gantt     = flag.Bool("gantt", true, "print an ASCII Gantt chart (single repetition only)")
		width     = flag.Int("width", 100, "gantt width in characters")
		traceCSV  = flag.String("trace-csv", "", "write the per-chunk trace as CSV to this file")
		traceJSON = flag.String("trace-json", "", "write the per-chunk trace as JSON to this file")
		perfetto  = flag.String("perfetto", "", "stream the run as Chrome trace-event JSON to this file (open in ui.perfetto.dev; single repetition only)")
		showStats = flag.Bool("stats", false, "print schedule statistics (utilization, gaps, phases)")

		faultSpec = flag.String("faults", "", "inject faults: comma list of kind:worker@time with kinds crash, rejoin, linkdown, linkup, slowend, plus slow:worker@time*factor (e.g. 'crash:2@40,rejoin:2@90,slow:0@10*8')")
		crashProb = flag.Float64("crash-prob", 0, "draw a random fault scenario with this per-worker crash probability (ignored when -faults is set)")
		rejoin    = flag.Float64("rejoin-prob", 0.5, "rejoin probability for randomly crashed workers")
		horizon   = flag.Float64("fault-horizon", 0, "window random faults are drawn in (0 = 3x the ideal makespan lower bound)")
		faultSeed = flag.Uint64("fault-seed", 7, "seed for the random fault scenario")
		doRecover = flag.Bool("recover", true, "re-dispatch chunks lost to faults onto surviving workers")
		tFactor   = flag.Float64("timeout-factor", 4, "recovery completion timeout as a multiple of the predicted chunk time (0 = no timeouts, loss detection only)")
		maxAtt    = flag.Int("max-attempts", 0, "dispatch attempts per chunk before giving it up as lost (0 = unlimited)")
	)
	flag.Parse()

	bw := *b
	if bw <= 0 {
		bw = *r * float64(*n)
	}
	p := rumr.HomogeneousPlatform(*n, *s, bw, *cLat, *nLat)

	var faults *rumr.FaultSchedule
	switch {
	case *faultSpec != "":
		fs, err := parseFaults(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rumrsim:", err)
			os.Exit(2)
		}
		faults = fs
	case *crashProb > 0:
		h := *horizon
		if h <= 0 {
			h = 3 * dlt.LowerBound(p, *total)
		}
		sc := rumr.FaultScenario{
			Horizon:        h,
			CrashProb:      *crashProb,
			RejoinProb:     *rejoin,
			RejoinDelayMin: 0.1 * h,
			RejoinDelayMax: 0.5 * h,
		}
		faults = sc.Generate(*n, rng.New(*faultSeed))
	}
	if err := faults.Validate(*n); err != nil {
		fmt.Fprintln(os.Stderr, "rumrsim:", err)
		os.Exit(2)
	}
	recovery := rumr.Recovery{Enabled: *doRecover, TimeoutFactor: *tFactor, MaxAttempts: *maxAtt}

	names := []string{*algo}
	if *algo == "all" {
		names = []string{"RUMR", "RUMR-adaptive", "UMR", "MI-1", "MI-2", "MI-3", "MI-4", "Factoring", "FSC", "GSS", "TSS", "WFactoring"}
	}
	for _, name := range names {
		s, ok := experiment.AlgorithmByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "rumrsim: unknown scheduler %q\n", name)
			os.Exit(2)
		}
		tf := traceFlags{csv: *traceCSV, json: *traceJSON, perfetto: *perfetto, stats: *showStats}
		if err := run(p, s, *total, *errMag, *unknown, *uniform, *parallel, *seed, *reps, *gantt && *algo != "all", *width, tf, faults, recovery); err != nil {
			fmt.Fprintln(os.Stderr, "rumrsim:", err)
			os.Exit(1)
		}
	}
}

// faultKinds maps the -faults spec names to fault kinds.
var faultKinds = map[string]rumr.FaultKind{
	"crash":    rumr.WorkerCrash,
	"rejoin":   rumr.WorkerRejoin,
	"linkdown": rumr.LinkDown,
	"linkup":   rumr.LinkUp,
	"slow":     rumr.SlowStart,
	"slowend":  rumr.SlowEnd,
}

// parseFaults parses the -faults flag: a comma-separated list of
// kind:worker@time elements, where slow additionally takes *factor
// (e.g. "crash:2@40,rejoin:2@90,slow:0@10*8").
func parseFaults(spec string) (*rumr.FaultSchedule, error) {
	fs := &rumr.FaultSchedule{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad fault %q (want kind:worker@time)", part)
		}
		kind, ok := faultKinds[kindStr]
		if !ok {
			return nil, fmt.Errorf("unknown fault kind %q in %q", kindStr, part)
		}
		wStr, tStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("bad fault %q (want kind:worker@time)", part)
		}
		worker, err := strconv.Atoi(wStr)
		if err != nil {
			return nil, fmt.Errorf("bad worker in fault %q: %v", part, err)
		}
		factor := 0.0
		if tStr2, fStr, ok := strings.Cut(tStr, "*"); ok {
			if kind != rumr.SlowStart {
				return nil, fmt.Errorf("factor only applies to slow, not %q", part)
			}
			tStr = tStr2
			if factor, err = strconv.ParseFloat(fStr, 64); err != nil {
				return nil, fmt.Errorf("bad factor in fault %q: %v", part, err)
			}
		} else if kind == rumr.SlowStart {
			return nil, fmt.Errorf("slow fault %q needs a *factor (e.g. slow:0@10*8)", part)
		}
		at, err := strconv.ParseFloat(tStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in fault %q: %v", part, err)
		}
		fs.Events = append(fs.Events, rumr.FaultEvent{Time: at, Worker: worker, Kind: kind, Factor: factor})
	}
	if len(fs.Events) == 0 {
		return nil, fmt.Errorf("empty -faults spec %q", spec)
	}
	return fs, nil
}

func run(p *rumr.Platform, s rumr.Scheduler, total, errMag float64, unknown, uniform bool, parallel int, seed uint64, reps int, gantt bool, width int, tf traceFlags, faults *rumr.FaultSchedule, recovery rumr.Recovery) error {
	needTrace := (gantt || tf.csv != "" || tf.json != "" || tf.stats) && reps == 1
	opts := rumr.SimOptions{Error: errMag, Seed: seed, RecordTrace: needTrace, ParallelSends: parallel,
		Faults: faults, Recovery: recovery}
	if uniform {
		opts.Model = rumr.UniformError
	}
	if unknown {
		u := -1.0
		opts.SchedulerError = &u
	}
	// The perfetto export streams events as the simulation runs, so it also
	// captures dispatcher decisions and phase transitions that a recorded
	// trace cannot reconstruct. Like the Gantt chart it covers one rep.
	var sink *trace.PerfettoSink
	if tf.perfetto != "" && reps == 1 {
		f, err := os.Create(tf.perfetto)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = trace.NewPerfettoSink(f)
		opts.Events = sink
	}
	var mks, chunks []float64
	var last rumr.Result
	for rep := 0; rep < reps; rep++ {
		opts.Seed = seed + uint64(rep)
		res, err := rumr.Simulate(p, s, total, opts)
		if err != nil {
			return err
		}
		mks = append(mks, res.Makespan)
		chunks = append(chunks, float64(res.Chunks))
		last = res
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
	}
	sort.Float64s(mks)
	fmt.Printf("%-14s makespan %.4f", s.Name(), stats.Mean(mks))
	if reps > 1 {
		fmt.Printf(" ± %.4f (sd over %d reps, min %.4f max %.4f)",
			stats.StdDev(mks), reps, mks[0], mks[len(mks)-1])
	}
	fmt.Printf("   chunks %.0f\n", stats.Mean(chunks))
	if faults != nil && !faults.Empty() {
		fmt.Printf("  faults: completed %.6g of %.6g dispatched   %d attempts lost   %d re-dispatches",
			last.CompletedWork, last.DispatchedWork, last.LostChunks, last.Redispatches)
		if last.LostWork > 0 {
			fmt.Printf("   %.4g units permanently lost", last.LostWork)
		}
		fmt.Println()
	}
	if last.Trace != nil {
		// Under faults the dispatcher may not manage to inject the whole
		// workload (e.g. recovery disabled and every worker dead), so the
		// trace is checked against what actually entered the system.
		if err := last.Trace.Validate(p, last.DispatchedWork); err != nil {
			return fmt.Errorf("schedule failed validation: %w", err)
		}
		if gantt {
			fmt.Print(rumr.Gantt(last.Trace, p.N(), width))
		}
		if tf.stats {
			st := last.Trace.ComputeStats(p.N())
			fmt.Printf("  port utilization %.1f%%   mean worker utilization %.1f%%   mean idle gap %.3fs\n",
				100*st.PortUtilization, 100*st.MeanWorkerUtilization, st.MeanIdleGap)
			fmt.Printf("  chunk sizes [%.3g, %.3g]", st.ChunkSizeMin, st.ChunkSizeMax)
			timeline := last.Trace.PhaseTimeline()
			for _, ph := range last.Trace.Phases() {
				span := timeline[ph]
				fmt.Printf("   phase %d: %.3g units over t=[%.4g, %.4g]", ph, st.PhaseWork[ph], span[0], span[1])
			}
			fmt.Println()
		}
		if tf.csv != "" {
			f, err := os.Create(tf.csv)
			if err != nil {
				return err
			}
			if err := last.Trace.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if tf.json != "" {
			f, err := os.Create(tf.json)
			if err != nil {
				return err
			}
			if err := last.Trace.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
