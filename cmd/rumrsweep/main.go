// Command rumrsweep reproduces the paper's evaluation (§5): it sweeps the
// experimental grid and regenerates Tables 2-3 and Figures 4(a), 4(b), 5,
// 6 and 7, printing them to stdout and optionally writing CSVs.
//
// By default it runs every artifact on the laptop-sized ReducedGrid
// (minutes). Select artifacts with flags, and grids with -smoke (seconds)
// or -full (the complete Table 1 grid — 68.6M simulations, 695 s for
// -full -table2 on a 2-core VM at commit 9ea2a70):
//
//	rumrsweep                    # everything, reduced grid
//	rumrsweep -table2 -table3    # just the tables
//	rumrsweep -fig5              # the Fig. 5 configuration (paper-exact)
//	rumrsweep -full -out results # paper grid, CSVs under results/
//
// Long runs are killable and resumable: Ctrl-C (or SIGTERM) cancels all
// in-flight configurations promptly, and with -checkpoint every completed
// configuration is persisted, so rerunning the same command resumes where
// the previous run stopped — with bit-identical results:
//
//	rumrsweep -full -checkpoint ckpt   # kill it any time...
//	rumrsweep -full -checkpoint ckpt   # ...and pick up where it left off
//
// -checkpoint, -cache, -uniform and -unknown-error apply to every study,
// since all of them run through the experiment Runner: the paper sweep,
// -multijob, -resilience and -hetero.
//
// Progress (configurations done, simulations/sec, DES events, ETA) prints
// to stderr once per second; -metrics dumps the final counters as JSON,
// and -cpuprofile/-memprofile write pprof profiles.
//
// Status messages go through log/slog; -log json switches them (and the
// per-second progress) to machine-readable JSON lines. For live
// introspection of a long sweep, -debug-addr :6060 serves /dashboard (a
// self-contained HTML status page), /metrics (counter snapshot with
// makespan/chunk/wall-time percentiles and engine hot-path counters as
// JSON), /debug/vars (expvar) and /debug/pprof/ on that address:
//
//	rumrsweep -full -debug-addr :6060 &
//	open localhost:6060/dashboard
//	curl localhost:6060/metrics
//	go tool pprof localhost:6060/debug/pprof/profile
//
// Every study distributes across processes (and machines) with
// -serve/-join: the serving process coordinates — it restores finished
// cells from the checkpoint/cache, leases the rest to joined workers in
// batches, and merges their results — while each -join process computes
// leases until the coordinator finishes. The paper sweep, -multijob,
// -resilience and -hetero all lease their cells this way; the serving
// process computes none itself. Results are byte-identical to a
// single-process run regardless of how many workers join or die; a killed
// worker's leases expire and are re-issued. -cache gives any mode (local,
// serving, or a later re-run) a content-addressed result cache keyed by
// study parameters and cell values, so extending a grid recomputes only
// new cells:
//
//	rumrsweep -serve :9090 -cache cache -table2   # terminal 1: coordinator
//	rumrsweep -join localhost:9090                # terminal 2..N: workers
//
// While serving with -debug-addr, /shards reports per-worker lease
// accounting next to /metrics, and /trace serves the fused distributed
// trace of the sweep — one Perfetto timeline with a coordinator lane and
// one lane per worker (-trace-out writes the same trace to a file at
// exit). The dashboard links both.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rumr"
	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
	"rumr/internal/shard"
	"rumr/internal/trace"
)

type artifact struct {
	name string
	run  func(sc *sweepCtx) error
}

type sweepCtx struct {
	ctx      context.Context
	grid     rumr.Grid
	workers  int
	model    experiment.ErrorModelKind
	unknown  bool
	met      *rumr.Metrics
	outDir   string
	ckptDir  string
	cacheDir string
	fleet    experiment.Fleet   // the coordinator under -serve; nil computes locally
	std      *rumr.SweepResults // cached standard-algorithm sweep
}

func main() {
	var (
		smoke   = flag.Bool("smoke", false, "use the seconds-scale smoke grid; its 5 reps cap the studies' too, so -hetero keeps its 5")
		full    = flag.Bool("full", false, "use the complete Table 1 grid (68.6M simulations; -table2 took 695 s on a 2-core VM)")
		outDir  = flag.String("out", "", "directory to write CSV files into (optional)")
		workers = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		uniform = flag.Bool("uniform", false, "use the uniform error model (the paper's alternative)")
		unknown = flag.Bool("unknown-error", false, "hide the error magnitude from the schedulers")
		reps    = flag.Int("reps", 0, "override repetitions per cell (caps -multijob, -resilience and -hetero too)")
		quiet   = flag.Bool("q", false, "suppress progress output")
		logFmt  = flag.String("log", "text", "status log format: text or json")

		debugAddr = flag.String("debug-addr", "", "serve /dashboard, /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060)")
		traceOut  = flag.String("trace-out", "", "with -serve: write the fused fleet Perfetto trace to this file at exit")

		serve    = flag.String("serve", "", "coordinate a distributed sweep on this address (e.g. :9090); workers join with -join")
		join     = flag.String("join", "", "join a coordinator as a worker (e.g. localhost:9090) instead of sweeping locally")
		cacheDir = flag.String("cache", "", "directory for the content-addressed result cache; re-sweeps compute only new cells")

		ckptDir = flag.String("checkpoint", "", "directory for per-artifact checkpoint files; rerun the same command to resume")
		metOut  = flag.String("metrics", "", "write final run metrics as JSON to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file")

		table2     = flag.Bool("table2", false, "Table 2: win percentages per error bucket")
		table3     = flag.Bool("table3", false, "Table 3: wins by >= 10%")
		fig4a      = flag.Bool("fig4a", false, "Fig 4(a): normalised makespans, whole grid")
		fig4b      = flag.Bool("fig4b", false, "Fig 4(b): normalised makespans, cLat<0.3 nLat<0.3")
		fig5       = flag.Bool("fig5", false, "Fig 5: the high-nLat single configuration")
		fig6       = flag.Bool("fig6", false, "Fig 6: fixed phase-1 splits vs original RUMR")
		fig7       = flag.Bool("fig7", false, "Fig 7: plain phase-1 vs original RUMR")
		fsc        = flag.Bool("fsc", false, "FSC-vs-Factoring claim of §5.1")
		umrBase    = flag.Bool("umrbase", false, "UMR-vs-MI baseline claim of §3.2")
		hetero     = flag.Bool("hetero", false, "heterogeneity study (beyond the paper)")
		resilience = flag.Bool("resilience", false, "resilience study: makespan degradation vs crash rate (beyond the paper)")
		multijob   = flag.Bool("multijob", false, "multi-job study: slowdown and fairness under link contention (beyond the paper)")
	)
	flag.Parse()

	switch *logFmt {
	case "text":
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "rumrsweep: unknown -log format %q (want text or json)\n", *logFmt)
		os.Exit(2)
	}
	jsonLog := *logFmt == "json"

	grid := experiment.ReducedGrid()
	switch {
	case *smoke && *full:
		logger.Error("-smoke and -full are mutually exclusive")
		os.Exit(2)
	case *smoke:
		grid = experiment.SmokeGrid()
	case *full:
		grid = experiment.PaperGrid()
	}
	if *reps > 0 {
		grid.Reps = *reps
	}

	// Ctrl-C / SIGTERM cancels all in-flight configurations promptly; with
	// -checkpoint the completed ones are already on disk. After the first
	// signal the handler is deregistered, so a second Ctrl-C force-kills
	// even if shutdown were to wedge.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// os.Exit skips defers, so the CPU profile is stopped explicitly on
	// every exit path below.
	stopCPU := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	met := rumr.NewMetrics()

	if *serve != "" && *join != "" {
		logger.Error("-serve and -join are mutually exclusive")
		stopCPU()
		os.Exit(2)
	}
	if *traceOut != "" && *serve == "" {
		logger.Error("-trace-out requires -serve (the coordinator holds the fused trace)")
		stopCPU()
		os.Exit(2)
	}
	var (
		coord    *shard.Coordinator
		coordSrv *http.Server
	)
	if *serve != "" {
		coord = shard.NewCoordinator()
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		logger.Info("coordinator listening; workers join with -join",
			"addr", ln.Addr().String())
		coordSrv = serveHTTP(ln, coord.Handler(), "coordinator")
	}

	// The debug server shares the sweep's metrics collector, so /metrics
	// shows live percentiles while configurations are still running. A
	// serving coordinator additionally exposes per-worker lease accounting
	// on /shards.
	if *debugAddr != "" {
		metrics.PublishExpvar(met)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		var extra []metrics.Endpoint
		endpoints := "/dashboard /metrics /debug/vars /debug/pprof/"
		if coord != nil {
			extra = append(extra,
				metrics.Endpoint{Pattern: "/shards", Handler: coord.StatusHandler()},
				metrics.Endpoint{Pattern: "/trace", Handler: coord.TraceHandler()})
			endpoints += " /shards /trace"
		}
		logger.Info("debug server listening", "addr", ln.Addr().String(), "endpoints", endpoints)
		serveHTTP(ln, metrics.DebugHandler(met, extra...), "debug")
	}

	// Progress is rendered by a snapshot loop over the shared metrics
	// collector rather than a per-configuration callback, so nothing in
	// the hot path writes to stderr. Text mode redraws a terminal status
	// line; JSON mode emits one structured progress record per tick.
	progressDone := make(chan struct{})
	progressIdle := make(chan struct{})
	if !*quiet {
		go func() {
			defer close(progressIdle)
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if jsonLog {
						logProgress(met.Snapshot())
					} else {
						fmt.Fprintf(os.Stderr, "\r\x1b[K%s", met.Snapshot())
					}
				case <-progressDone:
					return
				}
			}
		}()
	} else {
		close(progressIdle)
	}

	for _, dir := range []string{*outDir, *ckptDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}
	sc := &sweepCtx{ctx: ctx, grid: grid, workers: *workers, unknown: *unknown, met: met,
		outDir: *outDir, ckptDir: *ckptDir, cacheDir: *cacheDir}
	if coord != nil {
		sc.fleet = coord
	}
	if *uniform {
		sc.model = experiment.UniformError
	}

	all := []artifact{{"table2", runTable2}, {"table3", runTable3}}
	for _, cf := range curveFigs {
		all = append(all, artifact{cf.name, cf.run})
	}
	all = append(all, []artifact{
		{"fsc", runFSC}, {"umrbase", runUMRBase}, {"hetero", runHetero},
		{"resilience", runResilience}, {"multijob", runMultiJob},
	}...)
	selected := map[string]bool{
		"table2": *table2, "table3": *table3,
		"fig4a": *fig4a, "fig4b": *fig4b, "fig5": *fig5,
		"fig6": *fig6, "fig7": *fig7, "fsc": *fsc, "umrbase": *umrBase,
		"hetero": *hetero, "resilience": *resilience, "multijob": *multijob,
	}
	any := false
	for _, v := range selected {
		any = any || v
	}
	start := time.Now()
	exitCode := 0
	if *join != "" {
		// Worker mode: compute leases for a remote coordinator until it
		// finishes (or we are interrupted). Artifact flags are ignored —
		// the coordinator decides what is swept.
		base := *join
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		logger.Info("joining coordinator", "addr", base)
		w := &shard.Worker{Base: base, Procs: *workers, Metrics: met}
		switch err := w.Run(ctx); {
		case err == nil:
			logger.Info("coordinator shut down; worker exiting")
		case errors.Is(err, context.Canceled):
			exitCode = 130
		default:
			if !*quiet && !jsonLog {
				fmt.Fprintln(os.Stderr) // drop the live status line
			}
			logger.Error("worker failed", "err", err)
			exitCode = 1
		}
	} else {
		for _, a := range all {
			if any && !selected[a.name] {
				continue
			}
			if err := a.run(sc); err != nil {
				if !*quiet && !jsonLog {
					fmt.Fprintln(os.Stderr) // drop the live status line
				}
				if errors.Is(err, context.Canceled) {
					if *ckptDir != "" {
						logger.Warn("interrupted; rerun the same command to resume",
							"artifact", a.name, "checkpoint", *ckptDir)
					} else {
						logger.Warn("interrupted (use -checkpoint to make runs resumable)",
							"artifact", a.name)
					}
					exitCode = 130
				} else {
					logger.Error("artifact failed", "artifact", a.name, "err", err)
					exitCode = 1
				}
				break
			}
		}
	}
	if coord != nil {
		coord.Close() // tells polling workers to exit their loop
		coord.Drain(ctx)
		// Shutdown lets the last 410s reach their workers before the
		// process exits.
		shut, cancel := context.WithTimeout(context.Background(), time.Second)
		coordSrv.Shutdown(shut) //nolint:errcheck // best effort at exit
		cancel()
	}
	if *traceOut != "" {
		if err := writeFleetTrace(*traceOut, coord); err != nil {
			if !*quiet && !jsonLog {
				fmt.Fprintln(os.Stderr)
			}
			stopCPU()
			fatal(err)
		}
	}
	close(progressDone)
	<-progressIdle
	if !*quiet {
		if jsonLog {
			logProgress(met.Snapshot())
		} else {
			fmt.Fprintf(os.Stderr, "\r\x1b[K%s\n", met.Snapshot())
		}
		logger.Info("sweep done",
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"configs", len(grid.Configs()), "errors", len(grid.Errors), "reps", grid.Reps)
	}

	if *metOut != "" {
		blob, err := json.MarshalIndent(met.Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(*metOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	stopCPU()
	os.Exit(exitCode)
}

// logger carries all status output; -log json swaps in a JSON handler
// right after flag parsing.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

// serveHTTP serves h on ln in the background until the process exits or
// the returned server is shut down. ReadHeaderTimeout stops a client that
// opens a connection and never finishes its headers from holding it
// forever.
func serveHTTP(ln net.Listener, h http.Handler, name string) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Error(name+" server stopped", "err", err)
		}
	}()
	return srv
}

// writeFleetTrace validates the coordinator's fused sweep trace and writes
// it as Perfetto JSON — the -trace-out path. Validation failure is fatal by
// design: a trace that does not validate indicates a propagation bug, not a
// cosmetic defect.
func writeFleetTrace(path string, coord *shard.Coordinator) error {
	spans := coord.Spans()
	if len(spans) == 0 {
		return fmt.Errorf("trace-out: no sweep was traced (did any sweep run?)")
	}
	if err := span.Validate(spans); err != nil {
		return fmt.Errorf("trace-out: fused trace invalid: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteFleetPerfetto(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("fused fleet trace written", "path", path, "spans", len(spans))
	return nil
}

// logProgress emits one structured progress record from a metrics
// snapshot — the JSON-mode counterpart of the redrawn terminal line.
func logProgress(s rumr.MetricsSnapshot) {
	logger.Info("progress",
		"configs_done", s.ConfigsDone, "configs_total", s.ConfigsTotal,
		"simulations", s.Simulations, "runs_per_sec", s.RunsPerSec,
		"eta_sec", s.ETASec, "makespan_p50", s.RunMakespan.P50,
		"chunks_p50", s.ChunksPerRun.P50)
}

// runner returns the Runner of one study: the shared options, the
// study's algorithms (nil selects the standard seven) and a per-artifact
// checkpoint path. Each distinct study (different grid or algorithm set)
// checkpoints to its own file, keyed by name, because checkpoint files
// are fingerprinted per study. The cache directory, by contrast, is
// shared by every artifact: its keys already encode the study
// parameters. Under -serve every study's cells compute on the
// coordinator's joined workers.
func (sc *sweepCtx) runner(name string, algos []rumr.Scheduler) *experiment.Runner {
	if algos == nil {
		algos = rumr.StandardAlgorithms()
	}
	r := &experiment.Runner{Algorithms: algos, Workers: sc.workers, ErrorModel: sc.model,
		UnknownError: sc.unknown, Metrics: sc.met, CachePath: sc.cacheDir, Fleet: sc.fleet}
	if sc.ckptDir != "" {
		r.CheckpointPath = filepath.Join(sc.ckptDir, name+".jsonl")
	}
	return r
}

// sweep runs one paper sweep.
func (sc *sweepCtx) sweep(g rumr.Grid, name string, algos []rumr.Scheduler) (*rumr.SweepResults, error) {
	return sc.runner(name, algos).SweepContext(sc.ctx, g)
}

// standardSweep runs (or reuses) the sweep over the seven §5.1 algorithms.
func (sc *sweepCtx) standardSweep() (*rumr.SweepResults, error) {
	if sc.std != nil {
		return sc.std, nil
	}
	res, err := sc.sweep(sc.grid, "std", nil)
	if err != nil {
		return nil, err
	}
	sc.std = res
	return res, nil
}

// reps caps a study's repetitions by the sweep grid's, so -smoke and -reps
// shrink every study.
func (sc *sweepCtx) reps(n int) int { return min(n, sc.grid.Reps) }

// writeCSV saves an artifact CSV when -out was given.
func (sc *sweepCtx) writeCSV(name string, write func(f *os.File) error) error {
	if sc.outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(sc.outDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func runTable2(sc *sweepCtx) error {
	res, err := sc.standardSweep()
	if err != nil {
		return err
	}
	wt := rumr.ComputeWinTable(res, 0)
	if err := rumr.WriteWinTable(os.Stdout, wt, "\nTable 2: % of experiments in which RUMR outperforms"); err != nil {
		return err
	}
	fmt.Printf("Overall: RUMR outperforms competitors in %.1f%% of experiments (paper: 79%%)\n",
		rumr.OverallWinPercent(res, 0))
	return sc.writeCSV("table2.csv", func(f *os.File) error {
		return rumr.WriteWinTableCSV(f, wt, "")
	})
}

func runTable3(sc *sweepCtx) error {
	res, err := sc.standardSweep()
	if err != nil {
		return err
	}
	wt := rumr.ComputeWinTable(res, 0.10)
	if err := rumr.WriteWinTable(os.Stdout, wt, "\nTable 3: % of experiments in which RUMR outperforms by >= 10%"); err != nil {
		return err
	}
	return sc.writeCSV("table3.csv", func(f *os.File) error {
		return rumr.WriteWinTableCSV(f, wt, "")
	})
}

// curveFig is one makespan-vs-error figure: the sweep behind it, the
// curve filter, and the titles its table (plus optional ASCII chart),
// CSV and SVG are written under.
type curveFig struct {
	name     string // flag and CSV/SVG base name
	sweep    func(sc *sweepCtx) (*rumr.SweepResults, error)
	filter   func(rumr.Config) bool // nil: every configuration
	title    string                 // table header on stdout
	svgTitle string
	chart    bool // also print the ASCII chart
}

var curveFigs = []curveFig{
	{name: "fig4a", sweep: (*sweepCtx).standardSweep, chart: true,
		title:    "Fig 4(a): makespan normalised to RUMR vs error (all parameters)",
		svgTitle: "Fig 4(a): makespan normalised to RUMR vs error"},
	{name: "fig4b", sweep: (*sweepCtx).standardSweep, filter: rumr.LowLatencyFilter,
		title:    "Fig 4(b): makespan normalised to RUMR vs error (cLat<0.3, nLat<0.3)",
		svgTitle: "Fig 4(b): cLat<0.3, nLat<0.3"},
	{name: "fig5", chart: true,
		title:    "Fig 5: makespan normalised to RUMR vs error (cLat=0.3, nLat=0.9, N=20, B=36)",
		svgTitle: "Fig 5: cLat=0.3, nLat=0.9, N=20, B=36",
		sweep: func(sc *sweepCtx) (*rumr.SweepResults, error) {
			// Fig 5 always uses its own paper-exact grid.
			return sc.sweep(rumr.Fig5Grid(), "fig5", nil)
		}},
	{name: "fig6",
		title:    "Fig 6: fixed phase-1 splits normalised to original RUMR",
		svgTitle: "Fig 6: fixed phase-1 splits vs original RUMR",
		sweep: func(sc *sweepCtx) (*rumr.SweepResults, error) {
			return sc.sweep(sc.grid, "fig6", experiment.Fig6Algorithms())
		}},
	{name: "fig7",
		title:    "Fig 7: plain (in-order) phase 1 normalised to original RUMR",
		svgTitle: "Fig 7: plain phase 1 vs original RUMR",
		sweep: func(sc *sweepCtx) (*rumr.SweepResults, error) {
			return sc.sweep(sc.grid, "fig7", experiment.Fig7Algorithms())
		}},
}

// run sweeps the figure's study and writes its curves.
func (cf curveFig) run(sc *sweepCtx) error {
	res, err := cf.sweep(sc)
	if err != nil {
		return err
	}
	cv := rumr.ComputeCurves(res, cf.filter)
	if err := rumr.WriteCurvesTable(os.Stdout, cv, "\n"+cf.title); err != nil {
		return err
	}
	if cf.chart {
		if err := rumr.WriteCurvesChart(os.Stdout, cv, ""); err != nil {
			return err
		}
	}
	if err := sc.writeCSV(cf.name+".csv", func(f *os.File) error {
		return rumr.WriteCurvesCSV(f, cv, "")
	}); err != nil {
		return err
	}
	return sc.writeCSV(cf.name+".svg", func(f *os.File) error {
		return rumr.WriteCurvesSVG(f, cv, cf.svgTitle)
	})
}

func runFSC(sc *sweepCtx) error {
	res, err := sc.sweep(sc.grid, "fsc", []rumr.Scheduler{rumr.Factoring(), rumr.FSC()})
	if err != nil {
		return err
	}
	fmt.Printf("\nFSC claim (§5.1): Factoring beats FSC in %.1f%% of experiments (paper: \"most\")\n",
		rumr.OverallWinPercent(res, 0))
	return nil
}

func runUMRBase(sc *sweepCtx) error {
	grid := sc.grid
	grid.Errors = []float64{0}
	grid.Reps = 1
	res, err := sc.sweep(grid, "umrbase", []rumr.Scheduler{rumr.UMR(), rumr.MI(1), rumr.MI(2), rumr.MI(3), rumr.MI(4)})
	if err != nil {
		return err
	}
	fmt.Printf("\nUMR baseline (§3.2): UMR beats MI-1..4 at error=0 in %.1f%% of experiments (paper: >95%%)\n",
		rumr.OverallWinPercent(res, 0))
	return nil
}

// runResilience stresses every scheduler (plus the fault-tolerant RUMR
// variant) under random crash/rejoin scenarios with engine re-dispatch
// recovery enabled, and reports mean makespan degradation relative to each
// algorithm's own fault-free baseline.
func runResilience(sc *sweepCtx) error {
	g := experiment.DefaultResilienceGrid()
	g.Reps = sc.reps(g.Reps)
	r := sc.runner("resilience", append(experiment.StandardAlgorithms(), rumr.RUMRFaultTolerant()))
	res, err := r.ResilienceContext(sc.ctx, g)
	if err != nil {
		return err
	}
	fmt.Println("\nResilience study (beyond the paper): mean makespan / fault-free baseline")
	fmt.Printf("%-10s", "crash")
	for _, a := range res.Algorithms {
		fmt.Printf("  %12s", a)
	}
	fmt.Println()
	for ri, rate := range g.CrashRates {
		fmt.Printf("%-10.2f", rate)
		for ai := range res.Algorithms {
			fmt.Printf("  %12.3f", res.Degradation[ri][ai])
		}
		fmt.Println()
	}
	minComp := 1.0
	for ri := range g.CrashRates {
		for ai := range res.Algorithms {
			if c := res.Completion[ri][ai]; c < minComp {
				minComp = c
			}
		}
	}
	last := len(g.CrashRates) - 1
	fmt.Printf("(min workload completion %.4f; mean re-sends at crash %.2f: ", minComp, g.CrashRates[last])
	for ai, a := range res.Algorithms {
		if ai > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %.1f", a, res.Redispatches[last][ai])
	}
	fmt.Println(")")
	return sc.writeCSV("resilience.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "crash_rate,algorithm,mean_makespan,baseline,degradation,completion,redispatches"); err != nil {
			return err
		}
		for ri, rate := range g.CrashRates {
			for ai, a := range res.Algorithms {
				if _, err := fmt.Fprintf(f, "%g,%s,%g,%g,%g,%g,%g\n",
					rate, a, res.Mean[ri][ai], res.Baseline[ai],
					res.Degradation[ri][ai], res.Completion[ri][ai],
					res.Redispatches[ri][ai]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func runMultiJob(sc *sweepCtx) error {
	g := experiment.DefaultMultiJobGrid()
	g.Reps = sc.reps(g.Reps)
	r := sc.runner("multijob", []rumr.Scheduler{rumr.RUMR(), rumr.Factoring(), rumr.MI(1)})
	res, err := r.MultiJobContext(sc.ctx, g)
	if err != nil {
		return err
	}
	fmt.Printf("\nMulti-job study (beyond the paper): %d jobs x %g units on %s\n",
		g.Jobs, g.Total, g.Config)
	fmt.Println("mean slowdown (response / isolated lower bound) and Jain fairness")
	for pi, pol := range res.Policies {
		fmt.Printf("\nlink policy: %s\n", pol)
		fmt.Printf("%-10s", "rate")
		for _, a := range res.Algorithms {
			fmt.Printf("  %10s  %6s", a, "fair")
		}
		fmt.Println()
		for ri, rate := range g.ArrivalRates {
			fmt.Printf("%-10.3g", rate)
			for ai := range res.Algorithms {
				fmt.Printf("  %10.3f  %6.3f",
					res.MeanSlowdown[pi][ri][ai], res.MeanFairness[pi][ri][ai])
			}
			fmt.Println()
		}
	}
	return sc.writeCSV("multijob.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "policy,arrival_rate,algorithm,mean_response,mean_slowdown,mean_fairness,mean_makespan"); err != nil {
			return err
		}
		for pi, pol := range res.Policies {
			for ri, rate := range g.ArrivalRates {
				for ai, a := range res.Algorithms {
					if _, err := fmt.Fprintf(f, "%s,%g,%s,%g,%g,%g,%g\n",
						pol, rate, a,
						res.MeanResponse[pi][ri][ai], res.MeanSlowdown[pi][ri][ai],
						res.MeanFairness[pi][ri][ai], res.MeanMakespan[pi][ri][ai]); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

func runHetero(sc *sweepCtx) error {
	g := experiment.DefaultHeteroGrid()
	g.Reps = sc.reps(g.Reps)
	algos := []rumr.Scheduler{
		rumr.RUMR(), rumr.UMR(), rumr.Factoring(), rumr.WeightedFactoring(),
	}
	res, err := sc.runner("hetero", algos).HeteroContext(sc.ctx, g)
	if err != nil {
		return err
	}
	fmt.Println("\nHeterogeneity study (beyond the paper): mean competitor/RUMR ratio")
	fmt.Printf("%-8s", "spread")
	for _, e := range g.Errors {
		for _, a := range res.Algorithms {
			fmt.Printf("  %s@%.1f", a, e)
		}
	}
	fmt.Println()
	for si, spread := range g.Spreads {
		fmt.Printf("%-8.1f", spread)
		for ei := range g.Errors {
			for ai := range res.Algorithms {
				fmt.Printf("  %8.3f", res.Ratio[si][ei][ai])
			}
		}
		fmt.Println()
	}
	return sc.writeCSV("hetero.csv", func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "spread,error,algorithm,ratio"); err != nil {
			return err
		}
		for si, spread := range g.Spreads {
			for ei, e := range g.Errors {
				for ai, a := range res.Algorithms {
					if _, err := fmt.Fprintf(f, "%g,%g,%s,%g\n", spread, e, a, res.Ratio[si][ei][ai]); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}
