// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four sweep workloads — table2, multijob, resilience, fleet — through
// the program's public entry points for a fixed time, checks every output
// for correctness, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1), ending with one JSON
// line. BENCHMARK.json at the repository root records why each workload
// exists and which layers it loads.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rumr/internal/engine"
)

// config is what every workload's set-up receives.
type config struct {
	seed uint64
	dir  string // scratch directory for this run, removed at exit
}

// passStats is what one pass of a workload reports: the artifact built
// cold and then again warm, with its timings and volumes.
type passStats struct {
	wall, warm time.Duration // cold pass and warm re-run, start to rendered artifact
	aggregate  time.Duration // aggregating and rendering, both passes
	cellMs     []float64     // per-cell wall times, ms
	cells      int           // result cells delivered, both passes
	runs       int64         // simulations, both passes
	attempted  int
	failed     int
	digest     string // digest of both passes' outputs
	// Full-workload volumes: DES events of every run, and the engine
	// counters where the study feeds them to its collector.
	events int64
	engine engine.Counters
	// busy is the summed wall time of the cells; lanes is the number of
	// goroutines computing cells.
	busy  time.Duration
	lanes int
	// planTimes counts and times the pass's dispatcher constructions
	// (plans); traced passes of the local studies fill it. plans is the
	// plan count of a study whose plans happen out of reach (fleet).
	planTimes callTimes
	plans     int64
	shard     *shardStats // fleet only, filled on traced passes
}

// instance is one set-up workload, ready to run passes.
type instance interface {
	// pass builds the workload's artifact cold, then warm, and checks
	// both. rec is nil on untraced passes.
	pass(ctx context.Context, rec *recorder) (*passStats, error)
	// verify checks the last pass's outputs against a reference computed
	// here, once per run and outside the measured passes.
	verify(ctx context.Context) error
	// layers measures per-layer unit costs by replaying a sample of the
	// work the last pass did.
	layers(ctx context.Context, rec *recorder, ls *layerStats) error
	close() error
}

type workload struct {
	name  string
	setup func(ctx context.Context, c config) (instance, error)
}

var workloads = []workload{
	{"table2", setupTable2},
	{"multijob", setupMultiJob},
	{"resilience", setupResilience},
	{"fleet", setupFleet},
}

// setups is the number of set-ups per run. Set-ups take milliseconds, so
// each run repeats them and reports the median as setup_s.
const setups = 11

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxRunTime caps a run, whatever --seconds asks, well inside the
// three-minute limit a run must end in.
const maxRunTime = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table2, multijob, resilience or fleet")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (the grids' BaseSeed)")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (table2|multijob|resilience|fleet), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-"+wl.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), maxRunTime+20*time.Second)
	defer cancel()
	c := config{seed: *seed, dir: dir}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = measureTraced(ctx, wl, c, budget, *workdir, stdout)
	} else {
		res, err = measure(ctx, wl, c, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// setUp builds the workload setups times, keeping the last instance,
// and returns the set-up times in seconds.
func setUp(ctx context.Context, wl *workload, c config) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		in, err := wl.setup(ctx, c)
		if err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		inst = in
	}
	return inst, times, nil
}

// totals folds the passes of a run together.
type totals struct {
	passes            []*passStats
	walls, warms      []float64 // as measured
	speeds            []float64 // each pass's machine-speed factor
	cellMs            []float64 // at reference speed
	elapsed           float64   // Σ (wall + warm) at reference speed, s
	runs              int64
	cells             int
	attempted, failed int
}

// add folds in a pass whose times are converted to reference speed by
// the factor speed (see calibration.speed).
func (t *totals) add(p *passStats, speed float64) {
	t.passes = append(t.passes, p)
	t.walls = append(t.walls, p.wall.Seconds())
	t.warms = append(t.warms, p.warm.Seconds())
	t.speeds = append(t.speeds, speed)
	for _, ms := range p.cellMs {
		t.cellMs = append(t.cellMs, ms*speed)
	}
	t.elapsed += (p.wall + p.warm).Seconds() * speed
	t.runs += p.runs
	t.cells += p.cells
	t.attempted += p.attempted
	t.failed += p.failed
}

// enough reports whether the run has measured long enough: the time
// budget is spent and the cell p90 rests on enough samples.
func (t *totals) enough(start time.Time, budget time.Duration) bool {
	return time.Since(start) >= budget && len(t.passes) >= 2 && percentile(t.cellMs, 0.9).OK
}

// checkDigests fails when any pass's outputs differ from the first's:
// every pass of a run has the same inputs, traced or not.
func (t *totals) checkDigests() error {
	for i, p := range t.passes {
		if p.digest != t.passes[0].digest {
			return fmt.Errorf("pass %d outputs differ from pass 0 (%s vs %s)", i, p.digest, t.passes[0].digest)
		}
	}
	return nil
}

func failed(t *totals, err error) (*result, error) {
	return &result{Correct: false, Attempted: max(t.attempted, 1), Failed: max(t.failed, 1),
		Metrics: map[string]metric{}}, err
}

// measure is the untraced run: it reports the end-to-end metrics.
func measure(ctx context.Context, wl *workload, c config, budget time.Duration, stdout io.Writer) (*result, error) {
	var cal calibration
	cal.measure()
	inst, setupTimes, err := setUp(ctx, wl, c)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	cal.measure()
	setupSpeed := cal.speed()
	var t totals
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	start := time.Now()
	for !t.enough(start, budget) {
		if time.Since(start) > maxRunTime {
			return failed(&t, fmt.Errorf("run exceeded %v before the cell p90 had %d samples beyond it", maxRunTime, minTail))
		}
		runtime.ReadMemStats(&ms0)
		p, err := inst.pass(ctx, nil)
		if err != nil {
			return failed(&t, err)
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		cal.measure()
		t.add(p, cal.speed())
	}
	if err := t.checkDigests(); err != nil {
		return failed(&t, err)
	}
	if err := inst.verify(ctx); err != nil {
		return failed(&t, err)
	}
	// The replay doubles as a correctness check: a sample of the runs
	// re-simulated one by one must reproduce the study's means.
	if err := inst.layers(ctx, nil, nil); err != nil {
		return failed(&t, err)
	}
	p50, p90 := percentile(t.cellMs, 0.5), percentile(t.cellMs, 0.9)
	secs := t.elapsed
	m := map[string]metric{
		"runs_per_s":     {float64(t.runs) / secs, "1/s"},
		"cells_per_s":    {float64(t.cells) / secs, "1/s"},
		"cell_p50_ms":    {p50.Value, "ms"},
		"cell_p90_ms":    {p90.Value, "ms"},
		"wall_s":         {median(scaled(t.walls, t.speeds)), "s"},
		"warm_s":         {median(scaled(t.warms, t.speeds)), "s"},
		"setup_s":        {median(setupTimes) * setupSpeed, "s"},
		"allocs_per_run": {float64(mallocs) / float64(t.runs), "count"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes in %.1fs, %d runs, %d cells\n",
		wl.name, c.seed, len(t.passes), secs, t.runs, t.cells)
	fmt.Fprintf(stdout, "cell wall times: %v, %v\n", p50, p90)
	fmt.Fprintf(stdout, "set-up times (s, as measured): %v\n", fmtFloats(setupTimes))
	fmt.Fprintf(stdout, "cold pass times (s, as measured): %v\n", fmtFloats(t.walls))
	fmt.Fprintf(stdout, "warm pass times (s, as measured): %v\n", fmtFloats(t.warms))
	fmt.Fprintf(stdout, "fail_frac %g (%d of %d attempted)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	cal.print(stdout)
	fmt.Fprintf(stdout, "speed factors: set-up %.4g, passes %v\n", setupSpeed, fmtFloats(t.speeds))
	fmt.Fprintf(stdout, "times below are at reference speed (as measured x speed factor):\n")
	printMetrics(stdout, m)
	return &result{Correct: true, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// measureTraced is the traced run: untraced and traced passes alternate
// for half the budget (their difference is the tracing overhead), then a
// sample of the work is replayed through timing wrappers for the
// per-layer unit costs.
func measureTraced(ctx context.Context, wl *workload, c config, budget time.Duration, workdir string, stdout io.Writer) (*result, error) {
	inst, _, err := setUp(ctx, wl, c)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rec := newRecorder()
	var plain, traced totals
	var cal calibration
	start := time.Now()
	for len(traced.passes) == 0 || time.Since(start) < budget/2 {
		if time.Since(start) > maxRunTime/2 {
			break
		}
		cal.measure()
		p, err := inst.pass(ctx, nil)
		if err != nil {
			return failed(&plain, err)
		}
		plain.add(p, 1)
		p, err = inst.pass(ctx, rec)
		if err != nil {
			return failed(&traced, err)
		}
		traced.add(p, 1)
	}
	all := totals{passes: append(append([]*passStats(nil), plain.passes...), traced.passes...)}
	if err := all.checkDigests(); err != nil {
		return failed(&traced, fmt.Errorf("traced outputs differ from untraced ones: %w", err))
	}
	if err := inst.verify(ctx); err != nil {
		return failed(&traced, err)
	}
	var ls layerStats
	ls.clock = clockCost()
	if err := inst.layers(ctx, rec, &ls); err != nil {
		return failed(&traced, err)
	}
	m, budgetTable := layerMetrics(&ls, &plain, &traced)
	m["trace_overhead_frac"] = metric{median(sums(traced.walls, traced.warms))/median(sums(plain.walls, plain.warms)) - 1, "ratio"}
	spansPath := filepath.Join(workdir, "perfbench-spans-"+wl.name+".jsonl")
	if err := rec.write(spansPath); err != nil {
		return failed(&traced, err)
	}
	fmt.Fprintf(stdout, "workload %s seed %d (traced): %d untraced + %d traced passes, %d spans written to %s\n",
		wl.name, c.seed, len(plain.passes), len(traced.passes), rec.len(), spansPath)
	fmt.Fprintf(stdout, "\ncost budget per pass (%s; timer overhead %v per timed call subtracted):\n%s\n",
		wl.name, ls.clock, budgetTable)
	cal.print(stdout)
	printMetrics(stdout, m)
	att := plain.attempted + traced.attempted
	fl := plain.failed + traced.failed
	return &result{Correct: true, Attempted: att, Failed: fl, Metrics: m}, nil
}

// calibration times a fixed amount of CPU work between passes. It
// measures no part of the program, only how fast the machine runs at
// that moment: a shared 2-core Intel Xeon VM was seen to change speed by
// up to ~1.7x between runs and within them. The untraced run converts its
// times to a reference speed, so that its figures follow the program
// rather than the machine; it prints the calibrations and its times as
// measured too.
type calibration []float64 // ms, best of calibrationTries

// refCalibrationMs is the calibration at reference speed, as measured
// on a fast run of a 2-core Intel Xeon VM.
const refCalibrationMs = 3.0

// calibrationSteps makes one try take a few milliseconds; the best of
// calibrationTries drops tries that a preemption lengthened.
const (
	calibrationSteps = 1 << 19
	calibrationTries = 3
)

var (
	calibrationTable [8192]uint64
	calibrationSink  uint64
)

func init() {
	x := uint64(88172645463325252)
	for i := range calibrationTable {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibrationTable[i] = x
	}
}

// measure collects the previous pass's garbage first, so that no
// collection runs during the calibration and the program's allocations
// cannot slow it.
func (c *calibration) measure() {
	runtime.GC()
	best := math.Inf(1)
	for i := 0; i < calibrationTries; i++ {
		start := time.Now()
		calibrationSink += spin(calibrationSteps)
		best = min(best, float64(time.Since(start).Nanoseconds())/1e6)
	}
	*c = append(*c, best)
}

// speed is the factor that converts a time measured since the previous
// calibration to reference speed: the reference calibration over the
// mean of the two calibrations around it.
func (c calibration) speed() float64 {
	n := len(c)
	return refCalibrationMs / ((c[n-2] + c[n-1]) / 2)
}

func (c calibration) print(w io.Writer) {
	fmt.Fprintf(w, "calibration (fixed CPU work, ms; median %.4g): %v\n", median(c), fmtFloats(c))
}

// spin is a chain of xorshift steps, each indexing a 64 KiB table.
func spin(steps int) uint64 {
	x := calibrationSink | 1
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += calibrationTable[x&8191]
	}
	return x
}

// scaled returns xs[i] × k[i].
func scaled(xs, k []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * k[i]
	}
	return out
}

func sums(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
