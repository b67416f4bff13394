// Command twinbench is the repository's end-to-end benchmark. It runs
// one named workload against the twin and its sweep service from a
// single process, checks every output it receives, and prints one JSON
// result line last:
//
//	bash twinbench/run.sh --workload cold-replay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the workload runs twice, untraced and
// then traced, and the result carries the per-layer metrics; the
// traced-minus-untraced difference of each end-to-end metric is printed
// as the tracing overhead. See README.md for the workloads, metrics and
// how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
)

// Set-up and restart are short next to a timed phase, so each run
// repeats them, at least minReps times and more, up to maxReps, while
// their budget lasts, and reports the median.
const (
	minReps       = 3
	maxReps       = 25
	setupBudget   = 4 * time.Second
	restartBudget = 2 * time.Second
)

// repeatAgain reports whether a measurement repeated done times, taking
// spent in all, should run once more.
func repeatAgain(done int, spent, budget time.Duration) bool {
	return done < minReps || (done < maxReps && spent < budget)
}

// env is what every workload shares within one run.
type env struct {
	seed    int64
	workers int // simulation workers and clients: never more than nproc
	spec    config.SystemSpec
	golden  goldenFile
	checked bool // the default seed: compare against golden.json
	traced  bool // the run times an untraced and then a traced phase
}

// instance is one set-up workload, ready to be timed.
type instance interface {
	// run drives the workload's closed loop until the deadline. tr is
	// nil for the untraced run.
	run(ctx context.Context, until time.Time, tr *tracer, rec *recorder)
	// interrupted is the sweep set-up left half-journaled in the store
	// at storeDir, for the restart measurement.
	interrupted() *interruptedSweep
	storeDir() string
	// layers fills the per-layer metrics only this workload's traffic
	// can produce; spans are those its services recorded since from.
	layers(l *layerSet, from time.Time, tr *tracer)
	close()
}

type workloadDef struct {
	name  string
	setup func(e *env, dir string) (instance, error)
}

var workloads = []workloadDef{
	{"cold-replay", setupColdReplay},
	{"cooled-plant", setupCooledPlant},
	{"serve-mix", setupServeMix},
	{"co-design-study", setupStudy},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// recorder accumulates one timed phase's operations. An operation is
// one client request: a sweep, an HTTP sweep request or a study.
type recorder struct {
	mu        sync.Mutex
	start     time.Time
	end       time.Time
	attempted int
	failed    int
	latSec    []float64
	simSec    float64
	problems  []string
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// op records one operation that took latSec; a non-nil err marks it
// failed (refused, errored, or an output check that did not hold). A
// failed operation still counts in the timings when it took time, so a
// run whose checks all fail still reports its metrics, with correct
// false.
func (r *recorder) op(latSec, simSec float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, err.Error())
		}
	}
	if latSec > 0 {
		r.latSec = append(r.latSec, latSec)
		r.simSec += simSec
	}
}

func (r *recorder) finish() { r.end = time.Now() }

// e2e is one phase's end-to-end metrics.
type e2e struct {
	setupS, simPerS, reqPerS, p50Ms, tailMs, tailPct, restartS, rssMB float64
	requests                                                          int
}

func (r *recorder) metrics() e2e {
	host := r.end.Sub(r.start).Seconds()
	tail, pct := tailPercentile(r.latSec)
	return e2e{
		simPerS:  r.simSec / host,
		reqPerS:  float64(len(r.latSec)) / host,
		p50Ms:    median(r.latSec) * 1e3,
		tailMs:   tail * 1e3,
		tailPct:  pct,
		requests: len(r.latSec),
	}
}

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

func main() { os.Exit(run()) }

func run() int {
	processStart := time.Now()
	var (
		name        = flag.String("workload", "", "workload: cold-replay, cooled-plant, serve-mix or co-design-study")
		seed        = flag.Int64("seed", defaultSeed, "workload seed")
		seconds     = flag.Float64("seconds", 10, "seconds one timed phase measures")
		traceFlag   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		writeGolden = flag.String("write-golden", "", "regenerate the default-seed golden digests into this file and exit")
	)
	flag.Parse()
	if *writeGolden != "" {
		if err := regenerateGolden(*writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "twinbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "twinbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twinbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "twinbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "twinbench:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		workers: runtime.NumCPU(),
		spec:    config.Frontier(),
		golden:  g,
		checked: *seed == defaultSeed,
		traced:  *traceFlag == 1,
	}
	work := filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)
	res, err := runWorkload(e, wl, work, time.Duration(*seconds*float64(time.Second)), processStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twinbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twinbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func runWorkload(e *env, wl workloadDef, work string, d time.Duration, processStart time.Time) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	layers := newLayerSet()

	// Set-up, several times from scratch; the last instance is timed.
	// The first repetition also carries process start-up. Model builds
	// are counted from the start of the last repetition, so the count
	// does not depend on how many repetitions the budget allowed.
	var setups []float64
	var inst instance
	var builds0 uint64
	setupStart := processStart
	for i := 0; ; i++ {
		dir := filepath.Join(work, "setup-"+strconv.Itoa(i))
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		builds0 = config.ModelBuilds() + fmu.DescriptionBuilds()
		if err := timedCompile(e, layers); err != nil {
			return nil, err
		}
		in, err := wl.setup(e, dir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !repeatAgain(len(setups), time.Since(setupStart), setupBudget) {
			inst = in
			break
		}
		in.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer inst.close()

	ctx := context.Background()
	restartRec := newRecorder()
	restartStart := time.Now()
	for i := 0; repeatAgain(restartRec.attempted, time.Since(restartStart), restartBudget); i++ {
		sec, err := measureRestart(ctx, e, inst.storeDir(), filepath.Join(work, "restart-"+strconv.Itoa(i)), inst.interrupted(), layers)
		restartRec.op(sec, 0, err)
	}

	untraced := newRecorder()
	inst.run(ctx, time.Now().Add(d), nil, untraced)
	untraced.finish()
	base := untraced.metrics()
	base.setupS = median(setups)
	base.restartS = median(restartRec.latSec)
	base.rssMB = peakRSSMB()

	attempted := untraced.attempted + restartRec.attempted
	failed := untraced.failed + restartRec.failed
	problems := append(untraced.problems, restartRec.problems...)

	res := &result{}
	if !e.traced {
		printE2E("untraced", base)
		res.Metrics = e2eMetrics(base)
	} else {
		tr := newTracer()
		from := time.Now()
		tracedRec := newRecorder()
		inst.run(ctx, time.Now().Add(d), tr, tracedRec)
		tracedRec.finish()
		withTrace := tracedRec.metrics()
		withTrace.setupS, withTrace.restartS = base.setupS, base.restartS
		withTrace.rssMB = peakRSSMB()
		printE2E("untraced", base)
		printE2E("traced", withTrace)
		printOverhead(base, withTrace)
		attempted += tracedRec.attempted
		failed += tracedRec.failed
		problems = append(problems, tracedRec.problems...)

		// Model and FMU description builds of set-up and both phases;
		// the probes below build their own.
		layers.count("core.model_builds", float64(config.ModelBuilds()+fmu.DescriptionBuilds()-builds0))
		inst.layers(layers, from, tr)
		probeRec := newRecorder()
		probeLayers(ctx, e, wl.name, work, inst, layers, tr, probeRec)
		for _, name := range layers.missing() {
			probeRec.op(0, 0, fmt.Errorf("per-layer metric %s was not measured", name))
		}
		attempted += probeRec.attempted
		failed += probeRec.failed
		problems = append(problems, probeRec.problems...)
		if err := tr.writeNDJSON(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.ndjson", wl.name, e.seed))); err != nil {
			return nil, err
		}
		res.Metrics = layers.metrics()
		layers.print()
	}
	for _, p := range problems {
		fmt.Println("check failed:", p)
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	if attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// timedCompile times core.Compile plus the build of the spec's power
// models, the lazily built artifacts every sweep shares.
func timedCompile(e *env, l *layerSet) error {
	t0 := time.Now()
	cs, err := core.Compile(e.spec)
	if err != nil {
		return err
	}
	if _, err := cs.Models(""); err != nil {
		return err
	}
	l.sample("core.compile_s", "s", 1, time.Since(t0).Seconds())
	return nil
}

// e2eNames lists the end-to-end metrics in BENCHMARK.json order.
var e2eNames = []string{"setup_s", "sim_s_per_s", "req_per_s", "req_p50_ms", "req_tail_ms", "restart_s", "peak_rss_mb"}

func e2eMetrics(m e2e) map[string]metric {
	return map[string]metric{
		"setup_s":     {m.setupS, "s"},
		"sim_s_per_s": {m.simPerS, "sim_s/s"},
		"req_per_s":   {m.reqPerS, "1/s"},
		"req_p50_ms":  {m.p50Ms, "ms"},
		"req_tail_ms": {m.tailMs, "ms"},
		"restart_s":   {m.restartS, "s"},
		"peak_rss_mb": {m.rssMB, "MB"},
	}
}

func printE2E(label string, m e2e) {
	fmt.Printf("%s: %d requests, tail is p%g\n", label, m.requests, m.tailPct)
	ms := e2eMetrics(m)
	for _, n := range e2eNames {
		fmt.Printf("  %-12s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printOverhead(untraced, traced e2e) {
	a, b := e2eMetrics(untraced), e2eMetrics(traced)
	fmt.Println("tracing overhead (traced - untraced):")
	for _, n := range e2eNames {
		d := b[n].Value - a[n].Value
		rel := math.NaN()
		if a[n].Value != 0 {
			rel = 100 * d / a[n].Value
		}
		fmt.Printf("  %-12s %+14.6g %s (%+.1f %%)\n", n, d, a[n].Unit, rel)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
