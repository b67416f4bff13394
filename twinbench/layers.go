package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"exadigit/internal/obs"
	"exadigit/internal/service"
)

// layerNames lists every per-layer metric in BENCHMARK.json order, with
// its unit. Layers are named by module.
var layerNames = []struct{ name, unit string }{
	{"core.compile_s", "s"},
	{"core.model_builds", "count"},
	{"core.run_s", "s"},
	{"raps.quiet_tick_frac", "ratio"},
	{"power.set_nodes_us", "us"},
	{"power.compute_delta_us", "us"},
	{"power.calls_per_sim_h", "1/sim_h"},
	{"sched.schedule_us", "us"},
	{"sched.calls_per_sim_h", "1/sim_h"},
	{"cooling.step_fixed_ms", "ms"},
	{"cooling.step_adaptive_ms", "ms"},
	{"cooling.accepted_per_sim_h", "1/sim_h"},
	{"cooling.rejected_per_sim_h", "1/sim_h"},
	{"cooling.quiescent_frac", "ratio"},
	{"thermal.ua_ns", "ns"},
	{"telemetry.encode_mb_s", "MB/s"},
	{"store.put_ms", "ms"},
	{"store.entry_kb", "KB"},
	{"store.get_ms", "ms"},
	{"store.open_s", "s"},
	{"store.journal_create_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"store.lease_ms", "ms"},
	{"service.queue_s", "s"},
	{"service.tier_memory_frac", "ratio"},
	{"service.tier_disk_frac", "ratio"},
	{"service.tier_compute_frac", "ratio"},
	{"service.hash_us", "us"},
	{"service.recover_s", "s"},
	{"service.retries", "count"},
	{"httpmw.submit_ms", "ms"},
	{"httpmw.result_ms", "ms"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.dispatch_overhead_ms", "ms"},
	{"obs.scrape_ms", "ms"},
	{"optimize.twin_evals", "count"},
	{"optimize.screened", "count"},
	{"optimize.fallbacks", "count"},
	{"optimize.cached_evals", "count"},
	{"surrogate.screen_frac", "ratio"},
	{"surrogate.fit_ms", "ms"},
	{"surrogate.predict_us", "us"},
}

// layerSet collects the per-layer metrics of one run. A timing is the
// median over the calls made, reported with the call count; a count or
// ratio is reported as measured, with the number of events behind it.
// The first source to set a metric wins: a workload's own traffic
// before the probes that stand in for layers it does not exercise.
type layerSet struct {
	mu sync.Mutex
	m  map[string]*layerEntry
}

// layerEntry is one metric: timing samples in the metric's unit with
// the calls they cover, or a single value over n events.
type layerEntry struct {
	samples []float64
	calls   int
	value   float64
	n       int
	isValue bool
}

func newLayerSet() *layerSet { return &layerSet{m: map[string]*layerEntry{}} }

// entry returns the metric's entry, creating it; l.mu must be held.
func (l *layerSet) entry(name string) *layerEntry {
	e := l.m[name]
	if e == nil {
		e = &layerEntry{}
		l.m[name] = e
	}
	return e
}

// unitScale converts seconds to the metric's unit.
func unitScale(unit string) float64 {
	switch unit {
	case "ms":
		return 1e3
	case "us":
		return 1e6
	case "ns":
		return 1e9
	}
	return 1
}

// sample adds per-call timings, given in seconds, each covering calls
// calls.
func (l *layerSet) sample(name, unit string, calls int, secs ...float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(name)
	for _, s := range secs {
		e.samples = append(e.samples, s*unitScale(unit))
	}
	e.calls += calls * len(secs)
}

// has reports whether a metric already has a value.
func (l *layerSet) has(name string) bool {
	_, _, ok := l.get(name)
	return ok
}

// set records a count or ratio over n events, unless already set.
func (l *layerSet) set(name string, v float64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entry(name); !e.isValue {
		e.value, e.n, e.isValue = v, n, true
	}
}

// count records an exact count.
func (l *layerSet) count(name string, v float64) { l.set(name, v, int(v)) }

// fromTracer takes the durations of the tracer's spans named span as the
// metric's samples, unless the metric already has some.
func (l *layerSet) fromTracer(tr *tracer, span, name, unit string) {
	if tr != nil && !l.has(name) {
		l.sample(name, unit, 1, tr.durations(span)...)
	}
}

// get returns a metric's value and its event or call count.
func (l *layerSet) get(name string) (float64, int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e := l.m[name]; {
	case e == nil:
		return 0, 0, false
	case len(e.samples) > 0:
		return median(e.samples), e.calls, true
	default:
		return e.value, e.n, e.isValue
	}
}

func (l *layerSet) metrics() map[string]metric {
	out := map[string]metric{}
	for _, ln := range layerNames {
		v, _, ok := l.get(ln.name)
		if !ok {
			v = math.NaN()
		}
		out[ln.name] = metric{v, ln.unit}
	}
	return out
}

// missing lists the per-layer metrics no source measured.
func (l *layerSet) missing() []string {
	var out []string
	for _, ln := range layerNames {
		if _, _, ok := l.get(ln.name); !ok {
			out = append(out, ln.name)
		}
	}
	return out
}

func (l *layerSet) print() {
	fmt.Println("per-layer metrics (median over n calls, or value over n events):")
	for _, ln := range layerNames {
		v, n, ok := l.get(ln.name)
		if !ok {
			fmt.Printf("  %-30s %14s\n", ln.name, "not measured")
			continue
		}
		fmt.Printf("  %-30s %14.6g %-8s n=%d\n", ln.name, v, ln.unit, n)
	}
}

// spanLayers reads the per-scenario lifecycle spans the services
// emitted since from: front resolves and queues scenarios (cache tiers,
// queue wait), compute runs and persists them.
func spanLayers(l *layerSet, from time.Time, front *service.Service, compute []*service.Service) {
	if !l.has("service.tier_compute_frac") {
		tiers := map[string]int{}
		var queue []float64
		for _, sp := range spansSince(front, from) {
			if sp.State == "done" || sp.State == "cached" {
				tiers[sp.CacheTier]++
				queue = append(queue, sp.QueueSec)
			}
		}
		if total := len(queue); total > 0 {
			l.set("service.tier_memory_frac", float64(tiers["memory"])/float64(total), total)
			l.set("service.tier_disk_frac", float64(tiers["disk"])/float64(total), total)
			l.set("service.tier_compute_frac", float64(tiers["compute"])/float64(total), total)
			l.sample("service.queue_s", "s", 1, queue...)
		}
	}
	var run, put []float64
	retries := uint64(0)
	for _, svc := range append([]*service.Service{front}, compute...) {
		retries += svc.FailureMetricsSnapshot().Retries
	}
	for _, svc := range compute {
		for _, sp := range spansSince(svc, from) {
			for _, a := range sp.Attempts {
				if a.Outcome == "ok" {
					run = append(run, a.RunSec)
				}
			}
			if sp.StoreWriteSec > 0 {
				put = append(put, sp.StoreWriteSec)
			}
		}
	}
	if !l.has("core.run_s") {
		l.sample("core.run_s", "s", 1, run...)
	}
	if !l.has("store.put_ms") {
		l.sample("store.put_ms", "ms", 1, put...)
	}
	l.count("service.retries", float64(retries))
}

func spansSince(svc *service.Service, from time.Time) []obs.Span {
	var out []obs.Span
	for _, sp := range svc.Tracer().Snapshot() {
		if !sp.Time.Before(from) {
			out = append(out, sp)
		}
	}
	return out
}
