package service

// Observability integration suite — the acceptance tests for the
// unified metrics/tracing layer: /metrics scraped mid-sweep parses
// under the strict exposition validator, counters never move backwards
// between scrapes, the JSON snapshot endpoints and the Prometheus
// exposition report identical values (single source of truth), and a
// chaos sweep's lifecycle spans reconcile exactly with the failure
// counters.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// scrapeExposition scrapes the registry through its real HTTP handler
// and runs the result through the strict parser and the naming linter.
func scrapeExposition(t *testing.T, reg *obs.Registry) *obs.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("scrape failed strict validation: %v", err)
	}
	if err := obs.ValidateConventions(e, "exadigit_"); err != nil {
		t.Fatalf("scrape violates naming conventions: %v", err)
	}
	return e
}

// assertMonotone checks that no counter or histogram sample moved
// backwards between two scrapes, and that no series disappeared.
func assertMonotone(t *testing.T, before, after *obs.Exposition) {
	t.Helper()
	av := after.Series()
	for name, f := range before.Families {
		if f.Type == "gauge" {
			continue
		}
		for _, s := range f.Series {
			id := s.ID()
			now, ok := av[id]
			if !ok {
				t.Errorf("series %s disappeared between scrapes", id)
				continue
			}
			if now < s.Value {
				t.Errorf("%s (%s) went backwards: %v -> %v", id, name, s.Value, now)
			}
		}
	}
}

// seriesValue fetches one unlabeled sample from a parsed scrape.
func seriesValue(t *testing.T, e *obs.Exposition, name string) float64 {
	t.Helper()
	v, ok := e.Series()[name+"{}"]
	if !ok {
		t.Fatalf("series %s not in scrape", name)
	}
	return v
}

// opValue reads one exadigit_store_ops_total{op=...} series.
func opValue(t *testing.T, e *obs.Exposition, op string) float64 {
	t.Helper()
	id := obs.ExpoSeries{Name: "exadigit_store_ops_total", Labels: map[string]string{"op": op}}.ID()
	v, ok := e.Series()[id]
	if !ok {
		t.Fatalf("series %s not in scrape", id)
	}
	return v
}

// cacheCounts scrapes the service's registry for the result-cache hit
// and miss (simulation) counters.
func cacheCounts(t *testing.T, svc *Service) (hits, misses float64) {
	t.Helper()
	e := scrapeExposition(t, svc.Registry())
	return seriesValue(t, e, "exadigit_cache_hits_total"), seriesValue(t, e, "exadigit_cache_misses_total")
}

// TestMetricsScrapeDuringMixedPlantSweep is the scrape acceptance test:
// a 32-scenario sweep mixing three cooling-plant variants is scraped
// twice mid-flight and once after completion; every scrape passes the
// strict exposition validator and the naming linter, counters are
// monotone across the three scrapes, and the terminal scrape accounts
// for every scenario span.
func TestMetricsScrapeDuringMixedPlantSweep(t *testing.T) {
	svc := New(Options{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 32
	variants := coolingVariants()
	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		sc := synthScenario(int64(7000+i), 600)
		sc.TickSec = 30
		sc.CoolingSpec = &variants[i%len(variants)] // implies cooling
		scenarios[i] = sc
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "obs-mixed-plant"})
	if err != nil {
		t.Fatal(err)
	}

	// First scrape right after submission, while the pool is saturated.
	e1 := scrapeExposition(t, svc.Registry())

	// Generate some HTTP traffic so the middleware families carry data,
	// then scrape again once part of the sweep has finished — both
	// scrapes land mid-sweep on any machine slower than the pool.
	for _, path := range []string{"/api/sweeps", "/api/sweeps/trace", "/api/sweeps/" + sw.ID()} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := sw.Status()
		if st.Done+st.Cached+st.Failed >= n/4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	e2 := scrapeExposition(t, svc.Registry())
	assertMonotone(t, e1, e2)

	stat := waitSweep(t, sw)
	if stat.Done != n {
		t.Fatalf("mixed-plant sweep status: %+v", stat)
	}
	e3 := scrapeExposition(t, svc.Registry())
	assertMonotone(t, e2, e3)

	// The terminal scrape carries the full accounting.
	for name, want := range map[string]float64{
		"exadigit_trace_spans_total":       n,
		"exadigit_cache_misses_total":      n, // 32 distinct hashes, all computed
		"exadigit_sweep_pending_scenarios": 0,
		"exadigit_sweep_workers":           4,
	} {
		if got := seriesValue(t, e3, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := seriesValue(t, e3, "exadigit_sweep_scenarios_per_second"); got <= 0 {
		t.Errorf("scenarios_per_second = %v, want > 0", got)
	}
	// The middleware families exist with the sweeps server label.
	series := e3.Series()
	reqID := obs.ExpoSeries{Name: "exadigit_http_requests_total",
		Labels: map[string]string{"server": "sweeps", "route": "/api/sweeps", "code": "2xx"}}.ID()
	if series[reqID] < 1 {
		t.Errorf("%s = %v, want >= 1", reqID, series[reqID])
	}
	durID := obs.ExpoSeries{Name: "exadigit_http_request_duration_seconds_count",
		Labels: map[string]string{"server": "sweeps"}}.ID()
	if series[durID] < 3 {
		t.Errorf("%s = %v, want >= 3", durID, series[durID])
	}
}

// TestMetricsJSONMatchesExposition pins the single-source-of-truth
// property on the one metric surface: after a sweep with intra-sweep
// duplicates (cache hits) over a durable store, /metrics carries the
// exact cache, failure and store accounting, and each series equals the
// owner's own count.
func TestMetricsJSONMatchesExposition(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 4, Store: st})

	// 4 distinct scenarios, each submitted twice: the duplicate waiters
	// resolve from the in-memory tier and count as cache hits.
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(100+i%4), 900)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "obs-reconcile"})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Done+stat.Cached != len(scenarios) {
		t.Fatalf("sweep status: %+v", stat)
	}

	e := scrapeExposition(t, svc.Registry())
	_, entries, bytes, _ := svc.cache.stats()
	fm := svc.FailureMetricsSnapshot()
	for name, want := range map[string]float64{
		"exadigit_cache_hits_total":             4,
		"exadigit_cache_misses_total":           4,
		"exadigit_cache_evictions_total":        0,
		"exadigit_cache_entries":                float64(entries),
		"exadigit_cache_bytes":                  float64(bytes),
		"exadigit_sweep_retries_total":          0,
		"exadigit_sweep_panics_recovered_total": 0,
		"exadigit_sweep_timeouts_total":         0,
		"exadigit_sweep_queue_rejections_total": 0,
		"exadigit_sweep_pending_scenarios":      0,
		"exadigit_sweep_max_pending":            float64(fm.MaxPending),
		"exadigit_store_entries":                4,
	} {
		if got := seriesValue(t, e, name); got != want {
			t.Errorf("exposition %s = %v, want %v", name, got, want)
		}
	}
	if entries != 4 || bytes <= 0 {
		t.Errorf("cache holds %d entries / %d bytes, want 4 entries", entries, bytes)
	}
	// Each distinct scenario missed the store once and was put once;
	// every op series equals the store's own count.
	for op, want := range map[string]float64{"hit": 0, "miss": 4, "put": 4, "put_error": 0, "corrupt_quarantined": 0} {
		if got := opValue(t, e, op); got != want {
			t.Errorf("exadigit_store_ops_total{op=%q} = %v, want %v", op, got, want)
		}
	}
	sm := st.Stats()
	for op, want := range map[string]uint64{
		"hit": sm.Hits, "miss": sm.Misses, "put": sm.Puts, "put_error": sm.PutErrors,
		"corrupt_quarantined": sm.CorruptQuarantined, "quarantine_purged": sm.QuarantinePurged,
		"lease_acquired": sm.LeasesAcquired, "lease_wait": sm.LeaseWaits, "lease_steal": sm.LeaseSteals,
		"journal_create": sm.JournalCreates, "journal_append": sm.JournalAppends, "journal_error": sm.JournalErrors,
	} {
		if got := opValue(t, e, op); got != float64(want) {
			t.Errorf("exadigit_store_ops_total{op=%q} = %v, store counts %d", op, got, want)
		}
	}
	if sm.JournalCreates != 1 || sm.JournalAppends == 0 {
		t.Errorf("sweep was not journaled: %+v", sm)
	}
	if got := seriesValue(t, e, "exadigit_store_bytes"); got != float64(sm.Bytes) || got <= 0 {
		t.Errorf("exadigit_store_bytes = %v, store counts %d", got, sm.Bytes)
	}
}

// TestChaosTraceMatchesFailureMetrics reconciles the lifecycle tracer
// against the failure counters over a chaos sweep: every attempt
// outcome recorded in a span corresponds one-to-one with a counter
// increment — timeouts, recovered panics, and retries all match
// FailureMetricsSnapshot exactly — and /api/sweeps/trace serves the
// same spans as NDJSON.
func TestChaosTraceMatchesFailureMetrics(t *testing.T) {
	svc := New(chaosOptions(nil))
	const (
		panicIdx     = 3
		timeoutIdx   = 5
		transientIdx = 7
		permIdx      = 11
		n            = 16
	)
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			switch {
			case f.Index == panicIdx && f.Attempt == 1:
				panic("chaos: injected worker panic")
			case f.Index == timeoutIdx && f.Attempt == 1:
				<-ctx.Done()
				return nil
			case f.Index == transientIdx && f.Attempt <= 2:
				return errors.New("chaos: injected transient failure")
			case f.Index == permIdx:
				return errors.New("chaos: injected permanent failure")
			}
			return nil
		},
	})

	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(5000+i), 900)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{
		Name:            "obs-chaos",
		ScenarioTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Done != n-1 || stat.Failed != 1 {
		t.Fatalf("chaos sweep status: %+v", stat)
	}

	spans := svc.Tracer().Snapshot()
	if len(spans) != n {
		t.Fatalf("tracer holds %d spans, want %d", len(spans), n)
	}
	if got := svc.Tracer().Total(); got != n {
		t.Fatalf("tracer total = %d, want %d", got, n)
	}

	// Reconcile attempt outcomes against the counters. Retries is the
	// number of non-first attempts; each injected timeout and recovered
	// panic leaves exactly one attempt span with that outcome.
	var timeouts, panics, retries uint64
	byIndex := make(map[int]obs.Span, n)
	for _, sp := range spans {
		if sp.Sweep != sw.ID() {
			t.Fatalf("span for foreign sweep %s", sp.Sweep)
		}
		byIndex[sp.Index] = sp
		if len(sp.Attempts) > 0 {
			retries += uint64(len(sp.Attempts) - 1)
		}
		for i, a := range sp.Attempts {
			if a.Attempt != i+1 {
				t.Errorf("scenario %d attempt %d numbered %d", sp.Index, i+1, a.Attempt)
			}
			switch a.Outcome {
			case "timeout":
				timeouts++
			case "panic":
				panics++
			case "ok", "error":
			default:
				t.Errorf("scenario %d: unexpected outcome %q", sp.Index, a.Outcome)
			}
		}
	}
	fm := svc.FailureMetricsSnapshot()
	if timeouts != fm.Timeouts {
		t.Errorf("span timeout outcomes = %d, counter says %d", timeouts, fm.Timeouts)
	}
	if panics != fm.PanicsRecovered {
		t.Errorf("span panic outcomes = %d, counter says %d", panics, fm.PanicsRecovered)
	}
	if retries != fm.Retries {
		t.Errorf("span retries = %d, counter says %d", retries, fm.Retries)
	}

	// The injected scenarios carry the expected attempt timelines.
	checks := []struct {
		idx      int
		state    string
		outcomes []string
	}{
		{panicIdx, "done", []string{"panic", "ok"}},
		{timeoutIdx, "done", []string{"timeout", "ok"}},
		{transientIdx, "done", []string{"error", "error", "ok"}},
		{permIdx, "failed", []string{"error", "error", "error"}},
	}
	for _, c := range checks {
		sp := byIndex[c.idx]
		if sp.State != c.state {
			t.Errorf("scenario %d state %q, want %q", c.idx, sp.State, c.state)
		}
		if len(sp.Attempts) != len(c.outcomes) {
			t.Errorf("scenario %d has %d attempt spans, want %d", c.idx, len(sp.Attempts), len(c.outcomes))
			continue
		}
		for i, want := range c.outcomes {
			if got := sp.Attempts[i].Outcome; got != want {
				t.Errorf("scenario %d attempt %d outcome %q, want %q", c.idx, i+1, got, want)
			}
			if want != "ok" && sp.Attempts[i].Error == "" {
				t.Errorf("scenario %d attempt %d: failed outcome lacks error text", c.idx, i+1)
			}
		}
	}
	if sp := byIndex[permIdx]; sp.Error == "" || sp.CacheTier != "none" {
		t.Errorf("permanent-failure span = %+v, want error text and tier none", sp)
	}
	if sp := byIndex[0]; sp.CacheTier != "compute" || sp.TotalSec <= 0 {
		t.Errorf("computed span = %+v, want tier compute and positive total", sp)
	}

	// The NDJSON endpoint serves the same spans.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sweeps/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/api/sweeps/trace status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var served []obs.Span
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("trace line does not parse: %v", err)
		}
		served = append(served, sp)
	}
	if len(served) != n {
		t.Fatalf("trace endpoint served %d spans, want %d", len(served), n)
	}
	for i, sp := range served {
		if sp.Index != spans[i].Index || sp.ScenarioHash != spans[i].ScenarioHash ||
			sp.State != spans[i].State || len(sp.Attempts) != len(spans[i].Attempts) {
			t.Fatalf("trace line %d = %+v, snapshot has %+v", i, sp, spans[i])
		}
	}

	// ?limit=N trims to the most recent spans.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sweeps/trace?limit=5", nil))
	if got := strings.Count(rec.Body.String(), "\n"); got != 5 {
		t.Errorf("trace?limit=5 served %d spans", got)
	}
}
