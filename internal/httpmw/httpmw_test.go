package httpmw

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"exadigit/internal/obs"
)

// scrape serves reg's exposition, parses it strictly and returns its
// series by ID.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	return e.Series()
}

// registered returns a fresh Metrics attached to a fresh registry under
// server="test".
func registered() (*Metrics, *obs.Registry) {
	reg := obs.NewRegistry()
	m := &Metrics{}
	m.Register(reg, "test")
	return m, reg
}

// requests reads one exadigit_http_requests_total series of server
// "test".
func requests(series map[string]float64, route, code string) float64 {
	return series[obs.ExpoSeries{Name: "exadigit_http_requests_total",
		Labels: map[string]string{"server": "test", "route": route, "code": code}}.ID()]
}

// labelValue reads one single-label series of server "test".
func labelValue(series map[string]float64, name string) float64 {
	return series[obs.ExpoSeries{Name: name, Labels: map[string]string{"server": "test"}}.ID()]
}

func TestWrapRecoversPanicsAndCounts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	var logged []string
	m, reg := registered()
	srv := httptest.NewServer(Wrap(mux, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}, m))
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/ok"); code != http.StatusOK {
		t.Fatalf("/ok = %d", code)
	}
	if code := get("/missing"); code != http.StatusNotFound {
		t.Fatalf("/missing = %d", code)
	}
	// A panicking handler returns 500 to the client instead of killing
	// the connection.
	if code := get("/boom"); code != http.StatusInternalServerError {
		t.Fatalf("/boom = %d", code)
	}

	series := scrape(t, reg)
	if requests(series, "/ok", "2xx") != 1 || requests(series, "/missing", "4xx") != 1 ||
		requests(series, "/boom", "5xx") != 1 || labelValue(series, "exadigit_http_panics_total") != 1 {
		t.Fatalf("series = %v", series)
	}
	if got := labelValue(series, "exadigit_http_request_duration_seconds_count"); got != 3 {
		t.Fatalf("duration count = %v, want 3", got)
	}
	if got := labelValue(series, "exadigit_http_request_duration_seconds_sum"); got <= 0 {
		t.Fatalf("duration sum = %v, want > 0", got)
	}
	if got := labelValue(series, "exadigit_http_in_flight_requests"); got != 0 {
		t.Fatalf("in-flight = %v after requests drained", got)
	}
	if len(logged) != 3 {
		t.Fatalf("logged %d lines: %v", len(logged), logged)
	}
	foundPanic := false
	for _, line := range logged {
		if strings.Contains(line, "panic") && strings.Contains(line, "kaboom") {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Fatalf("panic not logged: %v", logged)
	}
}

// TestMetricsHandler: a request through the wrapped handler shows up in
// the registry's /metrics exposition.
func TestMetricsHandler(t *testing.T) {
	m, reg := registered()
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, m)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := srv.Client().Get(srv.URL + "/"); err != nil {
		t.Fatal(err)
	}
	if got := requests(scrape(t, reg), "/", "2xx"); got != 1 {
		t.Fatalf("/ 2xx series over HTTP = %v, want 1", got)
	}
}

func TestWrapPreservesFlusher(t *testing.T) {
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("middleware dropped http.Flusher — streaming endpoints would stall")
		}
	}), nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := srv.Client().Get(srv.URL); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryLine: the shutdown flush line carries the counters a server
// would otherwise lose at exit.
func TestSummaryLine(t *testing.T) {
	m, reg := registered()
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
		}
	}), nil, m)
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, p := range []string{"/", "/missing"} {
		if _, err := srv.Client().Get(srv.URL + p); err != nil {
			t.Fatal(err)
		}
	}
	sum := m.Summary()
	for _, want := range []string{"requests=2", "2xx=1", "4xx=1", "panics=0"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
	// The line reads the counters the exposition serves.
	series := scrape(t, reg)
	if requests(series, "/", "2xx") != 1 || requests(series, "/missing", "4xx") != 1 {
		t.Errorf("exposition disagrees with summary %q: %v", sum, series)
	}
}

// TestRouteLabel pins the cardinality-bounding normalization: generated
// identifiers collapse to {id}, everything else passes through.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"":                          "/",
		"/":                         "/",
		"/api/sweeps":               "/api/sweeps",
		"/api/sweeps/sw-12":         "/api/sweeps/{id}",
		"/api/sweeps/sw-97/results": "/api/sweeps/{id}/results",
		"/api/sweeps/sw-/results":   "/api/sweeps/sw-/results", // not an id
		// Durable time-prefixed ids: sw-<hex nanos>-<hex suffix>.
		"/api/sweeps/sw-18f3a2b4c5d6e7f8-9abc":        "/api/sweeps/{id}",
		"/api/sweeps/sw-18f3a2b4c5d6e7f8-9abc/stream": "/api/sweeps/{id}/stream",
		"/api/sweeps/sw-NOPE/results":                 "/api/sweeps/sw-NOPE/results", // uppercase: not an id
		"/api/experiments/42":                         "/api/experiments/{id}",
		"/api/run/deadbeefdeadbeef":                   "/api/run/{id}",     // 16 hex chars
		"/api/run/deadbeef":                           "/api/run/deadbeef", // too short for a hash
		"/metrics":                                    "/metrics",
	}
	for path, want := range cases {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestPerRouteSnapshot: the exposition breaks requests down by
// normalized route, and the per-route series sum to the request count.
func TestPerRouteSnapshot(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /api/sweeps", func(w http.ResponseWriter, r *http.Request) {})
	m, reg := registered()
	srv := httptest.NewServer(Wrap(mux, nil, m))
	defer srv.Close()

	for _, p := range []string{"/api/sweeps/sw-1", "/api/sweeps/sw-2", "/api/sweeps", "/nope"} {
		resp, err := srv.Client().Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	series := scrape(t, reg)
	if got := requests(series, "/api/sweeps/{id}", "2xx"); got != 2 {
		t.Fatalf("/api/sweeps/{id} 2xx = %v, want 2", got)
	}
	if got := requests(series, "/api/sweeps", "2xx"); got != 1 {
		t.Fatalf("/api/sweeps 2xx = %v, want 1", got)
	}
	if got := requests(series, "/nope", "4xx"); got != 1 {
		t.Fatalf("/nope 4xx = %v, want 1", got)
	}
	var sum float64
	for id, v := range series {
		if strings.HasPrefix(id, "exadigit_http_requests_total{") {
			sum += v
		}
	}
	if sum != 4 {
		t.Fatalf("route series sum %v != 4 requests", sum)
	}
}

// TestRouteOverflowLandsInOther: the per-route map is bounded; a path
// scan past the cap accumulates under "other" instead of growing the
// exposition's cardinality without bound.
func TestRouteOverflowLandsInOther(t *testing.T) {
	m, reg := registered()
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, m)
	for i := 0; i < maxRoutes+10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/scan/path-%c%d", 'a'+i%26, i), nil))
	}
	series := scrape(t, reg)
	var routes int
	var total float64
	for id, v := range series {
		if strings.HasPrefix(id, "exadigit_http_requests_total{") {
			total += v
			if strings.Contains(id, `code="2xx"`) {
				routes++
			}
		}
	}
	if routes > maxRoutes+1 {
		t.Fatalf("route series grew to %d routes (cap %d + other)", routes, maxRoutes)
	}
	if other := requests(series, "other", "2xx"); other == 0 {
		t.Fatal("overflow routes not folded into other")
	}
	if total != maxRoutes+10 {
		t.Fatalf("total %v, want %d", total, maxRoutes+10)
	}
}

// TestRegisterExposesSeries: two stacks share one family under
// distinct server labels.
func TestRegisterExposesSeries(t *testing.T) {
	reg := obs.NewRegistry()
	ma, mb := &Metrics{}, &Metrics{}
	ma.Register(reg, "sweeps")
	mb.Register(reg, "dashboard")

	ha := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, ma)
	hb := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}), nil, mb)
	for i := 0; i < 3; i++ {
		ha.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/sweeps", nil))
	}
	hb.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/status", nil))

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	series := e.Series()
	get := func(name string, labels map[string]string) float64 {
		return series[obs.ExpoSeries{Name: name, Labels: labels}.ID()]
	}
	if got := get("exadigit_http_requests_total",
		map[string]string{"server": "sweeps", "route": "/api/sweeps", "code": "2xx"}); got != 3 {
		t.Errorf("sweeps 2xx series = %v, want 3", got)
	}
	if got := get("exadigit_http_requests_total",
		map[string]string{"server": "dashboard", "route": "/api/status", "code": "4xx"}); got != 1 {
		t.Errorf("dashboard 4xx series = %v, want 1", got)
	}
	if got := get("exadigit_http_request_duration_seconds_count",
		map[string]string{"server": "sweeps"}); got != 3 {
		t.Errorf("sweeps duration count = %v, want 3", got)
	}
	if got := get("exadigit_http_in_flight_requests",
		map[string]string{"server": "dashboard"}); got != 0 {
		t.Errorf("dashboard in-flight = %v, want 0", got)
	}
}
