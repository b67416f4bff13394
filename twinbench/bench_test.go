package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"exadigit/internal/core"
	"exadigit/internal/service"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		wantPct  float64
		wantRank int // 1-based rank of the reported value
	}{
		{10000, 99, 9900},
		{1000, 99, 990},
		{999, 98, 980},
		{100, 90, 90},
		{31, 67, 21},
		{11, 9, 1},
		{10, 100, 10},
		{1, 100, 1},
	} {
		v, pct := tailPercentile(ramp(tc.n))
		if pct != tc.wantPct || v != float64(tc.wantRank) {
			t.Errorf("n=%d: got p%g = %g, want p%g = %d", tc.n, pct, v, tc.wantPct, tc.wantRank)
		}
		if pct < 100 {
			beyond := tc.n - int(v)
			if beyond < tailMinBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, pct)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

// hashes returns the content hashes of the first n scenarios next
// yields.
func hashes(t *testing.T, n int, next func(i int) core.Scenario) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		h, err := service.HashScenario(next(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

func TestScenarioStreamsAreSeedDeterministic(t *testing.T) {
	streams := map[string]func(seed int64) func(i int) core.Scenario{
		"cold-replay": func(seed int64) func(int) core.Scenario {
			s := newSeedStream(seed, "cold-replay")
			return func(int) core.Scenario { return uncooledDay(s.next()) }
		},
		"cooled-plant": func(seed int64) func(int) core.Scenario {
			s := newSeedStream(seed, "cooled-plant")
			return func(i int) core.Scenario { return cooledWindow(s.next(), i) }
		},
		"serve-mix": func(seed int64) func(int) core.Scenario {
			s := newSeedStream(seed, "serve-mix/keys")
			return func(int) core.Scenario { return serveScenario(s.next()) }
		},
		"co-design-study": func(seed int64) func(int) core.Scenario {
			s := newSeedStream(seed, "co-design-study")
			return func(int) core.Scenario { s.next(); return studyBase(s.next()) }
		},
	}
	for name, mk := range streams {
		a, b, c := hashes(t, 8, mk(defaultSeed)), hashes(t, 8, mk(defaultSeed)), hashes(t, 8, mk(heldOutSeed))
		seen := map[string]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: scenario %d differs between two streams of one seed", name, i)
			}
			if a[i] == c[i] {
				t.Errorf("%s: scenario %d is the same under the default and held-out seeds", name, i)
			}
			if seen[a[i]] {
				t.Errorf("%s: scenario %d repeats an earlier key", name, i)
			}
			seen[a[i]] = true
		}
	}
}

func TestServeKeyStreamIsSeedDeterministic(t *testing.T) {
	kinds := func(seed int64) []int {
		rng := stream(seed, "serve-mix/client-0")
		out := make([]int, 2000)
		for i := range out {
			out[i] = keyDraw(rng)
			rng.Intn(memoryKeys)
		}
		return out
	}
	a, b := kinds(defaultSeed), kinds(defaultSeed)
	count := [3]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between two streams of one seed", i)
		}
		count[a[i]]++
	}
	// Mostly memory, some disk, a minority new.
	if !(count[keyMemory] > count[keyNew] && count[keyNew] > 0 && count[keyDisk] > 0) {
		t.Errorf("key mix memory/disk/new = %v", count)
	}
	c := kinds(heldOutSeed)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("the held-out seed draws the same key kinds")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the grammar [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	// BENCHMARK.json may leave out a twinbench workload (serve-mix), but
	// every workload it names must be one of twinbench's.
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not one of twinbench's", w.Name)
		}
	}
	units := e2eMetrics(e2e{})
	if len(b.EndToEnd) != len(e2eNames) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, twinbench %d", len(b.EndToEnd), len(e2eNames))
	}
	for i, m := range b.EndToEnd {
		checkName("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the grammar", m.Unit)
		}
		if i >= len(e2eNames) || e2eNames[i] != m.Name || units[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end metric %q (%s) is not twinbench's", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
	}
	if len(b.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, twinbench %d", len(b.PerLayer), len(layerNames))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the grammar", m.Unit)
		}
		if i >= len(layerNames) || layerNames[i].name != m.Name || layerNames[i].unit != m.Unit {
			t.Errorf("per-layer metric %q (%s) is not twinbench's", m.Name, m.Unit)
		}
	}
}
