package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/optimize"
	"exadigit/internal/service"
	"exadigit/internal/store"
	"exadigit/internal/surrogate"
)

// studyKnobs is the search space of every study: the workload mix knobs
// BenchmarkOptimize searches.
var studyKnobs = []optimize.Knob{
	{Name: "workload.arrival_mean_sec", Min: 30, Max: 300, Step: 0.5},
	{Name: "workload.wall_mean_sec", Min: 300, Max: 3600, Step: 10},
}

// studySpec is an energy-minimisation study with the surrogate on,
// sized like BenchmarkOptimize's surrogate arm so the conformal gate
// opens and candidates get screened. Most studies need 40 to 160 twin
// evaluations; the budget trims the rare study whose gate never opens
// (over 400), which would otherwise take a third of a run. small
// shrinks the study for the layer probes of other workloads.
func studySpec(seed int64, small bool) optimize.StudySpec {
	sp := optimize.StudySpec{
		Knobs:        studyKnobs,
		Objectives:   []optimize.Objective{{Metric: "energy_mwh"}},
		Population:   384,
		Generations:  8,
		InitSample:   16,
		PromoteTopK:  2,
		MaxTwinEvals: 128,
		Seed:         seed,
	}
	if small {
		sp.Population, sp.Generations = 96, 4
	}
	return sp
}

// studyInst is the co-design workload: one client submits a study to a
// SweepService (local pool, Workers = nproc), waits for its result, and
// submits the next; every study has its own seed and base workload.
// The service keeps results in memory only: persisting each of a
// study's hundred-odd twin evaluations would make study time track the
// host disk's fsync latency. Set-up still leaves an interrupted sweep in
// a durable store, for the restart measurement.
type studyInst struct {
	e      *env
	dir    string
	small  bool
	svc    *service.Service
	twin   *core.Twin
	it     *interruptedSweep
	seeds  *seedStream
	next   int
	golden []float64
	first  *optimize.StudyResult // the run's first study, for exact counts
}

func setupStudy(e *env, dir string) (instance, error) { return newStudy(e, dir, false) }

func newStudy(e *env, dir string, small bool) (*studyInst, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cs, err := core.Compile(e.spec)
	if err != nil {
		return nil, err
	}
	s := &studyInst{
		e: e, dir: dir, small: small,
		svc:   service.New(service.Options{Workers: e.workers}),
		twin:  cs.Twin(),
		seeds: newSeedStream(e.seed, "co-design-study"),
	}
	if e.checked && !small {
		s.golden = e.golden.StudyBest
	}
	restart := newSeedStream(e.seed, "co-design-study/restart")
	family := make([]core.Scenario, 4*e.workers)
	for i := range family {
		family[i] = restartWindow(restart.next())
	}
	if s.it, err = leaveInterrupted(context.Background(), e, st, family, len(family)/2); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *studyInst) run(ctx context.Context, until time.Time, tr *tracer, rec *recorder) {
	for time.Now().Before(until) {
		i := s.next
		s.next++
		spec := studySpec(s.seeds.next(), s.small)
		base := studyBase(s.seeds.next())
		t0 := time.Now()
		id, end := tr.begin("optimize.study", 0)
		res, err := s.study(ctx, spec, base)
		end()
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = s.check(ctx, i, spec, base, res, tr, id)
		}
		if err != nil {
			rec.op(lat, 0, fmt.Errorf("study %d: %w", i, err))
			continue
		}
		if s.first == nil {
			s.first = res
		}
		rec.op(lat, float64(res.TwinEvals)*base.HorizonSec, nil)
	}
}

func (s *studyInst) study(ctx context.Context, spec optimize.StudySpec, base core.Scenario) (*optimize.StudyResult, error) {
	st, err := s.svc.SubmitStudy(s.e.spec, base, spec, service.StudyOptions{Name: "co-design"})
	if err != nil {
		return nil, err
	}
	if err := st.Wait(ctx); err != nil {
		return nil, err
	}
	if status := st.Status(); status.State != service.StudyDone {
		return nil, fmt.Errorf("state %s: %s", status.State, status.Error)
	}
	res := st.Result()
	if res == nil || res.Best == nil {
		return nil, fmt.Errorf("no feasible best candidate")
	}
	return res, nil
}

// check re-runs the best candidate on the twin: its energy must be
// twin-exact. On the default seed it must also be no worse than the
// golden best, so a faster search that finds worse designs fails.
func (s *studyInst) check(ctx context.Context, i int, spec optimize.StudySpec, base core.Scenario, res *optimize.StudyResult, tr *tracer, parent int64) error {
	_, end := tr.begin("check", parent)
	defer end()
	space, err := optimize.NewSpace(spec.Knobs, s.e.spec.Cooling)
	if err != nil {
		return err
	}
	sc, err := space.Apply(base, s.e.spec.Cooling, res.Best.Vector)
	if err != nil {
		return err
	}
	out, err := s.twin.RunContext(ctx, sc)
	if err != nil {
		return err
	}
	best := res.Best.Objectives["energy_mwh"]
	if math.Float64bits(out.Report.EnergyMWh) != math.Float64bits(best) {
		return fmt.Errorf("best energy %v MWh, twin re-run %v MWh", best, out.Report.EnergyMWh)
	}
	if err := checkPhysical(out.Report, false); err != nil {
		return err
	}
	if i < len(s.golden) && best > s.golden[i] {
		return fmt.Errorf("best energy %v MWh is worse than the golden %v MWh", best, s.golden[i])
	}
	return nil
}

func (s *studyInst) interrupted() *interruptedSweep { return s.it }
func (s *studyInst) storeDir() string               { return s.dir }

func (s *studyInst) layers(l *layerSet, from time.Time, tr *tracer) {
	spanLayers(l, from, s.svc, []*service.Service{s.svc})
	res := s.first
	if res == nil || l.has("optimize.twin_evals") {
		return
	}
	l.count("optimize.twin_evals", float64(res.TwinEvals))
	l.count("optimize.screened", float64(res.Screened))
	l.count("optimize.fallbacks", float64(res.Fallbacks))
	l.count("optimize.cached_evals", float64(res.CachedEvals))
	l.set("surrogate.screen_frac", float64(res.Screened)/float64(res.Screened+res.TwinEvals), res.Screened+res.TwinEvals)

	// The study's own surrogate, refitted on its evaluated candidates.
	var X, Y [][]float64
	for _, c := range res.Evaluated {
		if v, ok := c.Objectives["energy_mwh"]; ok {
			X = append(X, c.Vector)
			Y = append(Y, []float64{v})
		}
	}
	lo, hi := make([]float64, len(studyKnobs)), make([]float64, len(studyKnobs))
	for i, k := range studyKnobs {
		lo[i], hi[i] = k.Min, k.Max
	}
	m, err := surrogate.NewModel(lo, hi, []string{"energy_mwh"}, 0)
	if err != nil || len(X) < m.MinTrainRows() {
		return
	}
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		if err := m.Fit(X, Y); err != nil {
			return
		}
		l.sample("surrogate.fit_ms", "ms", 1, time.Since(t0).Seconds())
	}
	for rep := 0; rep < 10; rep++ {
		t0 := time.Now()
		for _, x := range X {
			if _, err := m.Predict(x); err != nil {
				return
			}
		}
		l.sample("surrogate.predict_us", "us", len(X), time.Since(t0).Seconds()/float64(len(X)))
	}
}

func (s *studyInst) close() { shutdown(s.svc) }
