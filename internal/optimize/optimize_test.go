package optimize

import (
	"context"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/core"
	"exadigit/internal/raps"
)

// These tests run setpoint studies: a StudySpec over the two plant
// setpoint knobs, scored by plantEval on a settled Frontier plant.

const (
	ctKnob  = "cooling.ct_supply_set_c"
	hdrKnob = "cooling.htw_header_set_pa"
)

// plantEval scores a candidate the way a steady-state setpoint study
// does: the Frontier plant with the candidate's setpoints, settled at
// one operating point. The report carries the IT load and the settled
// PUE, so the aux_mw metric, IT·(PUE−1), is the plant's auxiliary power.
type plantEval struct {
	heatMW, wetBulbC float64
}

func (e plantEval) Evaluate(_ context.Context, _ int, scs []core.Scenario) ([]Outcome, error) {
	outs := make([]Outcome, len(scs))
	for i, sc := range scs {
		cfg := cooling.Frontier()
		if cs := sc.CoolingSpec; cs != nil {
			if cs.CTSupplySetC != 0 {
				cfg.CTSupplySetC = cs.CTSupplySetC
			}
			if cs.HTWHeaderSetPa != 0 {
				cfg.HTWHeaderSetPa = cs.HTWHeaderSetPa
			}
		}
		plant, err := cooling.New(cfg)
		if err != nil {
			return nil, err
		}
		heat := make([]float64, cfg.NumCDUs)
		for j := range heat {
			heat[j] = e.heatMW * 1e6 / float64(cfg.NumCDUs)
		}
		itMW := e.heatMW / 0.945
		in := cooling.Inputs{CDUHeatW: heat, WetBulbC: e.wetBulbC, ITPowerW: itMW * 1e6}
		if err := plant.SettleToSteadyState(in, 2*3600); err != nil {
			outs[i] = Outcome{Err: err.Error()}
			continue
		}
		outs[i] = Outcome{Report: &raps.Report{AvgPowerMW: itMW, AvgPUE: plant.PUE()}}
	}
	return outs, nil
}

// setpointSearch runs a surrogate-free setpoint study: every candidate
// is scored on the plant.
func setpointSearch(t *testing.T, eval Evaluator, knobs []Knob, cons []Constraint) *StudyResult {
	t.Helper()
	d, err := NewDriver(StudySpec{
		Knobs:            knobs,
		Objectives:       []Objective{{Metric: "aux_mw", Weight: 1}},
		Constraints:      cons,
		Population:       8,
		Generations:      3,
		Seed:             1,
		DisableSurrogate: true,
	}, core.Scenario{Name: "setpoints"}, config.CoolingSpec{Preset: "frontier"}, eval, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func ptr(v float64) *float64 { return &v }

// TestRunValidation: a setpoint study that cannot run is rejected
// before anything is evaluated.
func TestRunValidation(t *testing.T) {
	eval := plantEval{heatMW: 10, wetBulbC: 12}
	base, plant := core.Scenario{}, config.CoolingSpec{Preset: "frontier"}
	ct := Knob{Name: ctKnob, Min: 20, Max: 26}
	for name, spec := range map[string]StudySpec{
		"no knobs":       {},
		"empty ct range": {Knobs: []Knob{{Name: ctKnob, Min: 24, Max: 24}}},
		"header twice":   {Knobs: []Knob{{Name: hdrKnob, Min: 1e5, Max: 2e5}, {Name: hdrKnob, Min: 1e5, Max: 2e5}}},
		"unknown metric": {Knobs: []Knob{ct}, Objectives: []Objective{{Metric: "sec_supply_c"}}},
	} {
		if _, err := NewDriver(spec, base, plant, eval, Hooks{}, nil); err == nil {
			t.Errorf("%s: study should be rejected", name)
		}
	}
	if _, err := NewDriver(StudySpec{Knobs: []Knob{ct}}, base, plant, nil, Hooks{}, nil); err == nil {
		t.Error("a study without an evaluator should be rejected")
	}
}

func TestSetpointOptimizationAtPartLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-candidate plant study")
	}
	// Part load in mild weather: the operating regime where relaxed
	// setpoints pay off (slower fans, slower pumps).
	res := setpointSearch(t, plantEval{heatMW: 9, wetBulbC: 12}, []Knob{
		{Name: ctKnob, Min: 22, Max: 26, Step: 2},
		{Name: hdrKnob, Min: 100e3, Max: 140e3, Step: 40e3},
	}, nil)
	if !res.BaselineFeasible || res.Best == nil {
		t.Fatalf("baseline feasible=%v best=%v", res.BaselineFeasible, res.Best)
	}
	if n := len(res.Evaluated); n < 2 || n > 6 {
		t.Fatalf("evaluated %d distinct candidates on a 3×2 grid", n)
	}
	best, base := res.Best.Objectives["aux_mw"], res.BaselineObjectives["aux_mw"]
	for _, c := range res.Evaluated {
		if c.Objectives["aux_mw"] < best {
			t.Errorf("candidate %v beats the reported best %v MW", c.Params, best)
		}
	}
	// At this mild operating point a relaxed configuration should win
	// something over the plant's own setpoints (at a fixed IT load the
	// PUE falls with it).
	if best >= base {
		t.Errorf("expected an aux saving at part load: best %v MW vs baseline %v MW", best, base)
	}
}

func TestInfeasibleBaselineCannotWin(t *testing.T) {
	if testing.Short() {
		t.Skip("plant study")
	}
	eval := plantEval{heatMW: 9, wetBulbC: 12}
	outs, err := eval.Evaluate(context.Background(), -1, []core.Scenario{{}})
	if err != nil || outs[0].Report == nil {
		t.Fatalf("baseline probe: %v %+v", err, outs)
	}
	baseAux, _ := metricValue(outs[0].Report, "aux_mw")

	// A floor just above the baseline's aux power stands in for a
	// coolant limit the plant's own setpoints miss: the baseline is
	// infeasible, and although it is cheaper on the objective than the
	// candidates that meet the floor it must not become Best.
	res := setpointSearch(t, eval, []Knob{{Name: ctKnob, Min: 16, Max: 20, Step: 2}},
		[]Constraint{{Metric: "aux_mw", Min: ptr(baseAux * (1 + 1e-9))}})
	if res.BaselineFeasible {
		t.Fatal("baseline should be infeasible under the pinned floor")
	}
	if res.Best == nil || !res.Best.Feasible {
		t.Fatalf("a feasible candidate should have been selected, got %+v", res.Best)
	}
	best := res.Best.Objectives["aux_mw"]
	if best <= baseAux {
		t.Fatalf("best aux %v MW should exceed the baseline's %v MW", best, baseAux)
	}
	for _, c := range res.Evaluated {
		if c.Feasible && c.Objectives["aux_mw"] < best {
			t.Errorf("feasible candidate %v beats the reported best %v MW", c.Params, best)
		}
	}
}

func TestNoFeasibleEvaluationReportsNone(t *testing.T) {
	if testing.Short() {
		t.Skip("plant study")
	}
	// An impossible PUE cap leaves nothing feasible: the study must say
	// so instead of selecting anything.
	res := setpointSearch(t, plantEval{heatMW: 9, wetBulbC: 12},
		[]Knob{{Name: ctKnob, Min: 22, Max: 26, Step: 2}},
		[]Constraint{{Metric: "avg_pue", Max: ptr(0.5)}})
	if res.Best != nil || res.BaselineFeasible || len(res.Frontier) != 0 {
		t.Fatalf("nothing is feasible, got best=%+v baseline feasible=%v frontier=%d",
			res.Best, res.BaselineFeasible, len(res.Frontier))
	}
	if len(res.Evaluated) == 0 {
		t.Fatal("infeasible candidates must still be recorded")
	}
}

func TestInfeasibleCandidatesRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("plant study")
	}
	eval := plantEval{heatMW: 16, wetBulbC: 20}
	knobs := []Knob{{Name: ctKnob, Min: 22, Max: 38, Step: 8}}
	open := setpointSearch(t, eval, knobs, nil)
	lo, hi := open.Evaluated[0].Objectives["aux_mw"], open.Evaluated[0].Objectives["aux_mw"]
	for _, c := range open.Evaluated {
		lo, hi = min(lo, c.Objectives["aux_mw"]), max(hi, c.Objectives["aux_mw"])
	}
	if !(lo < hi) {
		t.Fatalf("tower setpoint did not move aux power (%v..%v)", lo, hi)
	}
	// An aux-power cap between the best and worst candidate: those over it are
	// recorded as infeasible and kept out of Best and the frontier.
	limit := (lo + hi) / 2
	res := setpointSearch(t, eval, knobs, []Constraint{{Metric: "aux_mw", Max: ptr(limit)}})
	rejected := 0
	for _, c := range res.Evaluated {
		if over := c.Objectives["aux_mw"] > limit; over == c.Feasible {
			t.Errorf("candidate %v: aux %v MW vs cap %v but feasible=%v", c.Params, c.Objectives["aux_mw"], limit, c.Feasible)
		} else if over {
			rejected++
			if c.Infeasible == "" {
				t.Errorf("candidate %v: infeasible without a reason", c.Params)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no candidate broke the cap")
	}
	for _, c := range res.Frontier {
		if !c.Feasible {
			t.Errorf("frontier holds infeasible candidate %v", c.Params)
		}
	}
	if res.Best == nil || res.Best.Objectives["aux_mw"] > limit {
		t.Fatalf("best should be a candidate under the cap, got %+v", res.Best)
	}
}
