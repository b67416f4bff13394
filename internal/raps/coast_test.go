package raps

import (
	"math"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
)

// runCooledQuiet runs a quiet cooled stretch (one long flat job, so heat
// is constant after start) under the given plant solver and returns the
// simulation for inspection.
func runCooledQuiet(t *testing.T, solver string, horizon float64) *Simulation {
	t.Helper()
	pcfg := cooling.Frontier()
	pcfg.Solver = solver
	design, err := fmu.NewDesign(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.EnableCooling = true
	cfg.CoolingDesign = design
	cfg.WetBulbC = func(float64) float64 { return 19 }
	j := job.New(1, "flat", 4000, horizon+1, 0)
	j.CPUTrace = job.FlatTrace(0.7, horizon+1)
	j.GPUTrace = job.FlatTrace(0.5, horizon+1)
	sim, err := New(cfg, power.NewFrontierModel(), []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestCoolingCoastSkipsQuietBoundaries pins the raps half of the
// quiescent-plant fast path: under the adaptive solver a quiet cooled
// stretch coasts across 15 s cooling boundaries (tick-gap skipping stays
// engaged), while the fixed-step solver forces a dense boundary every
// 15 s. The coasted run must agree with the fixed reference on energy
// exactly and on PUE within the solver tolerance.
func TestCoolingCoastSkipsQuietBoundaries(t *testing.T) {
	const horizon = 6 * 3600
	fixed := runCooledQuiet(t, "", horizon)
	adaptive := runCooledQuiet(t, cooling.SolverAdaptive, horizon)

	if got := fixed.CoolingSolverStats(); got.QuiescentSec != 0 {
		t.Errorf("fixed solver fast-forwarded %v s", got.QuiescentSec)
	}
	ast := adaptive.CoolingSolverStats()
	if ast.QuiescentSec == 0 {
		t.Error("adaptive solver never fast-forwarded a quiet stretch")
	}
	if ast.ControlSteps >= fixed.CoolingSolverStats().ControlSteps/2 {
		t.Errorf("adaptive solver did not reduce control work: %d vs %d",
			ast.ControlSteps, fixed.CoolingSolverStats().ControlSteps)
	}
	// Boundary coasting: the event engine must skip more ticks than the
	// fixed-cooling run, where every 15 s boundary is an event.
	if adaptive.QuietTicks() <= fixed.QuietTicks() {
		t.Errorf("coasting did not increase skipped ticks: %d vs %d",
			adaptive.QuietTicks(), fixed.QuietTicks())
	}

	fr, ar := fixed.ReportNow(), adaptive.ReportNow()
	if fr.EnergyMWh != ar.EnergyMWh {
		t.Errorf("energy diverged: %v vs %v MWh", fr.EnergyMWh, ar.EnergyMWh)
	}
	if math.Abs(fr.AvgPUE-ar.AvgPUE) > 0.005 {
		t.Errorf("PUE diverged beyond tolerance: %v vs %v", fr.AvgPUE, ar.AvgPUE)
	}
}

// TestCoolingStepDoesNotAllocate pins the hot-loop allocation budget of
// the 15 s plant coupling: the Inputs record, the ODE stage buffers and
// the hydraulic scratch are all reused across steps (a cooled tick used
// to cost ~156 allocations in the coupling).
func TestCoolingStepDoesNotAllocate(t *testing.T) {
	sim := runCooledQuiet(t, "", 300)
	allocs := testing.AllocsPerRun(50, func() {
		sim.now += sim.cfg.CoolingDtSec
		if err := sim.stepCooling(); err != nil {
			t.Fatal(err)
		}
	})
	// Staging transients may allocate the odd time; steady state is 0.
	if allocs > 2 {
		t.Errorf("coupling step allocates %.0f objects/step; want ~0", allocs)
	}
}
