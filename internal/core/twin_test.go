package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/job"
)

func TestIdleScenarioMatchesTableIII(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{Workload: WorkloadIdle, HorizonSec: 120, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Report.AvgPowerMW-7.24)/7.24 > 0.01 {
		t.Errorf("idle = %v MW", res.Report.AvgPowerMW)
	}
}

func TestPeakScenarioMatchesTableIII(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 120, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Report.MaxPowerMW-28.2)/28.2 > 0.01 {
		t.Errorf("peak = %v MW", res.Report.MaxPowerMW)
	}
}

func TestSyntheticScenarioProducesJobsAndTelemetry(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 120
	gen.WallMeanSec = 600
	gen.WallStdSec = 120
	gen.WallMinSec = 120
	gen.WallMaxSec = 1200
	res, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, Generator: gen,
		HorizonSec: 2 * 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.JobsCompleted < 10 {
		t.Errorf("completed %d jobs", res.Report.JobsCompleted)
	}
	// The export covers every job that started: completed plus still
	// running at the horizon.
	if len(res.Dataset.Jobs) < res.Report.JobsCompleted {
		t.Errorf("telemetry jobs %d < completed %d", len(res.Dataset.Jobs), res.Report.JobsCompleted)
	}
	if len(res.History) == 0 || len(res.Dataset.Series) == 0 {
		t.Error("history/series missing")
	}
}

func TestReplayScenarioRoundTrip(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 200
	gen.WallMeanSec = 600
	gen.WallStdSec = 100
	gen.WallMinSec = 120
	gen.WallMaxSec = 1200
	orig, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, Generator: gen,
		HorizonSec: 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := tw.Run(Scenario{
		Workload: WorkloadReplay, Dataset: orig.Dataset,
		HorizonSec: 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(replay.Report.AvgPowerMW-orig.Report.AvgPowerMW)/orig.Report.AvgPowerMW > 0.02 {
		t.Errorf("replay %v MW vs original %v MW", replay.Report.AvgPowerMW, orig.Report.AvgPowerMW)
	}
}

func TestReplayWithoutDatasetFails(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadReplay, HorizonSec: 60}); err == nil {
		t.Error("replay without dataset must fail")
	}
}

func TestScenarioValidation(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadIdle}); err == nil {
		t.Error("zero horizon must fail")
	}
	if _, err := tw.Run(Scenario{Workload: "quantum", HorizonSec: 60}); err == nil {
		t.Error("unknown workload must fail")
	}
	if _, err := NewFromSpec(config.SystemSpec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}

func TestDC380ModeReducesPower(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	base, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 60, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 60, TickSec: 15, PowerMode: "dc380"})
	if err != nil {
		t.Fatal(err)
	}
	if dc.Report.AvgPowerMW >= base.Report.AvgPowerMW {
		t.Errorf("dc380 %v MW should beat baseline %v MW", dc.Report.AvgPowerMW, base.Report.AvgPowerMW)
	}
	if dc.Report.EtaSystem < 0.97 {
		t.Errorf("dc380 η = %v, want ≈0.973", dc.Report.EtaSystem)
	}
}

func TestVizSourceIntegration(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	// Before any run: empty but safe.
	if tw.Status().PowerMW != 0 || tw.Series() != nil || tw.CoolingOutputs() != nil {
		t.Error("fresh twin should report empty viz data")
	}
	if _, err := tw.Run(Scenario{
		Workload: WorkloadHPL, HorizonSec: 600, TickSec: 15,
		Cooling: true, BenchmarkWallSec: 1200,
	}); err != nil {
		t.Fatal(err)
	}
	st := tw.Status()
	if st.PowerMW < 15 || st.PowerMW > 25 {
		t.Errorf("status power = %v MW", st.PowerMW)
	}
	if st.PUE < 1.01 || st.PUE > 1.15 {
		t.Errorf("status PUE = %v", st.PUE)
	}
	series := tw.Series()
	if len(series) == 0 {
		t.Fatal("series empty")
	}
	cool := tw.CoolingOutputs()
	if len(cool) != 317 {
		t.Fatalf("cooling outputs = %d, want 317", len(cool))
	}
	if _, ok := cool["pue"]; !ok {
		t.Error("pue channel missing")
	}
}

func TestExperimentRunner(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	run := tw.ExperimentRunner()
	res, err := run(context.Background(), map[string]string{"workload": "idle", "horizon_sec": "60"})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if _, err := run(context.Background(), map[string]string{"workload": "bogus"}); err == nil {
		t.Error("bad workload should fail")
	}
	if _, err := run(context.Background(), map[string]string{"horizon_sec": "xyz"}); err == nil {
		t.Error("bad horizon should fail")
	}
}

// TestNonFiniteHorizonRejected pins the horizon guard on both entry
// points: a NaN or infinite horizon, or a horizon_sec with trailing
// garbage, is rejected up front. A NaN horizon that slips through never
// satisfies the job generator's exit test, so every call runs under a
// deadline and a hang fails the test instead of wedging it.
func TestNonFiniteHorizonRejected(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	runHorizon := func(h float64) func() error {
		return func() error {
			_, err := tw.Run(Scenario{Workload: WorkloadSynthetic, HorizonSec: h, TickSec: 15})
			return err
		}
	}
	runner := tw.ExperimentRunner()
	runParam := func(h string) func() error {
		return func() error {
			_, err := runner(context.Background(), map[string]string{"horizon_sec": h})
			return err
		}
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"Run/NaN", runHorizon(math.NaN())},
		{"Run/+Inf", runHorizon(math.Inf(1))},
		{"Run/-Inf", runHorizon(math.Inf(-1))},
		{"runner/NaN", runParam("NaN")},
		{"runner/Inf", runParam("Inf")},
		{"runner/+Inf", runParam("+Inf")},
		{"runner/-Inf", runParam("-Inf")},
		{"runner/trailing-garbage", runParam("900xyz")},
	}
	const deadline = 3 * time.Second
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() { done <- tc.call() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: horizon accepted", tc.name)
			}
		case <-time.After(deadline):
			t.Fatalf("%s: not rejected within %v", tc.name, deadline)
		}
	}
}

// TestDeadlineHonouredInsideQuietGap: an idle horizon is one analytic
// quiet gap under the event engine, so a deadline is only honoured if
// the gap itself checks the context. 1e10 s is about 6.7e8 ticks.
func TestDeadlineHonouredInsideQuietGap(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = tw.RunContext(ctx, Scenario{
		Workload: WorkloadIdle, HorizonSec: 1e10, TickSec: 15, NoExport: true, NoHistory: true,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want the deadline", err, elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline of 100ms honoured only after %v", elapsed)
	}
}

func TestWeatherDrivenScenario(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadIdle, HorizonSec: 300, TickSec: 15,
		Cooling: true, WeatherSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AvgPUE <= 1.0 {
		t.Errorf("PUE = %v", res.Report.AvgPUE)
	}
}
