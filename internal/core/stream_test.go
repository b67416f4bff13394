package core

import (
	"bytes"
	"reflect"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/job"
	"exadigit/internal/telemetry"
)

// TestStreamedTelemetryMatchesExport: the NDJSON stream written
// incrementally during a run must reassemble into exactly the dataset
// the in-memory export materializes after it — bit-for-bit (JSON
// float64 encoding round-trips exactly).
func TestStreamedTelemetryMatchesExport(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 9
	var buf bytes.Buffer
	sc := Scenario{
		Name:       "stream-equiv",
		Workload:   WorkloadSynthetic,
		HorizonSec: 2 * 3600,
		TickSec:    15,
		Generator:  gen,
		// WetBulbC deliberately unset: the synthetic weather generator is
		// stateful (noise advances per query), the hardest case for
		// stream/export agreement — each must sample a fresh source.
		WeatherSeed: 3,
		TelemetryTo: &buf,
	}
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset == nil {
		t.Fatal("export missing (NoExport unset)")
	}
	if len(res.Dataset.Series) == 0 || len(res.Dataset.Jobs) == 0 {
		t.Fatal("export is empty; test needs real content")
	}

	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Epoch != res.Dataset.Epoch || streamed.SeriesDtSec != res.Dataset.SeriesDtSec {
		t.Errorf("meta diverges: %q/%v vs %q/%v",
			streamed.Epoch, streamed.SeriesDtSec, res.Dataset.Epoch, res.Dataset.SeriesDtSec)
	}
	if len(streamed.Jobs) != len(res.Dataset.Jobs) {
		t.Fatalf("streamed %d jobs, export has %d", len(streamed.Jobs), len(res.Dataset.Jobs))
	}
	for i := range streamed.Jobs {
		if !reflect.DeepEqual(streamed.Jobs[i], res.Dataset.Jobs[i]) {
			t.Fatalf("job record %d diverges:\nstream: %+v\nexport: %+v",
				i, streamed.Jobs[i], res.Dataset.Jobs[i])
		}
	}
	if len(streamed.Series) != len(res.Dataset.Series) {
		t.Fatalf("streamed %d series points, export has %d",
			len(streamed.Series), len(res.Dataset.Series))
	}
	for i := range streamed.Series {
		if !reflect.DeepEqual(streamed.Series[i], res.Dataset.Series[i]) {
			t.Fatalf("series point %d diverges: stream %+v vs export %+v",
				i, streamed.Series[i], res.Dataset.Series[i])
		}
	}
}

// TestTelemetrySinkDoesNotPerturbResults: attaching a streaming sink
// must be invisible to the simulation and to its export — in particular
// the sink must not advance the run's stateful wet-bulb source, which
// the cooling coupling samples (a shared closure would change PUE and
// the report), and the export must not depend on whether a sink is
// attached. Each case's Result.Dataset must be identical with and
// without TelemetryTo, and equal to what the stream carried.
func TestTelemetrySinkDoesNotPerturbResults(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 12
	for name, sc := range map[string]Scenario{
		"cooled weather": {
			Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15,
			Generator: gen, Cooling: true, WeatherSeed: 5,
		},
		"no history": {
			Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15,
			Generator: gen, WeatherSeed: 5, NoHistory: true,
		},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(sink *bytes.Buffer) *Result {
				sc := sc
				if sink != nil {
					sc.TelemetryTo = sink
				}
				tw, err := NewFromSpec(config.Frontier())
				if err != nil {
					t.Fatal(err)
				}
				res, err := tw.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			var sink bytes.Buffer
			plain, streamed := run(nil), run(&sink)
			if plain.Report.EnergyMWh != streamed.Report.EnergyMWh {
				t.Errorf("energy changed by attaching a sink: %v vs %v",
					plain.Report.EnergyMWh, streamed.Report.EnergyMWh)
			}
			if plain.Report.AvgPUE != streamed.Report.AvgPUE {
				t.Errorf("PUE changed by attaching a sink: %v vs %v",
					plain.Report.AvgPUE, streamed.Report.AvgPUE)
			}
			if want := int(1800 / 15); len(plain.Dataset.Series) != want {
				t.Fatalf("export carries %d series points, want %d", len(plain.Dataset.Series), want)
			}
			if !reflect.DeepEqual(plain.Dataset, streamed.Dataset) {
				for i := range plain.Dataset.Series {
					if i < len(streamed.Dataset.Series) &&
						!reflect.DeepEqual(plain.Dataset.Series[i], streamed.Dataset.Series[i]) {
						t.Fatalf("series point %d: %+v without a sink, %+v with one",
							i, plain.Dataset.Series[i], streamed.Dataset.Series[i])
					}
				}
				t.Fatal("export differs with and without a sink")
			}
			got, err := telemetry.ReadStream(&sink)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, plain.Dataset) {
				t.Error("the stream does not read back as the export")
			}
		})
	}
}

// TestSyntheticJobBoundRejectsRunaway: a near-zero arrival mean (HTTP
// reachable through the sweep service) must be rejected, not generate
// horizon/mean jobs.
func TestSyntheticJobBoundRejectsRunaway(t *testing.T) {
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 1e-9
	if _, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 86400, TickSec: 15, Generator: gen,
	}); err == nil {
		t.Fatal("near-zero arrival mean must be rejected")
	}
	gen.ArrivalMeanSec = -1
	if _, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 3600, TickSec: 15, Generator: gen,
	}); err == nil {
		t.Fatal("negative arrival mean must be rejected")
	}
}

// TestNoHistoryLeanMode: NoHistory drops the in-memory series from the
// result while the report and any streaming sink stay intact.
func TestNoHistoryLeanMode(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 4
	var buf bytes.Buffer
	tw, err := NewFromSpec(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15,
		Generator: gen, WetBulbC: 20,
		NoExport: true, NoHistory: true, TelemetryTo: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 0 {
		t.Errorf("NoHistory run retained %d samples", len(res.History))
	}
	if res.Report == nil || res.Report.EnergyMWh <= 0 {
		t.Error("report missing under NoHistory")
	}
	streamed, err := telemetry.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(1800 / 15); len(streamed.Series) != want {
		t.Errorf("stream carried %d series points under NoHistory, want %d",
			len(streamed.Series), want)
	}
}

// TestCompiledSpecSharesModelsAcrossModes: one compiled spec serves each
// power mode from cache and shares the instance across twins.
func TestCompiledSpecSharesModelsAcrossModes(t *testing.T) {
	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	base1, err := cs.Models("")
	if err != nil {
		t.Fatal(err)
	}
	base2, err := cs.Models("ac-baseline")
	if err != nil {
		t.Fatal(err)
	}
	if base1[0] != base2[0] {
		t.Error("default mode and explicit ac-baseline should share one model")
	}
	dc, err := cs.Models("dc380")
	if err != nil {
		t.Fatal(err)
	}
	if dc[0] == base1[0] {
		t.Error("dc380 must be a distinct model")
	}
	if dc2, _ := cs.Models("dc380"); dc2[0] != dc[0] {
		t.Error("dc380 model not cached")
	}
	if _, err := cs.Models("warp-drive"); err == nil {
		t.Error("unknown mode should fail")
	}
	d1, err := cs.CoolingDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d2, _ := cs.CoolingDesign(); d2 != d1 {
		t.Error("cooling design not cached")
	}
	if len(cs.Hash()) != 64 {
		t.Errorf("bad spec hash %q", cs.Hash())
	}
}
