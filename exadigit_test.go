package exadigit

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
)

func TestFacadeQuickstart(t *testing.T) {
	tw, err := NewFrontierTwin()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload:   WorkloadSynthetic,
		HorizonSec: 1800,
		TickSec:    15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AvgPowerMW < 7 {
		t.Errorf("avg power = %v MW", res.Report.AvgPowerMW)
	}
	out := RenderStatus(tw)
	if !strings.Contains(out, "ExaDigiT") {
		t.Errorf("dashboard frame malformed:\n%s", out)
	}
}

func TestFacadeSpecRoundTrip(t *testing.T) {
	spec := FrontierSpec()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTwin(*loaded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadIdle, HorizonSec: 60, TickSec: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSetonixSpec(t *testing.T) {
	tw, err := NewTwin(SetonixLikeSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 60, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 (CPU-only, 1592 nodes) peak power ≈ 1.3 MW: far
	// smaller than Frontier.
	if res.Report.MaxPowerMW > 5 {
		t.Errorf("setonix CPU partition peak = %v MW", res.Report.MaxPowerMW)
	}
}

func TestFacadeAutoCSM(t *testing.T) {
	cfg, err := GenerateCoolingModel(FrontierSpec().Cooling)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := fmu.NewDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The generated plant's model description honours the 317-output
	// contract.
	if got := len(dn.Description().OutputRefs()); got != 317 {
		t.Errorf("outputs = %d", got)
	}
	if _, err := fmu.NewDesign(FrontierCoolingModel()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDashboardHandler(t *testing.T) {
	tw, err := NewFrontierTwin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadIdle, HorizonSec: 120, TickSec: 15}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(DashboardHandler(tw))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		PowerMW float64 `json:"power_mw"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PowerMW < 7 || st.PowerMW > 8 {
		t.Errorf("idle power over HTTP = %v MW", st.PowerMW)
	}
}

// TestFacadeTelemetryRoundTrip: a run's export survives Save →
// LoadTelemetry bit-for-bit — on the two-partition Setonix-like machine
// that includes the per-partition power split — and the reloaded
// dataset replays.
func TestFacadeTelemetryRoundTrip(t *testing.T) {
	for name, spec := range map[string]SystemSpec{
		"frontier":     FrontierSpec(),
		"setonix-like": SetonixLikeSpec(),
	} {
		t.Run(name, func(t *testing.T) {
			tw, err := NewTwin(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tw.Run(Scenario{Workload: WorkloadSynthetic, HorizonSec: 1800, TickSec: 15})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(spec.Partitions); n > 1 && len(res.Dataset.Series[0].PartPowerW) != n {
				t.Fatalf("export carries %d partition powers, want %d",
					len(res.Dataset.Series[0].PartPowerW), n)
			}
			path := filepath.Join(t.TempDir(), "day.ndjson")
			if err := res.Dataset.Save(path); err != nil {
				t.Fatal(err)
			}
			ds, err := LoadTelemetry(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds, res.Dataset) {
				t.Error("telemetry round trip changed the dataset")
			}
			// And it replays.
			if _, err := tw.Run(Scenario{
				Workload: WorkloadReplay, Dataset: ds, HorizonSec: 1800, TickSec: 15,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDefaultGeneratorConfigCalibration(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	if cfg.ArrivalMeanSec != 138 || cfg.NodesMean != 268 {
		t.Errorf("generator defaults drifted from Table IV: %+v", cfg)
	}
}

func TestFacadeDiagnosticsAndLevels(t *testing.T) {
	// UQ ensemble through the facade.
	res, err := RunUQ(UQConfig{Members: 6, Seed: 2, HorizonSec: 120, TickSec: 15}, func() []*Job {
		j := NewJob(1, "load", 2000, 600, 0)
		j.CPUTrace = FlatTrace(0.7, 600)
		j.GPUTrace = FlatTrace(0.7, 600)
		return []*Job{j}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerMW.Mean < 8 || res.PowerMW.Std <= 0 {
		t.Errorf("UQ power = %+v", res.PowerMW)
	}
	// Anomaly detector over a fresh plant snapshot.
	det := NewAnomalyDetector()
	plant, err := cooling.New(FrontierCoolingModel())
	if err != nil {
		t.Fatal(err)
	}
	in := cooling.Inputs{CDUHeatW: make([]float64, 25), WetBulbC: 20, ITPowerW: 16.9e6}
	for i := range in.CDUHeatW {
		in.CDUHeatW[i] = 16e6 / 25
	}
	const steps = 40
	for i := 0; i < steps; i++ {
		if err := plant.Step(15, in); err != nil {
			t.Fatal(err)
		}
	}
	alarms := det.CheckCooling(plant.Snapshot(), steps*15)
	if len(alarms) != 0 {
		t.Errorf("healthy plant alarmed via facade: %v", alarms)
	}
}
