package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/telemetry"
)

// entrySHA256 is the SHA-256 of the entry writeEntry emits for
// pinnedResult. Stores outlive upgrades, so the on-disk bytes of an
// entry are a format: change this constant only with a migration story.
const entrySHA256 = "098ba64f8612383b3f9115e073c026f4ca9460bf1ea379b77f3b3da87c249883"

// pinnedResult is a fixed result touching every entry line kind: the
// header (with a two-partition report), history samples, and a two-job telemetry
// export with meta and series lines.
func pinnedResult() *core.Result {
	return &core.Result{
		Scenario: core.Scenario{Name: "pinned-day"},
		Report: &raps.Report{
			JobsCompleted: 2, AvgPowerMW: 21.5, MaxPowerMW: 24.125, EnergyMWh: 510.25,
			AvgPUE: 1.032, SimSeconds: 86400,
			Partitions: []raps.PartitionReport{
				{Name: "cpu", JobsCompleted: 1, AvgPowerMW: 1.5},
				{Name: "gpu", JobsCompleted: 1, AvgPowerMW: 20},
			},
		},
		History: []raps.Sample{
			{TimeSec: 15, PowerW: 2.1e7, LossW: 1.2e6, Utilization: 0.5, PUE: 1.05, JobsRunning: 1, JobsPending: 1,
				PartPowerW: []float64{1.5e6, 1.95e7}},
			{TimeSec: 30, PowerW: 2.2e7, LossW: 1.3e6, Utilization: 0.75, PUE: 1.04, JobsRunning: 2,
				PartPowerW: []float64{1.5e6, 2.05e7}},
		},
		Dataset: &telemetry.Dataset{
			Epoch:       "2024-01-18",
			SeriesDtSec: 15,
			Jobs: []telemetry.JobRecord{
				{JobName: "hpl", JobID: 7, NodeCount: 128, SubmitTime: 0, StartTime: 5, WallTime: 30,
					CPUPowerW: []float64{100, 110.5}, GPUPowerW: []float64{460.25, 470}},
				{JobName: "lammps", JobID: 8, NodeCount: 64, SubmitTime: 10, StartTime: 15, WallTime: 15,
					CPUPowerW: []float64{95}, GPUPowerW: []float64{300.125}},
			},
			Series: []telemetry.SeriesPoint{
				{TimeSec: 15, MeasuredPowerW: 2.1e7, WetBulbC: 20, PartPowerW: []float64{1.5e6, 1.95e7}},
				{TimeSec: 30, MeasuredPowerW: 2.2e7, WetBulbC: 20.5, PartPowerW: []float64{1.5e6, 2.05e7}},
			},
		},
		WallSec: 1,
	}
}

// TestEntryBytesPinned: the bytes writeEntry emits for a fixed result
// do not drift, so entries written by an older build stay readable and
// keep their content hash.
func TestEntryBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEntry(&buf, specA, scenA, pinnedResult()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != entrySHA256 {
		t.Fatalf("entry bytes changed: sha256 %s, want %s\n%s", got, entrySHA256, buf.Bytes())
	}
}
