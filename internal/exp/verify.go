package exp

import (
	"fmt"

	"exadigit/internal/cooling"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/power"
)

// TableI reproduces the paper's component overview of Frontier.
func TableI() *Table {
	s := power.FrontierComponents()
	topo := power.FrontierTopology()
	t := &Table{
		Title:   "Table I — Component overview of the Frontier supercomputer",
		Columns: []string{"Component", "Value"},
	}
	t.AddRow("Number of CDUs", fmt.Sprint(topo.NumCDUs))
	t.AddRow("Racks per CDU", fmt.Sprint(topo.RacksPerCDU))
	t.AddRow("Chassis per Rack", fmt.Sprint(topo.ChassisPerRack))
	t.AddRow("Rectifiers per Rack", fmt.Sprint(topo.ChassisPerRack*4))
	t.AddRow("Blades per Rack", fmt.Sprint(topo.NodesPerRack/2))
	t.AddRow("Nodes per Rack", fmt.Sprint(topo.NodesPerRack))
	t.AddRow("Switches per Rack", fmt.Sprint(topo.SwitchesPerRack))
	t.AddRow("Nodes Total", fmt.Sprint(topo.NodesTotal))
	t.AddRow("GPU (Idle / Max) W", fmt.Sprintf("%.0f / %.0f", s.GPUIdle, s.GPUMax))
	t.AddRow("CPU (Idle / Max) W", fmt.Sprintf("%.0f / %.0f", s.CPUIdle, s.CPUMax))
	t.AddRow("RAM (Avg) W", d0(s.RAM))
	t.AddRow("NVMe (Avg) W", d0(s.NVMe*float64(s.NVMePerNode)))
	t.AddRow("NIC (Avg) W", d0(s.NIC*float64(s.NICsPerNode)))
	t.AddRow("Switch (Avg) W", d0(s.Switch))
	t.AddRow("CDU (Avg) W", d0(s.CDUPump))
	return t
}

// TableIIIRow is one verification point.
type TableIIIRow struct {
	Name        string
	Nodes       int
	TelemetryMW float64 // the paper's telemetry reference
	RAPSMW      float64 // our model's prediction
	PaperRAPSMW float64 // the paper's RAPS prediction
	ErrPct      float64 // our prediction vs the paper's telemetry
}

// TableIII reruns the RAPS power verification tests: idle, HPL core
// phase, and peak (§IV-2, Table III).
func TableIII() (*Table, []TableIIIRow, error) {
	tw, err := core.NewFrontier()
	if err != nil {
		return nil, nil, err
	}
	cases := []struct {
		name      string
		workload  core.WorkloadKind
		nodes     int
		telemetry float64
		paperRAPS float64
		measure   func(r *core.Result) float64
	}{
		{"Idle power", core.WorkloadIdle, 9472, 7.4, 7.24,
			func(r *core.Result) float64 { return r.Report.AvgPowerMW }},
		{"HPL (core)", core.WorkloadHPL, 9216, 21.3, 22.3,
			func(r *core.Result) float64 {
				// Sample mid-run: the HPL core phase.
				for _, smp := range r.History {
					if smp.TimeSec >= 1800 {
						return smp.PowerW / 1e6
					}
				}
				return 0
			}},
		{"Peak power", core.WorkloadPeak, 9472, 27.4, 28.2,
			func(r *core.Result) float64 { return r.Report.MaxPowerMW }},
	}
	t := &Table{
		Title:   "Table III — RAPS power verification tests",
		Columns: []string{"Test", "Nodes", "Telemetry (MW)", "RAPS (MW)", "Paper RAPS (MW)", "% Error vs telemetry"},
		Notes: []string{
			"Telemetry column is the paper's published reference (not re-measured here).",
		},
	}
	var rows []TableIIIRow
	for _, c := range cases {
		res, err := tw.Run(core.Scenario{
			Workload: c.workload, HorizonSec: 3600, TickSec: 15, BenchmarkWallSec: 7200,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.name, err)
		}
		got := c.measure(res)
		row := TableIIIRow{
			Name: c.name, Nodes: c.nodes, TelemetryMW: c.telemetry,
			RAPSMW: got, PaperRAPSMW: c.paperRAPS,
			ErrPct: 100 * abs(got-c.telemetry) / c.telemetry,
		}
		rows = append(rows, row)
		t.AddRow(c.name, fmt.Sprint(c.nodes), f1(c.telemetry), f2(got), f2(c.paperRAPS), f1(row.ErrPct)+"%")
	}
	return t, rows, nil
}

// Fig4Row is one contributor of the peak-power breakdown.
type Fig4Row struct {
	Component string
	MW        float64
	Percent   float64
}

// Fig4 reproduces the peak power utilization breakdown.
func Fig4() (*Table, []Fig4Row) {
	m := power.NewFrontierModel()
	var sp power.SystemPower
	m.ComputeUniform(1, 1, m.Topo.NodesTotal, &sp)
	b := sp.Breakdown
	entries := []struct {
		name string
		w    float64
	}{
		{"GPUs", b.GPU},
		{"CPUs", b.CPU},
		{"Rectifier losses", b.RectLoss},
		{"SIVOC losses", b.SivocLoss},
		{"NICs", b.NIC},
		{"RAM", b.RAM},
		{"Switches", b.Switches},
		{"NVMe", b.NVMe},
		{"CDU pumps", b.CDUPumps},
	}
	t := &Table{
		Title:   "Fig. 4 — Frontier power utilization breakdown at peak (9472 nodes)",
		Columns: []string{"Component", "MW", "% of total"},
	}
	var rows []Fig4Row
	for _, e := range entries {
		row := Fig4Row{Component: e.name, MW: e.w / 1e6, Percent: 100 * e.w / sp.TotalW}
		rows = append(rows, row)
		t.AddRow(e.name, f2(row.MW), f1(row.Percent)+"%")
	}
	t.AddRow("Total", f2(sp.TotalW/1e6), "100.0%")
	return t, rows
}

// TableII verifies the telemetry/FMU interface contract: the cooling
// model description must expose the §III-C4 variable set (25 heat inputs
// + wet bulb + IT power, 317 outputs).
func TableII() (*Table, error) {
	dn, err := fmu.NewDesign(cooling.Frontier())
	if err != nil {
		return nil, err
	}
	d := dn.Description()
	inputs, outputs := 0, 0
	for _, v := range d.Variables {
		switch v.Causality {
		case fmu.Input:
			inputs++
		case fmu.Output:
			outputs++
		}
	}
	t := &Table{
		Title:   "Table II — Model interface contract (telemetry schemas)",
		Columns: []string{"Interface", "Count"},
	}
	t.AddRow("Cooling FMU inputs (CDU heat + wet bulb + IT power)", fmt.Sprint(inputs))
	t.AddRow("Cooling FMU outputs (§III-C4)", fmt.Sprint(outputs))
	t.AddRow("Job record fields (Table II RAPS inputs)", "8")
	if outputs != cooling.NumOutputs {
		return t, fmt.Errorf("exp: FMU exposes %d outputs, want %d", outputs, cooling.NumOutputs)
	}
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
