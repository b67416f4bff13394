package fmu

import (
	"math"
	"testing"

	"exadigit/internal/cooling"
)

func newDesign(t *testing.T) *Design {
	t.Helper()
	dn, err := NewDesign(cooling.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	return dn
}

func TestModelDescriptionShape(t *testing.T) {
	d := newDesign(t).Description()
	if d.ModelName != "ExaDigiT.CoolingPlant" {
		t.Errorf("model name = %q", d.ModelName)
	}
	// 25 heat inputs + wet bulb + IT power + 317 outputs.
	wantVars := 25 + 2 + cooling.NumOutputs
	if len(d.Variables) != wantVars {
		t.Fatalf("variables = %d, want %d", len(d.Variables), wantVars)
	}
	if got := len(d.OutputRefs()); got != cooling.NumOutputs {
		t.Errorf("outputs = %d, want %d (§III-C4)", got, cooling.NumOutputs)
	}
	// Unique refs and names.
	refs := map[ValueRef]bool{}
	byName := map[string]ScalarVariable{}
	for _, v := range d.Variables {
		if refs[v.Ref] {
			t.Fatalf("duplicate ref %d", v.Ref)
		}
		if _, dup := byName[v.Name]; dup {
			t.Fatalf("duplicate name %q", v.Name)
		}
		refs[v.Ref] = true
		byName[v.Name] = v
	}
	// Causality and units inferred from suffixes.
	for name, want := range map[string]ScalarVariable{
		"cdu[1].heat_w":                     {Causality: Input, Unit: "W"},
		"wetbulb_temp_c":                    {Causality: Input, Unit: "degC"},
		"cdu[25].secondary_flow_m3s":        {Causality: Output, Unit: "m3/s"},
		"facility.supply_temp_c":            {Causality: Output, Unit: "degC"},
		"cdu[3].primary_supply_pressure_pa": {Causality: Output, Unit: "Pa"},
		"primary.htwp[1].power_w":           {Causality: Output, Unit: "W"},
		"pue":                               {Causality: Output, Unit: ""},
	} {
		v, ok := byName[name]
		if !ok {
			t.Fatalf("no variable %q", name)
		}
		if v.Causality != want.Causality || v.Unit != want.Unit {
			t.Errorf("%s: %v %q, want %v %q", name, v.Causality, v.Unit, want.Causality, want.Unit)
		}
	}
}

// TestCoSimulationProducesPhysicalOutputs steps the plant the design
// describes at the paper's 15 s coupling interval and reads its outputs
// by the description's names: the output vector and the declared outputs
// line up one to one, and the values are physical.
func TestCoSimulationProducesPhysicalOutputs(t *testing.T) {
	dn := newDesign(t)
	plant, err := cooling.New(dn.Config())
	if err != nil {
		t.Fatal(err)
	}
	in := cooling.Inputs{CDUHeatW: make([]float64, 25), WetBulbC: 20, ITPowerW: 16.9e6}
	for i := range in.CDUHeatW {
		in.CDUHeatW[i] = 16e6 / 25
	}
	// Run 30 simulated minutes at the paper's 15 s communication step.
	for i := 0; i < 120; i++ {
		if err := plant.Step(15, in); err != nil {
			t.Fatal(err)
		}
	}
	vals := plant.Snapshot().Vector()
	names := dn.OutputNames()
	if len(vals) != len(names) || len(names) != len(dn.Description().OutputRefs()) {
		t.Fatalf("output vector %d, names %d, declared outputs %d",
			len(vals), len(names), len(dn.Description().OutputRefs()))
	}
	get := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return vals[i]
			}
		}
		t.Fatalf("no output %q", name)
		return 0
	}
	pue := get("pue")
	if pue < 1.01 || pue > 1.10 {
		t.Errorf("PUE = %v", pue)
	}
	if temp := get("cdu[1].secondary_supply_temp_c"); math.Abs(temp-32) > 2.5 {
		t.Errorf("secondary supply = %v", temp)
	}
	if q := get("facility.htw_flow_m3s"); q <= 0 {
		t.Errorf("HTW flow = %v", q)
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			t.Fatalf("output %d is NaN", i)
		}
	}
}

func TestCausalityString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" || Parameter.String() != "parameter" {
		t.Error("causality names")
	}
	if Causality(9).String() == "" {
		t.Error("unknown causality should have a name")
	}
}
