// Package fmu compiles the Functional Mock-up Interface (FMI 2.0)–style
// model description of the cooling plant — the modelDescription.xml
// equivalent of the paper's Dymola-exported FMU (§III-C6): 25 per-CDU
// heat inputs, the wet bulb and the IT power in, and the 317 outputs of
// §III-C4 out, each with its causality and unit.
//
// The description is the interface contract only. RAPS couples to the
// cooling plant directly (cooling.Plant.Step every 15 s), since no
// foreign model sits behind the boundary in this port; a Design carries
// the validated plant configuration RAPS builds its plant from, plus the
// description that Table II verifies and dashboards label outputs with.
//
// A Design is compiled once per cooling.Config and shared read-only, so
// scenario sweeps pay the 300+-variable enumeration once per spec
// instead of once per scenario.
package fmu

import (
	"fmt"
	"strings"
	"sync/atomic"

	"exadigit/internal/cooling"
)

// ValueRef identifies a model variable, mirroring FMI value references.
type ValueRef uint32

// Causality mirrors the FMI variable causality attribute.
type Causality int

// Causality values.
const (
	Input Causality = iota
	Output
	Parameter
)

// String names the causality.
func (c Causality) String() string {
	switch c {
	case Input:
		return "input"
	case Output:
		return "output"
	case Parameter:
		return "parameter"
	}
	return fmt.Sprintf("causality(%d)", int(c))
}

// ScalarVariable describes one model variable, as in an FMI
// modelDescription.xml.
type ScalarVariable struct {
	Name      string
	Ref       ValueRef
	Causality Causality
	Unit      string
}

// ModelDescription lists every variable the model exposes.
type ModelDescription struct {
	ModelName string
	Variables []ScalarVariable
}

// OutputRefs returns the refs of all output variables in declaration
// order.
func (d *ModelDescription) OutputRefs() []ValueRef {
	var refs []ValueRef
	for _, v := range d.Variables {
		if v.Causality == Output {
			refs = append(refs, v.Ref)
		}
	}
	return refs
}

// descriptionBuilds counts Design constructions process-wide. It exists
// so sweep tests can assert the description is compiled once per spec
// and shared, not rebuilt per scenario.
var descriptionBuilds atomic.Uint64

// DescriptionBuilds returns how many model descriptions have been
// compiled since process start (build-sharing instrumentation).
func DescriptionBuilds() uint64 { return descriptionBuilds.Load() }

// Design is the compiled, immutable cooling-model description for one
// validated cooling.Config. It is safe for concurrent use.
type Design struct {
	cfg      cooling.Config
	desc     *ModelDescription
	outNames []string
}

// NewDesign validates cfg and compiles its model description.
func NewDesign(cfg cooling.Config) (*Design, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &ModelDescription{ModelName: "ExaDigiT.CoolingPlant"}
	add := func(name string, c Causality, unit string) {
		ref := ValueRef(len(d.Variables) + 1)
		d.Variables = append(d.Variables, ScalarVariable{Name: name, Ref: ref, Causality: c, Unit: unit})
	}
	for i := 1; i <= cfg.NumCDUs; i++ {
		add(fmt.Sprintf("cdu[%d].heat_w", i), Input, "W")
	}
	add("wetbulb_temp_c", Input, "degC")
	add("it_power_w", Input, "W")
	outNames := cooling.OutputNames(cfg)
	for _, name := range outNames {
		add(name, Output, unitOf(name))
	}
	descriptionBuilds.Add(1)
	return &Design{cfg: cfg, desc: d, outNames: outNames}, nil
}

// unitOf infers an output's unit from its name suffix.
func unitOf(name string) string {
	for _, u := range [...]struct{ suffix, unit string }{
		{"_w", "W"}, {"_m3s", "m3/s"}, {"_c", "degC"}, {"_pa", "Pa"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return ""
}

// Description returns the compiled model description.
func (dn *Design) Description() *ModelDescription { return dn.desc }

// Config returns the plant configuration the design was compiled from.
func (dn *Design) Config() cooling.Config { return dn.cfg }

// OutputNames returns the output channel names in cooling.Outputs.Vector
// order — the labels a dashboard attaches to the plant's output vector.
// The slice is shared; callers must not mutate it.
func (dn *Design) OutputNames() []string { return dn.outNames }
