package cooling

import "fmt"

// NumOutputs is the size of the output vector the paper's FMU exposes per
// 15 s step (§III-C4: "The model produces a total of 317 outputs for each
// timestep"). The breakdown mirrors the paper: 11 values for each of the
// 25 CDUs, 10 for the primary pump loop, 25 for the cooling-tower loop,
// 6 facility-level values, and the PUE.
const NumOutputs = 317

// Station identifies the measurement locations enumerated in Fig. 5.
type Station int

// Fig. 5 stations, numbered from the cooling towers toward the racks.
const (
	StationCTBasin        Station = 1  // cooling-tower basin outlet
	StationCTWPSuction    Station = 2  // CTWP suction header
	StationCTWPDischarge  Station = 3  // CTWP discharge header
	StationEHXColdIn      Station = 4  // EHX cold-side inlet (CTW)
	StationEHXColdOut     Station = 5  // EHX cold-side outlet (CTW)
	StationCTReturnHeader Station = 6  // warm water back to the towers
	StationEHXHotIn       Station = 7  // EHX hot-side inlet (HTW return)
	StationEHXHotOut      Station = 8  // EHX hot-side outlet (HTW supply)
	StationHTWPSuction    Station = 9  // HTWP suction header
	StationHTWSupply      Station = 10 // HTW supply header (Fig. 7c)
	StationHTWReturn      Station = 11 // HTW return header
	StationCDUPrimarySup  Station = 12 // CDU primary supply (Fig. 7a/b)
	StationCDUPrimaryRet  Station = 13 // CDU primary return
	StationCDUSecondary   Station = 14 // CDU secondary supply (pump)
	StationCDURackReturn  Station = 15 // rack outlet / secondary return
)

// String names the station.
func (s Station) String() string {
	names := map[Station]string{
		StationCTBasin: "ct-basin", StationCTWPSuction: "ctwp-suction",
		StationCTWPDischarge: "ctwp-discharge", StationEHXColdIn: "ehx-cold-in",
		StationEHXColdOut: "ehx-cold-out", StationCTReturnHeader: "ct-return-header",
		StationEHXHotIn: "ehx-hot-in", StationEHXHotOut: "ehx-hot-out",
		StationHTWPSuction: "htwp-suction", StationHTWSupply: "htw-supply",
		StationHTWReturn: "htw-return", StationCDUPrimarySup: "cdu-primary-supply",
		StationCDUPrimaryRet: "cdu-primary-return", StationCDUSecondary: "cdu-secondary-supply",
		StationCDURackReturn: "cdu-rack-return",
	}
	if n, ok := names[s]; ok {
		return n
	}
	return fmt.Sprintf("station(%d)", int(s))
}

// CDUOutputs are the 11 per-CDU channels (§III-C4: pump work, primary and
// secondary flow rates, supply and return temperatures and pressures at
// stations 12-15).
type CDUOutputs struct {
	PumpPowerW         float64
	PrimaryFlowM3s     float64
	SecondaryFlowM3s   float64
	PrimarySupplyTempC float64
	PrimaryReturnTempC float64
	SecSupplyTempC     float64
	SecReturnTempC     float64
	PrimarySupplyPa    float64
	PrimaryReturnPa    float64
	SecSupplyPa        float64
	SecReturnPa        float64
}

// Outputs is the full decoded output record for one step.
type Outputs struct {
	CDUs []CDUOutputs

	// Primary pump loop (10 channels).
	NumHTWPStaged int
	NumEHXStaged  int
	HTWPPowerW    [4]float64
	HTWPSpeed     [4]float64

	// Cooling-tower loop (25 channels).
	NumCellsStaged int
	CTWPPowerW     [4]float64
	CTWPSpeed      [4]float64
	FanPowerW      []float64 // NumFanChannels entries

	// Facility level (6 channels).
	HTWFlowM3s       float64
	CTWFlowM3s       float64
	FacilitySupplyC  float64
	FacilityReturnC  float64
	FacilitySupplyPa float64
	FacilityReturnPa float64

	// PUE (1 channel).
	PUE float64
}

// Snapshot decodes the plant's current condition into a fresh Outputs
// record. The simulation hot loop uses SnapshotInto instead to reuse one
// record across steps.
func (p *Plant) Snapshot() *Outputs {
	out := &Outputs{}
	p.SnapshotInto(out)
	return out
}

// SnapshotInto decodes the plant's current condition into out, reusing
// its slices when they have capacity — the allocation-free variant of
// Snapshot for the 15 s RAPS coupling loop.
func (p *Plant) SnapshotInto(out *Outputs) {
	cfg := p.cfg
	if cap(out.CDUs) < len(p.cdus) {
		out.CDUs = make([]CDUOutputs, len(p.cdus))
	}
	out.CDUs = out.CDUs[:len(p.cdus)]
	if cap(out.FanPowerW) < cfg.NumFanChannels {
		out.FanPowerW = make([]float64, cfg.NumFanChannels)
	}
	out.FanPowerW = out.FanPowerW[:cfg.NumFanChannels]
	for i := range out.FanPowerW {
		out.FanPowerW[i] = 0
	}
	out.HTWPPowerW, out.HTWPSpeed = [4]float64{}, [4]float64{}
	out.CTWPPowerW, out.CTWPSpeed = [4]float64{}, [4]float64{}
	for i := range p.cdus {
		c := &p.cdus[i]
		secHead := cfg.SecLoopK * c.qSec * c.qSec
		primSup := cfg.StaticPressPa + p.htwHeadPa - 0.5*cfg.HTWLoopK*p.qHTW*p.qHTW
		out.CDUs[i] = CDUOutputs{
			PumpPowerW:         c.pumpPower,
			PrimaryFlowM3s:     c.qPrim,
			SecondaryFlowM3s:   c.qSec,
			PrimarySupplyTempC: p.htwSupply.T,
			PrimaryReturnTempC: c.primOutT,
			SecSupplyTempC:     c.secCold.T,
			SecReturnTempC:     c.secHot.T,
			PrimarySupplyPa:    primSup,
			PrimaryReturnPa:    primSup - p.headerDPPa,
			SecSupplyPa:        cfg.StaticPressPa + 0.85*secHead,
			SecReturnPa:        cfg.StaticPressPa + 0.10*secHead,
		}
	}

	out.NumHTWPStaged = p.htwpStager.Count()
	out.NumEHXStaged = p.ehxStaged
	for i := 0; i < 4; i++ {
		if i < out.NumHTWPStaged {
			out.HTWPPowerW[i] = p.htwpPowerW / float64(out.NumHTWPStaged)
			out.HTWPSpeed[i] = p.htwpSpeed
		}
	}

	out.NumCellsStaged = p.cellStager.Count()
	nCTWP := p.ctwpStager.Count()
	for i := 0; i < 4; i++ {
		if i < nCTWP {
			out.CTWPPowerW[i] = p.ctwpPowerW / float64(nCTWP)
			out.CTWPSpeed[i] = p.ctwpSpeed
		}
	}
	perCell := 0.0
	if out.NumCellsStaged > 0 {
		perCell = p.fanPowerW / float64(out.NumCellsStaged)
	}
	for i := range out.FanPowerW {
		if i < out.NumCellsStaged {
			out.FanPowerW[i] = perCell
		}
	}

	out.HTWFlowM3s = p.qHTW
	out.CTWFlowM3s = p.qCTW
	out.FacilitySupplyC = p.htwSupply.T
	out.FacilityReturnC = p.htwReturn.T
	out.FacilitySupplyPa = cfg.StaticPressPa + p.htwHeadPa
	out.FacilityReturnPa = cfg.StaticPressPa + 0.1*p.htwHeadPa
	out.PUE = p.PUE()
}

// Vector flattens the outputs into the FMU-ordered 317-element slice.
// Layout: per CDU ×11, then primary loop ×10, CT loop ×25, facility ×6,
// PUE.
func (o *Outputs) Vector() []float64 {
	return o.VectorInto(nil)
}

// VectorInto flattens the outputs into v (reused when it has capacity)
// and returns it — the allocation-free variant of Vector.
func (o *Outputs) VectorInto(v []float64) []float64 {
	if cap(v) < NumOutputs {
		v = make([]float64, 0, NumOutputs)
	}
	v = v[:0]
	for i := range o.CDUs {
		c := &o.CDUs[i]
		v = append(v,
			c.PumpPowerW, c.PrimaryFlowM3s, c.SecondaryFlowM3s,
			c.PrimarySupplyTempC, c.PrimaryReturnTempC,
			c.SecSupplyTempC, c.SecReturnTempC,
			c.PrimarySupplyPa, c.PrimaryReturnPa,
			c.SecSupplyPa, c.SecReturnPa,
		)
	}
	v = append(v, float64(o.NumHTWPStaged), float64(o.NumEHXStaged))
	v = append(v, o.HTWPPowerW[:]...)
	v = append(v, o.HTWPSpeed[:]...)
	v = append(v, float64(o.NumCellsStaged))
	v = append(v, o.CTWPPowerW[:]...)
	v = append(v, o.CTWPSpeed[:]...)
	v = append(v, o.FanPowerW...)
	v = append(v,
		o.HTWFlowM3s, o.CTWFlowM3s,
		o.FacilitySupplyC, o.FacilityReturnC,
		o.FacilitySupplyPa, o.FacilityReturnPa,
		o.PUE,
	)
	return v
}

// OutputNames returns the channel names in Vector order for a plant with
// the given config.
func OutputNames(cfg Config) []string {
	names := make([]string, 0, NumOutputs)
	for i := 1; i <= cfg.NumCDUs; i++ {
		for _, f := range []string{
			"pump_power_w", "primary_flow_m3s", "secondary_flow_m3s",
			"primary_supply_temp_c", "primary_return_temp_c",
			"secondary_supply_temp_c", "secondary_return_temp_c",
			"primary_supply_pressure_pa", "primary_return_pressure_pa",
			"secondary_supply_pressure_pa", "secondary_return_pressure_pa",
		} {
			names = append(names, fmt.Sprintf("cdu[%d].%s", i, f))
		}
	}
	names = append(names, "primary.num_htwp_staged", "primary.num_ehx_staged")
	for i := 1; i <= 4; i++ {
		names = append(names, fmt.Sprintf("primary.htwp[%d].power_w", i))
	}
	for i := 1; i <= 4; i++ {
		names = append(names, fmt.Sprintf("primary.htwp[%d].speed", i))
	}
	names = append(names, "ct.num_cells_staged")
	for i := 1; i <= 4; i++ {
		names = append(names, fmt.Sprintf("ct.ctwp[%d].power_w", i))
	}
	for i := 1; i <= 4; i++ {
		names = append(names, fmt.Sprintf("ct.ctwp[%d].speed", i))
	}
	for i := 1; i <= cfg.NumFanChannels; i++ {
		names = append(names, fmt.Sprintf("ct.fan[%d].power_w", i))
	}
	names = append(names,
		"facility.htw_flow_m3s", "facility.ctw_flow_m3s",
		"facility.supply_temp_c", "facility.return_temp_c",
		"facility.supply_pressure_pa", "facility.return_pressure_pa",
		"pue",
	)
	return names
}
