package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"exadigit/internal/raps"
)

// defaultSeed is the seed whose reports are pinned bit-exactly by
// golden.json; heldOutSeed is never used while tuning a change and must
// confirm any claim made on the default seed.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// golden holds, for the default seed, the report digest of each
// scenario of the cold-replay and cooled-plant streams in stream order,
// and the best-candidate energy of each co-design study. Regenerate
// with -write-golden after a deliberate change of the twin's numerics.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	ColdReplay  []string  `json:"cold-replay"`
	CooledPlant []string  `json:"cooled-plant"`
	StudyBest   []float64 `json:"co-design-study"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest is a report's bit-exact fingerprint: energy, average power and
// PUE in Go's shortest round-trip float formatting.
func digest(rep *raps.Report) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{f(rep.EnergyMWh), f(rep.AvgPowerMW), f(rep.AvgPUE)}, " ")
}

// checkGolden compares the report of stream scenario i against the
// golden list; scenarios past the list's end are left to the physical
// checks.
func checkGolden(list []string, i int, rep *raps.Report) error {
	if i >= len(list) {
		return nil
	}
	if got := digest(rep); got != list[i] {
		return fmt.Errorf("scenario %d: report digest %q, golden %q", i, got, list[i])
	}
	return nil
}

// checkPhysical bounds a report to physically meaningful ranges for a
// Frontier-sized machine.
func checkPhysical(rep *raps.Report, cooled bool) error {
	switch {
	case rep == nil:
		return fmt.Errorf("no report")
	case !(rep.SimSeconds > 0):
		return fmt.Errorf("simulated %v s", rep.SimSeconds)
	case !(rep.AvgPowerMW > 1 && rep.AvgPowerMW < 40):
		return fmt.Errorf("average power %v MW outside (1, 40)", rep.AvgPowerMW)
	case !(rep.LossPercent > 0.5 && rep.LossPercent < 20):
		return fmt.Errorf("conversion loss %v %% outside (0.5, 20)", rep.LossPercent)
	case math.Abs(rep.EnergyMWh-rep.AvgPowerMW*rep.SimSeconds/3600) > 0.01*rep.EnergyMWh:
		return fmt.Errorf("energy %v MWh disagrees with %v MW over %v s", rep.EnergyMWh, rep.AvgPowerMW, rep.SimSeconds)
	case cooled && !(rep.AvgPUE > 1 && rep.AvgPUE < 1.5):
		return fmt.Errorf("PUE %v outside (1, 1.5)", rep.AvgPUE)
	case !cooled && rep.AvgPUE != 0:
		return fmt.Errorf("uncooled run reports PUE %v", rep.AvgPUE)
	}
	return nil
}

// sameReport compares two reports by their wire encoding; Go's float
// formatting round-trips exactly, so equal bytes mean bit-identical
// reports. A report that cannot be encoded (a NaN field) matches none.
func sameReport(a, b *raps.Report) bool {
	if a == nil || b == nil {
		return false
	}
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
