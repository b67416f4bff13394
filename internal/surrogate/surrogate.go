// Package surrogate implements the L3 (predictive) layer of the twin
// taxonomy (Fig. 2): data-driven models trained on L4 simulation output.
// The paper notes that first-principles simulations "are extrapolative
// and can be effectively used for virtual prototyping", but too slow for
// real time, and that "an alternative approach is to use the simulations
// to generate data to train a machine-learned surrogate model, which has
// the advantage of being able to run in real-time". This package does
// exactly that: a ridge-regression surrogate over polynomial features,
// trained on steady-state sweeps of the cooling plant, predicting PUE
// and auxiliary power from (heat load, wet-bulb) in nanoseconds.
package surrogate

import (
	"fmt"
	"slices"

	"exadigit/internal/cooling"
	"exadigit/internal/la"
)

// fitRidge solves the ridge normal equations (XᵀX + λI)w = Xᵀy over
// the design-matrix rows; the intercept (feature 0) is not penalized.
func fitRidge(features [][]float64, targets []float64, lambda float64) ([]float64, error) {
	n := len(features)
	if n == 0 || n != len(targets) {
		return nil, fmt.Errorf("surrogate: %d rows vs %d targets", n, len(targets))
	}
	p := len(features[0])
	if p == 0 {
		return nil, fmt.Errorf("surrogate: empty feature vectors")
	}
	gram := la.NewMatrix(p, p)
	rhs := make([]float64, p)
	for i, row := range features {
		if len(row) != p {
			return nil, fmt.Errorf("surrogate: row %d has %d features, want %d", i, len(row), p)
		}
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				gram.Add(a, b, row[a]*row[b])
			}
			rhs[a] += row[a] * targets[i]
		}
	}
	for a := 1; a < p; a++ {
		gram.Add(a, a, lambda)
	}
	w, err := la.SolveDense(gram, rhs)
	if err != nil {
		return nil, fmt.Errorf("surrogate: %w", err)
	}
	return w, nil
}

func norm(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return (v - lo) / (hi - lo)
}

// PUESurrogate predicts PUE and auxiliary cooling power from the total
// heat load and the outdoor wet bulb: a two-target Model over
// (heat MW, wet bulb °C).
type PUESurrogate struct {
	model *Model

	// TrainingPoints records the L4 samples the model was fitted on.
	TrainingPoints []TrainingPoint
}

// TrainingPoint is one simulated steady state.
type TrainingPoint struct {
	HeatMW   float64
	WetBulbC float64
	PUE      float64
	AuxMW    float64
}

// TrainPUESurrogate sweeps the plant over the (heat, wet-bulb) grid,
// settling at each point, and fits the surrogate on the results. The
// plant is reused across points (warm start) so the sweep is cheap. The
// grid needs two values per axis and at least Model.MinTrainRows points
// (six for two inputs), so a 2×2 grid is rejected before any settling.
func TrainPUESurrogate(cfg cooling.Config, heatsMW, wetBulbsC []float64) (*PUESurrogate, error) {
	if len(heatsMW) < 2 || len(wetBulbsC) < 2 {
		return nil, fmt.Errorf("surrogate: need two values per grid axis, got %d×%d",
			len(heatsMW), len(wetBulbsC))
	}
	m, err := NewModel(
		[]float64{slices.Min(heatsMW), slices.Min(wetBulbsC)},
		[]float64{slices.Max(heatsMW), slices.Max(wetBulbsC)},
		[]string{"pue", "aux_mw"}, 1e-6)
	if err != nil {
		return nil, err
	}
	if n := len(heatsMW) * len(wetBulbsC); n < m.MinTrainRows() {
		return nil, fmt.Errorf("surrogate: %d×%d grid gives %d points, need at least %d",
			len(heatsMW), len(wetBulbsC), n, m.MinTrainRows())
	}
	plant, err := cooling.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &PUESurrogate{model: m}
	var X, Y [][]float64
	heat := make([]float64, cfg.NumCDUs)
	for _, wb := range wetBulbsC {
		for _, h := range heatsMW {
			for i := range heat {
				heat[i] = h * 1e6 / float64(cfg.NumCDUs)
			}
			in := cooling.Inputs{CDUHeatW: heat, WetBulbC: wb, ITPowerW: h * 1e6 / 0.945}
			if err := plant.SettleToSteadyState(in, 3*3600); err != nil {
				return nil, err
			}
			pt := TrainingPoint{
				HeatMW: h, WetBulbC: wb,
				PUE:   plant.PUE(),
				AuxMW: plant.AuxPowerW() / 1e6,
			}
			s.TrainingPoints = append(s.TrainingPoints, pt)
			X = append(X, []float64{h, wb})
			Y = append(Y, []float64{pt.PUE, pt.AuxMW})
		}
	}
	if err := m.Fit(X, Y); err != nil {
		return nil, err
	}
	return s, nil
}

// Predict returns the PUE estimate at the given operating point.
func (s *PUESurrogate) Predict(heatMW, wetBulbC float64) (float64, error) {
	return s.predict(heatMW, wetBulbC, 0)
}

// PredictAuxMW returns the auxiliary-power estimate in MW.
func (s *PUESurrogate) PredictAuxMW(heatMW, wetBulbC float64) (float64, error) {
	return s.predict(heatMW, wetBulbC, 1)
}

func (s *PUESurrogate) predict(heatMW, wetBulbC float64, target int) (float64, error) {
	out, err := s.model.Predict([]float64{heatMW, wetBulbC})
	if err != nil {
		return 0, err
	}
	return out[target], nil
}
