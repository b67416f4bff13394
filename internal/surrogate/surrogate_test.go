package surrogate

import (
	"math"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/la"
)

func TestRidgeExactOnLinearData(t *testing.T) {
	// y = 3 + 2a − b over exact features: OLS recovers the coefficients.
	var X [][]float64
	var y []float64
	for a := 0.0; a < 4; a++ {
		for b := 0.0; b < 4; b++ {
			X = append(X, []float64{1, a, b})
			y = append(y, 3+2*a-b)
		}
	}
	w, err := fitRidge(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	if got := la.Dot(w, []float64{1, 2, 1}); math.Abs(got-6) > 1e-9 {
		t.Errorf("predict = %v, want 6", got)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 4, 6}
	ols, err := fitRidge(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := fitRidge(X, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg[1]) >= math.Abs(ols[1]) {
		t.Errorf("ridge slope %v should shrink below OLS %v", reg[1], ols[1])
	}
}

func TestRidgeValidation(t *testing.T) {
	if _, err := fitRidge(nil, nil, 0); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := fitRidge([][]float64{{1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Error("row/target mismatch should fail")
	}
	if _, err := fitRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := fitRidge([][]float64{{}}, []float64{1}, 0); err == nil {
		t.Error("zero-width features should fail")
	}
}

func TestPUESurrogateTrainsAndGeneralizes(t *testing.T) {
	if testing.Short() {
		t.Skip("plant sweep")
	}
	s, err := TrainPUESurrogate(cooling.Frontier(),
		[]float64{6, 12, 18, 24},
		[]float64{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TrainingPoints) != 12 {
		t.Fatalf("training points = %d", len(s.TrainingPoints))
	}
	// The fit must explain the training sweep.
	if r2 := trainingR2(t, s); r2 < 0.9 {
		t.Errorf("R² = %v on the training sweep", r2)
	}
	// Held-out point: simulate the true plant at an off-grid operating
	// point and compare.
	plant, err := cooling.New(cooling.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	heat := make([]float64, 25)
	for i := range heat {
		heat[i] = 15e6 / 25
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 18, ITPowerW: 15e6 / 0.945}
	if err := plant.SettleToSteadyState(in, 3*3600); err != nil {
		t.Fatal(err)
	}
	truth := plant.PUE()
	pred, err := s.Predict(15, 18)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-truth) > 0.01 {
		t.Errorf("held-out PUE: surrogate %v vs plant %v", pred, truth)
	}
	aux, err := s.PredictAuxMW(15, 18)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aux-plant.AuxPowerW()/1e6) > 0.12 {
		t.Errorf("held-out aux: surrogate %v MW vs plant %v MW", aux, plant.AuxPowerW()/1e6)
	}
	// Physical sanity: warmer weather degrades PUE.
	cool, _ := s.Predict(15, 8)
	warm, _ := s.Predict(15, 26)
	if warm <= cool {
		t.Errorf("PUE should worsen with wet bulb: %v vs %v", warm, cool)
	}
}

// trainingR2 is the coefficient of determination of the PUE prediction
// on the surrogate's own training points (an upper bound on held-out
// skill; the held-out point is checked separately).
func trainingR2(t *testing.T, s *PUESurrogate) float64 {
	t.Helper()
	mean := 0.0
	for _, p := range s.TrainingPoints {
		mean += p.PUE
	}
	mean /= float64(len(s.TrainingPoints))
	var ssRes, ssTot float64
	for _, p := range s.TrainingPoints {
		pred, err := s.Predict(p.HeatMW, p.WetBulbC)
		if err != nil {
			t.Fatal(err)
		}
		ssRes += (p.PUE - pred) * (p.PUE - pred)
		ssTot += (p.PUE - mean) * (p.PUE - mean)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

func TestPUESurrogateValidation(t *testing.T) {
	if _, err := TrainPUESurrogate(cooling.Frontier(), []float64{10}, []float64{20}); err == nil {
		t.Error("1×1 grid should fail")
	}
	// Four points cannot determine the six quadratic coefficients.
	if _, err := TrainPUESurrogate(cooling.Frontier(), []float64{10, 20}, []float64{10, 20}); err == nil {
		t.Error("2×2 grid should fail")
	}
	var s PUESurrogate
	if _, err := s.Predict(10, 20); err == nil {
		t.Error("untrained predict should fail")
	}
	if _, err := s.PredictAuxMW(10, 20); err == nil {
		t.Error("untrained aux predict should fail")
	}
}

func BenchmarkSurrogatePredict(b *testing.B) {
	// The L3 value proposition: inference in nanoseconds vs seconds of
	// L4 simulation.
	m, err := NewModel([]float64{5, 5}, []float64{25, 25}, []string{"pue", "aux_mw"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var X, Y [][]float64
	for h := 5.0; h <= 25; h += 5 {
		for wb := 5.0; wb <= 25; wb += 5 {
			X = append(X, []float64{h, wb})
			Y = append(Y, []float64{1.04 + 0.001*h + 0.002*wb, 0.02 * h})
		}
	}
	if err := m.Fit(X, Y); err != nil {
		b.Fatal(err)
	}
	s := &PUESurrogate{model: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(15, 18); err != nil {
			b.Fatal(err)
		}
	}
}
