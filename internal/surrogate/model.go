package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"exadigit/internal/la"
)

// This file is the package's one regression model: a multi-target
// ridge model over quadratic features of a d-dimensional input — the
// optimizer's knob vector, or the PUE surrogate's (heat, wet bulb) —
// refit online as the optimizer's own sweep results stream in, and
// JSON-serializable (weights + feature-map spec + training-set hash) so
// a trained model persists in the service's -store directory and
// survives restarts.

// FeatureMap normalizes a d-dimensional input by per-dimension ranges
// and expands it to full quadratic features: [1, xᵢ, xᵢ², xᵢxⱼ (i<j)].
type FeatureMap struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// NewFeatureMap builds the map for inputs in [lo, hi] per dimension.
func NewFeatureMap(lo, hi []float64) (FeatureMap, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return FeatureMap{}, fmt.Errorf("surrogate: feature map needs matching non-empty bounds, got %d/%d", len(lo), len(hi))
	}
	return FeatureMap{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}, nil
}

// Dims is the input dimensionality.
func (f FeatureMap) Dims() int { return len(f.Lo) }

// Len is the expanded feature count: 1 + 2d + d(d−1)/2.
func (f FeatureMap) Len() int {
	d := f.Dims()
	return 1 + 2*d + d*(d-1)/2
}

// Vector expands one input point.
func (f FeatureMap) Vector(x []float64) ([]float64, error) {
	d := f.Dims()
	if len(x) != d {
		return nil, fmt.Errorf("surrogate: input has %d dims, feature map wants %d", len(x), d)
	}
	out := make([]float64, 0, f.Len())
	out = append(out, 1)
	xn := make([]float64, d)
	for i := range x {
		xn[i] = norm(x[i], f.Lo[i], f.Hi[i])
		out = append(out, xn[i])
	}
	for i := 0; i < d; i++ {
		out = append(out, xn[i]*xn[i])
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			out = append(out, xn[i]*xn[j])
		}
	}
	return out, nil
}

// Model is a multi-target ridge regressor over quadratic knob features.
// The zero value is unusable; build with NewModel or UnmarshalJSON.
type Model struct {
	feats   FeatureMap
	targets []string
	lambda  float64
	weights [][]float64 // per target, nil until Fit
	rows    int
	hash    string // training-set content hash, stamped by Fit
}

// NewModel builds an untrained model for inputs bounded by [lo, hi] per
// dimension, predicting the named targets. lambda ≤ 0 defaults to 1e-6.
func NewModel(lo, hi []float64, targets []string, lambda float64) (*Model, error) {
	feats, err := NewFeatureMap(lo, hi)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("surrogate: model needs at least one target")
	}
	if lambda <= 0 {
		lambda = 1e-6
	}
	return &Model{feats: feats, targets: append([]string(nil), targets...), lambda: lambda}, nil
}

// Targets returns the target names, in prediction order.
func (m *Model) Targets() []string { return append([]string(nil), m.targets...) }

// Dims is the knob-vector dimensionality.
func (m *Model) Dims() int { return m.feats.Dims() }

// Trained reports whether Fit has succeeded at least once (false for a
// nil model).
func (m *Model) Trained() bool { return m != nil && m.weights != nil }

// Rows is the training-set size of the last successful Fit.
func (m *Model) Rows() int { return m.rows }

// TrainingHash is the content hash of the last Fit's training set — the
// provenance tag serialized with the model, so a persisted surrogate
// names exactly the data it was fitted on.
func (m *Model) TrainingHash() string { return m.hash }

// MinTrainRows is the smallest training set Fit accepts: the feature
// count (so the ridge system is not wildly underdetermined) with a
// floor of 4.
func (m *Model) MinTrainRows() int {
	n := m.feats.Len()
	if n < 4 {
		n = 4
	}
	return n
}

// Fit refits every target on the given training set: X rows are raw
// knob vectors, Y rows are per-target observations aligned with
// Targets(). The fit is deterministic (dense Cholesky-free LU via
// la.SolveDense), so identical training sets yield identical models —
// the property the optimizer's warm-re-run cache guarantee rests on.
func (m *Model) Fit(X [][]float64, Y [][]float64) error {
	if len(X) != len(Y) {
		return fmt.Errorf("surrogate: %d inputs vs %d target rows", len(X), len(Y))
	}
	if len(X) < m.MinTrainRows() {
		return fmt.Errorf("surrogate: %d rows < minimum %d", len(X), m.MinTrainRows())
	}
	feats := make([][]float64, len(X))
	h := sha256.New()
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i, x := range X {
		v, err := m.feats.Vector(x)
		if err != nil {
			return fmt.Errorf("surrogate: row %d: %w", i, err)
		}
		feats[i] = v
		if len(Y[i]) != len(m.targets) {
			return fmt.Errorf("surrogate: row %d has %d targets, want %d", i, len(Y[i]), len(m.targets))
		}
		for _, xv := range x {
			writeF(xv)
		}
		for _, yv := range Y[i] {
			writeF(yv)
		}
	}
	weights := make([][]float64, len(m.targets))
	col := make([]float64, len(X))
	for t := range m.targets {
		for i := range Y {
			col[i] = Y[i][t]
		}
		w, err := fitRidge(feats, col, m.lambda)
		if err != nil {
			return fmt.Errorf("surrogate: target %q: %w", m.targets[t], err)
		}
		weights[t] = w
	}
	m.weights = weights
	m.rows = len(X)
	m.hash = hex.EncodeToString(h.Sum(nil))
	return nil
}

// Predict evaluates every target at one knob vector.
func (m *Model) Predict(x []float64) ([]float64, error) {
	if !m.Trained() {
		return nil, fmt.Errorf("surrogate: model not trained")
	}
	v, err := m.feats.Vector(x)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(m.targets))
	for t := range m.targets {
		out[t] = la.Dot(m.weights[t], v)
	}
	return out, nil
}

// modelJSON is the serialized form: everything needed to reconstruct
// the model byte-for-byte, plus the training-set hash for provenance.
type modelJSON struct {
	Version  int         `json:"version"`
	Features FeatureMap  `json:"features"`
	Targets  []string    `json:"targets"`
	Lambda   float64     `json:"lambda"`
	Weights  [][]float64 `json:"weights,omitempty"`
	Rows     int         `json:"rows,omitempty"`
	Hash     string      `json:"training_hash,omitempty"`
}

// MarshalJSON serializes the model (weights + feature-map spec +
// training-set hash).
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Version: 1, Features: m.feats, Targets: m.targets,
		Lambda: m.lambda, Weights: m.weights, Rows: m.rows, Hash: m.hash,
	})
}

// UnmarshalJSON restores a serialized model.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return fmt.Errorf("surrogate: decode model: %w", err)
	}
	if mj.Version != 1 {
		return fmt.Errorf("surrogate: unsupported model version %d", mj.Version)
	}
	if len(mj.Features.Lo) == 0 || len(mj.Features.Lo) != len(mj.Features.Hi) {
		return fmt.Errorf("surrogate: decode model: malformed feature map")
	}
	if len(mj.Targets) == 0 {
		return fmt.Errorf("surrogate: decode model: no targets")
	}
	if mj.Weights != nil {
		if len(mj.Weights) != len(mj.Targets) {
			return fmt.Errorf("surrogate: decode model: %d weight vectors for %d targets", len(mj.Weights), len(mj.Targets))
		}
		want := mj.Features.Len()
		for t, w := range mj.Weights {
			if len(w) != want {
				return fmt.Errorf("surrogate: decode model: target %d has %d weights, want %d", t, len(w), want)
			}
		}
	}
	if mj.Lambda <= 0 {
		mj.Lambda = 1e-6
	}
	m.feats = mj.Features
	m.targets = mj.Targets
	m.lambda = mj.Lambda
	m.weights = mj.Weights
	m.rows = mj.Rows
	m.hash = mj.Hash
	return nil
}
