package ode

import (
	"fmt"
	"math"

	"exadigit/internal/la"
)

// AdaptiveConfig configures the adaptive integrator.
type AdaptiveConfig struct {
	RelTol   float64 // relative tolerance (default 1e-6)
	AbsTol   float64 // absolute tolerance (default 1e-8)
	HInit    float64 // initial step (default: span/100)
	HMin     float64 // smallest permitted step (default: span*1e-12)
	HMax     float64 // largest permitted step (default: span)
	MaxSteps int     // safety cap on accepted+rejected steps (default 1e6)
}

func (c *AdaptiveConfig) defaults(span float64) {
	if c.RelTol <= 0 {
		c.RelTol = 1e-6
	}
	if c.AbsTol <= 0 {
		c.AbsTol = 1e-8
	}
	if c.HInit <= 0 {
		c.HInit = span / 100
	}
	if c.HMin <= 0 {
		c.HMin = span * 1e-12
	}
	if c.HMax <= 0 {
		c.HMax = span
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1_000_000
	}
}

// AdaptiveStats reports the work performed by an adaptive integration.
type AdaptiveStats struct {
	Accepted int
	Rejected int
	LastStep float64
}

// Dormand–Prince 5(4) coefficients (the RK45 pair behind MATLAB's ode45
// and SciPy's default solver). Seven stages; the 5th-order solution
// propagates, the embedded 4th-order solution provides the error
// estimate.
const dpStages = 7

var (
	dpA = [dpStages]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpB = [dpStages][dpStages - 1]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	dpC5 = [dpStages]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	dpC4 = [dpStages]float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
)

// AdaptiveStepper advances a System with the Dormand–Prince 5(4) pair
// under mixed absolute/relative error control. The stepper is
// persistent: its stage buffers are allocated once at construction and
// the accepted step size is carried (warm-started) across Integrate
// calls, so a hot loop that repeatedly integrates short spans — the
// cooling plant's control periods — performs no per-call allocation and
// no per-call step-size rediscovery.
type AdaptiveStepper struct {
	sys System
	cfg AdaptiveConfig

	// stage and state scratch, sized to sys.Dim() at construction
	k          [dpStages][]float64
	ytmp       []float64
	yhi, ylo   []float64
	h          float64 // warm-started step suggestion; 0 until first use
	cumulative AdaptiveStats
}

// NewAdaptiveStepper builds a persistent stepper for sys. The config's
// zero fields are defaulted per Integrate call relative to that call's
// span.
func NewAdaptiveStepper(sys System, cfg AdaptiveConfig) *AdaptiveStepper {
	n := sys.Dim()
	s := &AdaptiveStepper{
		sys: sys, cfg: cfg,
		ytmp: make([]float64, n),
		yhi:  make([]float64, n),
		ylo:  make([]float64, n),
	}
	for i := range s.k {
		s.k[i] = make([]float64, n)
	}
	return s
}

// Stats returns the cumulative step accounting across every Integrate
// call since construction (or the last Reset).
func (s *AdaptiveStepper) Stats() AdaptiveStats { return s.cumulative }

// Reset clears the warm-started step size and the cumulative stats.
func (s *AdaptiveStepper) Reset() {
	s.h = 0
	s.cumulative = AdaptiveStats{}
}

// Integrate advances y in place from t0 to t1 and returns this call's
// step accounting. The accepted step size is retained as the warm start
// for the next call.
func (s *AdaptiveStepper) Integrate(t0, t1 float64, y []float64) (AdaptiveStats, error) {
	var st AdaptiveStats
	if t1 <= t0 {
		return st, nil
	}
	cfg := s.cfg
	cfg.defaults(t1 - t0)
	n := s.sys.Dim()
	if len(y) != n {
		return st, fmt.Errorf("ode: state length %d != dim %d", len(y), n)
	}
	hSug := s.h
	if hSug <= 0 {
		hSug = math.Min(cfg.HInit, cfg.HMax)
	}
	hSug = math.Max(cfg.HMin, math.Min(hSug, cfg.HMax))

	t := t0
	for t < t1 {
		if st.Accepted+st.Rejected > cfg.MaxSteps {
			s.accumulate(st)
			return st, fmt.Errorf("%w: exceeded %d steps", ErrStepFailed, cfg.MaxSteps)
		}
		h := hSug
		if t+h > t1 {
			h = t1 - t
		}
		for stage := 0; stage < dpStages; stage++ {
			copy(s.ytmp, y)
			for j := 0; j < stage; j++ {
				la.AXPY(h*dpB[stage][j], s.k[j], s.ytmp)
			}
			s.sys.Derivatives(t+dpA[stage]*h, s.ytmp, s.k[stage])
		}
		copy(s.yhi, y)
		copy(s.ylo, y)
		for stage := 0; stage < dpStages; stage++ {
			la.AXPY(h*dpC5[stage], s.k[stage], s.yhi)
			la.AXPY(h*dpC4[stage], s.k[stage], s.ylo)
		}
		// Error estimate scaled by mixed absolute/relative tolerance.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			sc := cfg.AbsTol + cfg.RelTol*math.Max(math.Abs(y[i]), math.Abs(s.yhi[i]))
			e := math.Abs(s.yhi[i]-s.ylo[i]) / sc
			if e > errNorm {
				errNorm = e
			}
		}
		if errNorm <= 1 || h <= cfg.HMin {
			t += h
			copy(y, s.yhi)
			st.Accepted++
			st.LastStep = h
		} else {
			st.Rejected++
		}
		// Classic step-size update with safety factor.
		if errNorm == 0 {
			hSug = cfg.HMax
		} else {
			hSug = h * 0.9 * math.Pow(errNorm, -0.2)
		}
		hSug = math.Max(cfg.HMin, math.Min(hSug, cfg.HMax))
		if math.IsNaN(errNorm) || math.IsInf(errNorm, 0) {
			s.accumulate(st)
			return st, fmt.Errorf("%w: non-finite error estimate at t=%g", ErrStepFailed, t)
		}
	}
	s.h = hSug
	s.accumulate(st)
	return st, nil
}

func (s *AdaptiveStepper) accumulate(st AdaptiveStats) {
	s.cumulative.Accepted += st.Accepted
	s.cumulative.Rejected += st.Rejected
	if st.LastStep > 0 {
		s.cumulative.LastStep = st.LastStep
	}
}
