// Package ode implements the ordinary-differential-equation integrators
// that substitute for the Modelica/Dymola solver stack used by the paper's
// cooling model. The thermo-fluid network is a small (tens of states),
// mildly stiff lumped-parameter system, and the plant uses two schemes:
//
//   - the classic fixed-step RK4 method (FixedStepper) for fast,
//     bit-reproducible stepping at the 1 s plant time step;
//   - the adaptive embedded Dormand–Prince 5(4) pair (AdaptiveStepper)
//     under error control, behind the plant's quiescence fast path.
//
// Both operate on the System interface and never retain caller slices
// across calls.
package ode

import (
	"errors"
	"math"

	"exadigit/internal/la"
)

// System is a first-order ODE system y' = f(t, y).
type System interface {
	// Dim returns the number of state variables.
	Dim() int
	// Derivatives writes f(t, y) into dydt. Implementations must not
	// retain y or dydt.
	Derivatives(t float64, y, dydt []float64)
}

// Func adapts a plain function to the System interface.
type Func struct {
	N int
	F func(t float64, y, dydt []float64)
}

// Dim implements System.
func (f Func) Dim() int { return f.N }

// Derivatives implements System.
func (f Func) Derivatives(t float64, y, dydt []float64) { f.F(t, y, dydt) }

// ErrStepFailed is returned when an integrator cannot complete a step
// (step budget exhausted or a non-finite error estimate).
var ErrStepFailed = errors.New("ode: step failed")

// FixedStepper advances a System with the classic fourth-order
// Runge–Kutta method at a fixed step. The zero value is not usable; call
// NewFixedStepper.
type FixedStepper struct {
	sys System
	// scratch buffers sized to sys.Dim(), reused across steps to avoid
	// per-step allocation in the simulation hot loop.
	k1, k2, k3, k4, tmp []float64
}

// NewFixedStepper builds an RK4 stepper for sys.
func NewFixedStepper(sys System) *FixedStepper {
	n := sys.Dim()
	return &FixedStepper{
		sys: sys,
		k1:  make([]float64, n), k2: make([]float64, n),
		k3: make([]float64, n), k4: make([]float64, n),
		tmp: make([]float64, n),
	}
}

// Step advances y in place from t by h and returns t+h.
func (s *FixedStepper) Step(t float64, y []float64, h float64) float64 {
	n := s.sys.Dim()
	if len(y) != n {
		panic("ode: state length mismatch")
	}
	s.sys.Derivatives(t, y, s.k1)
	copy(s.tmp, y)
	la.AXPY(h/2, s.k1, s.tmp)
	s.sys.Derivatives(t+h/2, s.tmp, s.k2)
	copy(s.tmp, y)
	la.AXPY(h/2, s.k2, s.tmp)
	s.sys.Derivatives(t+h/2, s.tmp, s.k3)
	copy(s.tmp, y)
	la.AXPY(h, s.k3, s.tmp)
	s.sys.Derivatives(t+h, s.tmp, s.k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
	return t + h
}

// Integrate advances y from t0 to t1 in equal steps no larger than hMax
// and returns t1.
func (s *FixedStepper) Integrate(t0, t1 float64, y []float64, hMax float64) float64 {
	if t1 <= t0 || hMax <= 0 {
		return t0
	}
	steps := int(math.Ceil((t1 - t0) / hMax))
	h := (t1 - t0) / float64(steps)
	t := t0
	for i := 0; i < steps; i++ {
		t = s.Step(t, y, h)
	}
	return t1
}
