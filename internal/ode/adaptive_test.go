package ode

import (
	"math"
	"testing"
)

// stiffLinear is y' = -200(y - sin t) + cos t with exact solution
// y(t) = sin t + (y0 − sin 0)·e^{−200t}: a stiff linear test problem
// whose transient dies in ~25 ms and whose smooth tail tracks sin t.
var stiffLinear = Func{N: 1, F: func(t float64, y, dydt []float64) {
	dydt[0] = -200*(y[0]-math.Sin(t)) + math.Cos(t)
}}

// TestAdaptiveStepperMatchesStandalone: a persistent stepper advanced
// over five one-second spans lands where a fresh stepper integrating
// the whole span in one call does, and both on the analytic answer.
func TestAdaptiveStepperMatchesStandalone(t *testing.T) {
	cfg := AdaptiveConfig{RelTol: 1e-9, AbsTol: 1e-12}
	whole := []float64{1}
	if _, err := integrateDP(decay, 0, 5, whole, cfg); err != nil {
		t.Fatal(err)
	}
	pieces := []float64{1}
	s := NewAdaptiveStepper(decay, cfg)
	for t0 := 0.0; t0 < 5; t0++ {
		if _, err := s.Integrate(t0, t0+1, pieces); err != nil {
			t.Fatal(err)
		}
	}
	for _, y := range []float64{whole[0], pieces[0]} {
		if math.Abs(y-math.Exp(-5)) > 1e-8 {
			t.Errorf("y(5) = %v, want %v", y, math.Exp(-5))
		}
	}
}

// TestAdaptiveConvergenceWithTolerance pins error control: tightening
// the tolerance by 10³ must tighten the achieved global error by at
// least ~10² on an analytic linear system.
func TestAdaptiveConvergenceWithTolerance(t *testing.T) {
	sys := Func{N: 2, F: func(t float64, y, dydt []float64) {
		dydt[0] = -2*y[0] + y[1]
		dydt[1] = y[0] - 2*y[1]
	}}
	exact := func() (float64, float64) {
		return 0.5*math.Exp(-1) + 0.5*math.Exp(-3), 0.5*math.Exp(-1) - 0.5*math.Exp(-3)
	}
	w0, w1 := exact()
	run := func(tol float64) float64 {
		y := []float64{1, 0}
		st, err := integrateDP(sys, 0, 1, y, AdaptiveConfig{RelTol: tol, AbsTol: tol * 1e-2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Accepted == 0 {
			t.Fatal("no accepted steps")
		}
		return math.Max(math.Abs(y[0]-w0), math.Abs(y[1]-w1))
	}
	loose := run(1e-4)
	tight := run(1e-7)
	if tight*100 > loose && loose > 1e-12 {
		t.Errorf("error did not contract with tolerance: loose %v, tight %v", loose, tight)
	}
}

// TestAdaptiveStiffAccounting pins the step-rejection accounting on a
// stiff problem driven from a too-large initial step: rejections must be
// counted and the solution must still land on the analytic answer.
func TestAdaptiveStiffAccounting(t *testing.T) {
	y := []float64{2}
	s := NewAdaptiveStepper(stiffLinear, AdaptiveConfig{RelTol: 1e-7, AbsTol: 1e-9, HInit: 0.5})
	st, err := s.Integrate(0, 1, y)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Error("stiff transient with HInit=0.5 should reject at least one step")
	}
	want := math.Sin(1) + 2*math.Exp(-200)
	if math.Abs(y[0]-want) > 1e-5 {
		t.Errorf("y(1) = %v, want %v", y[0], want)
	}
	total := s.Stats()
	if total.Accepted != st.Accepted || total.Rejected != st.Rejected {
		t.Errorf("cumulative stats %+v != call stats %+v", total, st)
	}
}

// TestAdaptiveStepperWarmStart pins the carried step size: on a smooth
// problem, a second identical span needs no step-size rediscovery, so it
// takes no more accepted steps than the first and starts from the
// previously accepted step.
func TestAdaptiveStepperWarmStart(t *testing.T) {
	s := NewAdaptiveStepper(oscillator, AdaptiveConfig{RelTol: 1e-6, AbsTol: 1e-9})
	y := []float64{1, 0}
	first, err := s.Integrate(0, 1, y)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Integrate(1, 2, y)
	if err != nil {
		t.Fatal(err)
	}
	if second.Accepted > first.Accepted {
		t.Errorf("warm start regressed: %d accepted steps then %d", first.Accepted, second.Accepted)
	}
	s.Reset()
	if st := s.Stats(); st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("Reset left stats %+v", st)
	}
}

// TestAdaptiveStepperDoesNotAllocate pins the persistent stepper's
// allocation-freedom across Integrate calls — the property the cooling
// hot path depends on.
func TestAdaptiveStepperDoesNotAllocate(t *testing.T) {
	sys := Func{N: 8, F: func(t float64, y, dydt []float64) {
		for i := range y {
			dydt[i] = -0.1 * (y[i] - 20)
		}
	}}
	s := NewAdaptiveStepper(sys, AdaptiveConfig{RelTol: 1e-6, AbsTol: 1e-8})
	y := make([]float64, 8)
	for i := range y {
		y[i] = 30
	}
	if _, err := s.Integrate(0, 1, y); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Integrate(0, 1, y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Integrate allocates %.0f objects/call; want 0", allocs)
	}
}

func TestAdaptiveStepperValidation(t *testing.T) {
	s := NewAdaptiveStepper(decay, AdaptiveConfig{})
	y := []float64{1}
	if _, err := s.Integrate(3, 3, y); err != nil || y[0] != 1 {
		t.Error("zero span should no-op")
	}
	if _, err := s.Integrate(0, 1, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}
