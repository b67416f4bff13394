package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	x, err := SolveDense(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost keeps the matrix comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		for i := range r {
			r[i] -= b[i]
		}
		for i := range r {
			if math.Abs(r[i]) > 1e-9 {
				t.Errorf("trial %d (n=%d): residual %v too large", trial, n, r[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, []float64{1, 1}); err == nil {
		t.Error("expected ErrSingular for rank-deficient matrix")
	}
}

func TestLUPivotingRequired(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveAliasing(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	f, err := factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{8, 6}
	if err := f.solve(b, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 || b[1] != 3 {
		t.Errorf("aliased solve = %v, want [2 3]", b)
	}
}

func TestTridiagKnown(t *testing.T) {
	// [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] → x = [1 2 3]
	x, err := SolveTridiag([]float64{1, 1}, []float64{2, 2, 2}, []float64{1, 1}, []float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestTridiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		sub := make([]float64, n-1)
		sup := make([]float64, n-1)
		diag := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			diag[i] = 4 + rng.Float64()
			b[i] = rng.NormFloat64()
			if i < n-1 {
				sub[i] = rng.NormFloat64()
				sup[i] = rng.NormFloat64()
			}
		}
		xt, err := SolveTridiag(sub, diag, sup, b)
		if err != nil {
			t.Fatal(err)
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, diag[i])
			if i < n-1 {
				a.Set(i+1, i, sub[i])
				a.Set(i, i+1, sup[i])
			}
		}
		xd, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xt {
			if math.Abs(xt[i]-xd[i]) > 1e-9 {
				t.Fatalf("trial %d: tridiag %v vs dense %v at %d", trial, xt[i], xd[i], i)
			}
		}
	}
}

func TestTridiagSingular(t *testing.T) {
	if _, err := SolveTridiag([]float64{0}, []float64{0, 1}, []float64{0}, []float64{1, 1}); err == nil {
		t.Error("expected singular error")
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("AXPY = %v", y)
	}
}

func TestMulVecIdentityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw)
		if n == 0 || n > 32 {
			return true
		}
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		y := make([]float64, n)
		id.MulVec(raw, y)
		for i := range raw {
			if math.IsNaN(raw[i]) {
				return true
			}
			if y[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
