// Package la implements the small dense linear-algebra kernels the
// twin needs: a dense solve (LU with partial pivoting) for the
// surrogate's ridge normal equations, tridiagonal (Thomas) solves, and
// the vector operations of the ODE integrators. Systems in this codebase
// are tiny (tens of unknowns), so the implementation favours clarity and
// numerical robustness over blocking or parallelism.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("la: singular matrix")

// Matrix is a dense row-major n×m matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// MulVec computes y = M·x. y must have length Rows and x length Cols.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("la: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, xv := range x {
			s += row[j] * xv
		}
		y[i] = s
	}
}

// luFactors holds an LU factorization with partial pivoting (PA = LU).
type luFactors struct {
	n   int
	lu  []float64 // packed L (unit diagonal implied) and U
	piv []int
}

// factorize computes the LU decomposition of square matrix a with
// partial pivoting. The input matrix is not modified.
func factorize(a *Matrix) (*luFactors, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: factorize requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &luFactors{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// solve solves A·x = b using the factorization. b is not modified; the
// solution is written into x (which may alias b).
func (f *luFactors) solve(b, x []float64) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("la: solve dimension mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	// Apply permutation into a scratch copy to allow x aliasing b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * y[j]
		}
		y[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * y[j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return ErrSingular
		}
		y[i] = s / d
	}
	copy(x, y)
	return nil
}

// SolveDense factorizes a and solves a·x = b.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := factorize(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := f.solve(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTridiag solves a tridiagonal system using the Thomas algorithm.
// sub, diag, sup are the sub-, main and super-diagonals (len(sub) and
// len(sup) are n-1). The right-hand side b and solution share length n.
// Inputs are not modified.
func SolveTridiag(sub, diag, sup, b []float64) ([]float64, error) {
	n := len(diag)
	if len(b) != n || len(sub) != n-1 || len(sup) != n-1 {
		return nil, fmt.Errorf("la: SolveTridiag dimension mismatch")
	}
	c := make([]float64, n-1)
	d := make([]float64, n)
	if diag[0] == 0 {
		return nil, ErrSingular
	}
	c[0] = sup[0] / diag[0]
	d[0] = b[0] / diag[0]
	for i := 1; i < n; i++ {
		den := diag[i] - sub[i-1]*c[i-1]
		if den == 0 || math.IsNaN(den) {
			return nil, ErrSingular
		}
		if i < n-1 {
			c[i] = sup[i] / den
		}
		d[i] = (b[i] - sub[i-1]*d[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = d[i] - c[i]*x[i+1]
	}
	return x, nil
}

// Vector helpers.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AXPY computes y ← a·x + y element-wise.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: AXPY length mismatch")
	}
	for i, xv := range x {
		y[i] += a * xv
	}
}
