// Package linalgtest is the generic linear algebra the solver's tests
// check the production code against: a CSR matrix assembled from triplets
// and a dense LU factorisation with partial pivoting. Production code runs
// only linalg's CG over structure-specific operators; these independent
// implementations are the oracles its results must match.
//
// Import it from _test.go files only. It does not import linalg, so
// linalg's own in-package tests can use it; *CSR satisfies linalg.Operator
// structurally.
package linalgtest

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalgtest: singular matrix")

// Coord is one (row, col, value) triplet used while assembling a sparse
// matrix; duplicate coordinates are summed, matching MNA stamping semantics.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix, built from triplets with NewCSR.
type CSR struct {
	N      int // square dimension
	RowPtr []int
	ColIdx []int
	Vals   []float64
}

// NewCSR assembles an n×n CSR matrix from triplets, summing duplicates in
// input order.
func NewCSR(n int, trips []Coord) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("linalgtest: invalid CSR dimension %d", n)
	}
	for _, t := range trips {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalgtest: triplet (%d,%d) outside %d×%d", t.Row, t.Col, n, n)
		}
	}
	// Order triplet indices by (row, col) to find unique slots: a counting
	// pass buckets by row, then each row's entries are insertion-sorted by
	// column (stable, so duplicate summation order is the deterministic
	// input order).
	rowStart := make([]int, n+1)
	for _, t := range trips {
		rowStart[t.Row+1]++
	}
	for r := 0; r < n; r++ {
		rowStart[r+1] += rowStart[r]
	}
	order := make([]int, len(trips))
	next := make([]int, n)
	copy(next, rowStart[:n])
	for i, t := range trips {
		order[next[t.Row]] = i
		next[t.Row]++
	}
	for r := 0; r < n; r++ {
		seg := order[rowStart[r]:rowStart[r+1]]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && trips[seg[j]].Col < trips[seg[j-1]].Col; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	m.ColIdx = make([]int, 0, len(trips))
	m.Vals = make([]float64, 0, len(trips))
	prevRow, prevCol := -1, -1
	for _, idx := range order {
		t := trips[idx]
		if t.Row != prevRow || t.Col != prevCol {
			m.ColIdx = append(m.ColIdx, t.Col)
			m.Vals = append(m.Vals, 0)
			for r := prevRow + 1; r <= t.Row; r++ {
				m.RowPtr[r] = len(m.Vals) - 1
			}
			prevRow, prevCol = t.Row, t.Col
		}
		m.Vals[len(m.Vals)-1] += t.Val
	}
	for r := prevRow + 1; r <= n; r++ {
		m.RowPtr[r] = len(m.Vals)
	}
	return m, nil
}

// Dim returns the square dimension.
func (m *CSR) Dim() int { return m.N }

// NNZ returns the number of stored elements.
func (m *CSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j), zero where nothing is stored.
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Vals[k]
		}
	}
	return 0
}

// MulVec computes y = M·x, reusing y if it has the right length. Each row
// sums its stored elements in column order, starting from 0.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.N {
		panic(fmt.Sprintf("linalgtest: CSR MulVec got %d, want %d", len(x), m.N))
	}
	if len(y) != m.N {
		y = make([]float64, m.N)
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	return y
}

// Diagonal extracts the matrix diagonal (zero where absent).
func (m *CSR) Diagonal() []float64 {
	d := make([]float64, m.N)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zero rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalgtest: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i,j); the natural operation for MNA
// stamping.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// MulVec computes y = M·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalgtest: MulVec shape mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := range y {
		s := 0.0
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// LU holds an LU factorisation with partial pivoting of a square matrix.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// FactorLU computes the LU factorisation of a square matrix with partial
// pivoting. The input is not modified.
func FactorLU(m *Dense) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalgtest: LU needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	f := &LU{n: n, lu: append([]float64(nil), m.Data...), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, maxv := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxv {
				p, maxv = i, a
			}
		}
		if !(maxv > 0) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		rowK := f.lu[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			rowI := f.lu[i*n : i*n+n]
			l := rowI[k] / rowK[k]
			rowI[k] = l
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve computes x such that A·x = b for the factored matrix A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalgtest: rhs length %d, want %d", len(b), f.n)
	}
	n := f.n
	x := make([]float64, n)
	for i := range x {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with the unit lower triangle, then back
	// substitution with the upper one.
	for i := 1; i < n; i++ {
		for j, l := range f.lu[i*n : i*n+i] {
			x[i] -= l * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			x[i] -= row[j] * x[j]
		}
		x[i] /= row[i]
	}
	return x, nil
}

// SolveDense factors A and solves A·x = b once.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
