package linalg

import "fmt"

// ErrNotSPD is returned when a Cholesky factorisation meets a pivot that is
// not strictly positive — the matrix is not (numerically) symmetric
// positive definite.
var ErrNotSPD = fmt.Errorf("linalg: matrix not symmetric positive definite")

// Preconditioner supplies z ≈ A⁻¹·r to SolveCG. Implementations must be
// symmetric positive definite (a CG requirement), deterministic, and apply
// with r and z non-aliased. An implementation is confined to one goroutine
// at a time, like every other solver structure in this package.
type Preconditioner interface {
	// Apply computes z = M⁻¹·r. A non-nil ops accumulates the apply's
	// operation counts; accounting is observational only.
	Apply(r, z []float64, ops *OpCount)
}

// jacobiPrecond is the classic diagonal preconditioner — the SolveCG
// fallback when no structure-aware preconditioner is supplied.
type jacobiPrecond struct {
	inv []float64
}

// newJacobiPrecond inverts the operator diagonal. The diagonal scan and
// inversion are charged to ops exactly as the historical in-line Jacobi
// path did, keeping the documented CG accounting contract intact.
func newJacobiPrecond(a Operator, ops *OpCount) (*jacobiPrecond, error) {
	diag := a.Diagonal()
	ops.CountBytes(16 * int64(a.NNZ())) // diagonal scan over Vals + ColIdx
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("linalg: zero diagonal at %d, Jacobi preconditioner undefined", i)
		}
		inv[i] = 1 / d
	}
	ops.CountVecOp(len(diag), 1) // diagonal inversion
	return &jacobiPrecond{inv: inv}, nil
}

func (p *jacobiPrecond) Apply(r, z []float64, ops *OpCount) {
	for i := range z {
		z[i] = p.inv[i] * r[i]
	}
	ops.CountVecOp(len(z), 1)
	ops.CountPrecondApply()
}
