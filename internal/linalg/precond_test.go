package linalg

import (
	"errors"
	"math"
	"testing"

	"mnsim/internal/linalg/linalgtest"
)

// chainTrips stamps the tridiagonal chain tridiag(−1, 4, −1) of length n.
func chainTrips(n int) []linalgtest.Coord {
	var trips []linalgtest.Coord
	for i := 0; i < n; i++ {
		trips = append(trips, linalgtest.Coord{Row: i, Col: i, Val: 4})
		if i > 0 {
			trips = append(trips, linalgtest.Coord{Row: i, Col: i - 1, Val: -1}, linalgtest.Coord{Row: i - 1, Col: i, Val: -1})
		}
	}
	return trips
}

// triChol is an exact tridiagonal Cholesky preconditioner for a CSR chain,
// charging the band accounting a structure-aware preconditioner charges.
type triChol struct {
	sub, rd []float64 // L sub-diagonal and reciprocal pivots
}

func newTriChol(a *linalgtest.CSR, ops *OpCount) (*triChol, error) {
	n := a.N
	p := &triChol{sub: make([]float64, n), rd: make([]float64, n)}
	ops.CountBandFactor(n, 1)
	prev := 0.0
	for i := 0; i < n; i++ {
		s := a.At(i, i)
		if i > 0 {
			p.sub[i] = a.At(i, i-1) / prev
			s -= p.sub[i] * p.sub[i]
		}
		if !(s > 0) {
			return nil, ErrNotSPD
		}
		prev = math.Sqrt(s)
		p.rd[i] = 1 / prev
	}
	return p, nil
}

func (p *triChol) Apply(r, z []float64, ops *OpCount) {
	n := len(r)
	ops.CountBandSolve(n, 1)
	z[0] = r[0] * p.rd[0]
	for i := 1; i < n; i++ {
		z[i] = (r[i] - p.sub[i]*z[i-1]) * p.rd[i]
	}
	z[n-1] *= p.rd[n-1]
	for i := n - 2; i >= 0; i-- {
		z[i] = (z[i] - p.sub[i+1]*z[i+1]) * p.rd[i]
	}
	ops.CountPrecondApply()
}

// TestSolveCGPrecondAccounting: a custom preconditioner must land its
// factorizations and applies in the op counters.
func TestSolveCGPrecondAccounting(t *testing.T) {
	a, err := linalgtest.NewCSR(6, chainTrips(6))
	if err != nil {
		t.Fatal(err)
	}
	var ops OpCount
	p, err := newTriChol(a, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if ops.BandFactorizations != 1 {
		t.Fatalf("BandFactorizations = %d after build, want 1", ops.BandFactorizations)
	}
	b := []float64{1, 0, 2, 0, 3, 0}
	_, it, err := SolveCG(a, b, nil, CGOptions{Tol: 1e-12, Precond: p, Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if it < 1 {
		t.Fatalf("iterations = %d", it)
	}
	// Setup apply plus one per non-final iteration.
	if ops.PrecondApplies < int64(it) {
		t.Fatalf("PrecondApplies = %d over %d iterations", ops.PrecondApplies, it)
	}
}

// TestSolveCGZeroRHSWithWarmStart: b = 0 has the unique solution x = 0; a
// non-nil x0 must not be echoed back (the pre-fix behaviour).
func TestSolveCGZeroRHSWithWarmStart(t *testing.T) {
	a, err := linalgtest.NewCSR(3, chainTrips(3))
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{1, -2, 3}
	x, it, err := SolveCG(a, make([]float64, 3), x0, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if it != 0 {
		t.Fatalf("iterations = %d, want 0", it)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0 (x0 echoed back?)", i, v)
		}
	}
	// x0 itself must be untouched.
	if x0[0] != 1 || x0[1] != -2 || x0[2] != 3 {
		t.Fatalf("x0 mutated: %v", x0)
	}
}

// TestSolveCGBreakdownOnIndefinite: CG on an indefinite matrix hits
// p·Ap ≤ 0; the solver must return a typed breakdown error rather than
// silently producing NaNs or spinning to MaxIter.
func TestSolveCGBreakdownOnIndefinite(t *testing.T) {
	a, err := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1}})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := SolveCG(a, []float64{0, 1}, nil, CGOptions{MaxIter: 50})
	if err == nil {
		t.Fatal("indefinite solve succeeded")
	}
	var bd *BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("err = %v (%T), want *BreakdownError", err, err)
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("breakdown must satisfy errors.Is(err, ErrNoConvergence); got %v", err)
	}
	if bd.PAp > 0 {
		t.Fatalf("PAp = %v, want ≤ 0", bd.PAp)
	}
	for i, v := range x {
		if math.IsNaN(v) {
			t.Fatalf("x[%d] is NaN — breakdown leaked into the iterate", i)
		}
	}
}

// TestSolveCGWarmStartPerturbed: a warm start from a nearby operating point
// must reach the same answer as a cold start, in no more iterations, and an
// already-converged x0 must be returned bit-unchanged in zero iterations.
func TestSolveCGWarmStartPerturbed(t *testing.T) {
	trips := chainTrips(32)
	a, err := linalgtest.NewCSR(32, trips)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 32)
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	opt := CGOptions{Tol: 1e-11}
	xCold, itCold, err := SolveCG(a, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the system slightly (as a Newton restamp would).
	for i := range trips {
		if trips[i].Row == trips[i].Col {
			trips[i].Val = 4.01
		}
	}
	if a, err = linalgtest.NewCSR(32, trips); err != nil {
		t.Fatal(err)
	}
	xCold2, itCold2, err := SolveCG(a, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	xWarm, itWarm, err := SolveCG(a, b, xCold, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xWarm {
		if math.Abs(xWarm[i]-xCold2[i]) > 1e-8*(1+math.Abs(xCold2[i])) {
			t.Fatalf("warm/cold disagree at %d: %v vs %v", i, xWarm[i], xCold2[i])
		}
	}
	if itWarm > itCold2 {
		t.Fatalf("warm start took %d iters, cold %d", itWarm, itCold2)
	}
	_ = itCold
	// Re-solving from the converged answer is a bit-identical no-op.
	xAgain, itAgain, err := SolveCG(a, b, xWarm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if itAgain != 0 {
		t.Fatalf("re-solve from converged point took %d iters", itAgain)
	}
	for i := range xAgain {
		if math.Float64bits(xAgain[i]) != math.Float64bits(xWarm[i]) {
			t.Fatalf("re-solve not bit-identical at %d", i)
		}
	}
}
