package linalg

import (
	"testing"

	"mnsim/internal/linalg/linalgtest"
)

// testTridiag builds the SPD tridiagonal test matrix (4 on the diagonal,
// −1 off) used by the analytic op-count assertions.
func testTridiag(t *testing.T, n int) *linalgtest.CSR {
	t.Helper()
	var trips []linalgtest.Coord
	for i := 0; i < n; i++ {
		trips = append(trips, linalgtest.Coord{Row: i, Col: i, Val: 4})
		if i+1 < n {
			trips = append(trips, linalgtest.Coord{Row: i, Col: i + 1, Val: -1})
			trips = append(trips, linalgtest.Coord{Row: i + 1, Col: i, Val: -1})
		}
	}
	m, err := linalgtest.NewCSR(n, trips)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolveCGOpCountAnalytic pins the accounting contract documented on
// CGOptions.Ops: for a solve converging in k iterations, SpMVs = k+1,
// Dots = 3k+1, Axpys = 2k, and the flop/byte totals follow the per-kernel
// cost model exactly.
func TestSolveCGOpCountAnalytic(t *testing.T) {
	const n = 32
	a := testTridiag(t, n)
	nnz := len(a.Vals)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	var ops OpCount
	_, k, err := SolveCG(a, b, nil, CGOptions{Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if k == 0 {
		t.Fatal("converged in zero iterations; test matrix degenerate")
	}
	if got, want := ops.SpMVs, int64(k+1); got != want {
		t.Errorf("SpMVs = %d, want %d (k = %d)", got, want, k)
	}
	if got, want := ops.Dots, int64(3*k+1); got != want {
		t.Errorf("Dots = %d, want %d (k = %d)", got, want, k)
	}
	if got, want := ops.Axpys, int64(2*k); got != want {
		t.Errorf("Axpys = %d, want %d (k = %d)", got, want, k)
	}
	nn, zz, kk := int64(n), int64(nnz), int64(k)
	wantFlops := (2*zz + 7*nn + 1) + kk*(2*zz+8*nn+3) + (kk-1)*(5*nn+1)
	if ops.Flops != wantFlops {
		t.Errorf("Flops = %d, want %d (n %d nnz %d k %d)", ops.Flops, wantFlops, n, nnz, k)
	}
	wantBytes := (40*zz + 128*nn) + kk*(24*zz+88*nn) + (kk-1)*64*nn
	if ops.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d (n %d nnz %d k %d)", ops.Bytes, wantBytes, n, nnz, k)
	}
}

// TestSolveCGOpsBitIdentical asserts accounting is purely observational:
// the solution vector with accounting enabled is bit-identical to the one
// without.
func TestSolveCGOpsBitIdentical(t *testing.T) {
	const n = 24
	a := testTridiag(t, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.5 + float64(i%3)
	}
	plain, k1, err := SolveCG(a, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ops OpCount
	counted, k2, err := SolveCG(a, b, nil, CGOptions{Ops: &ops})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("iteration counts differ: %d vs %d", k1, k2)
	}
	for i := range plain {
		//lint:ignore nofloateq accounting neutrality is an exact-equality contract by design
		if plain[i] != counted[i] {
			t.Fatalf("x[%d] differs with accounting: %v vs %v", i, plain[i], counted[i])
		}
	}
	if ops.Flops == 0 || ops.SpMVs == 0 {
		t.Errorf("accounting recorded nothing: %+v", ops)
	}
}

// TestOpCountNilSafe: every Count* method must be a no-op on a nil
// receiver — kernels thread possibly-nil pointers unconditionally.
func TestOpCountNilSafe(t *testing.T) {
	var o *OpCount
	o.CountSpMV(10, 5)
	o.CountDot(5)
	o.CountNorm(5)
	o.CountAxpy(5)
	o.CountVecOp(5, 2)
	o.CountFlops(7)
	o.CountBytes(7)
	o.CountBandFactor(4, 1)
	o.CountBandSolve(4, 1)
	o.CountPrecondApply()
	o.Add(&OpCount{Flops: 1})
	var dst OpCount
	dst.Add(nil)
	if dst != (OpCount{}) {
		t.Errorf("Add(nil) mutated receiver: %+v", dst)
	}
}

// TestEstimateCondOpsAccumulates: the condition estimator's power and
// inverse iterations must land in the accumulator.
func TestEstimateCondOpsAccumulates(t *testing.T) {
	a := testTridiag(t, 16)
	var ops OpCount
	plain := EstimateCond(a, nil)
	counted := EstimateCond(a, &ops)
	//lint:ignore nofloateq accounting neutrality is an exact-equality contract by design
	if plain != counted {
		t.Errorf("estimate changed with accounting: %v vs %v", plain, counted)
	}
	if ops.SpMVs < condPowerIters {
		t.Errorf("SpMVs = %d, want at least the %d power iterations", ops.SpMVs, condPowerIters)
	}
	if ops.Flops == 0 || ops.Dots == 0 {
		t.Errorf("accounting recorded nothing: %+v", ops)
	}
}
