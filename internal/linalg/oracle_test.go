package linalg

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/linalg/linalgtest"
)

// The test-support oracles (linalgtest) are what the structured solver is
// checked against, so they carry their own tests here: the dense LU and
// the CSR assembly.

func TestDenseBasics(t *testing.T) {
	m := linalgtest.NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Add(0, 0, 2)
	m.Set(1, 2, -4)
	if m.At(0, 0) != 3 || m.At(1, 2) != -4 || m.At(1, 1) != 0 {
		t.Fatalf("unexpected contents: %+v", m)
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("linalgtest.NewDense(0,1) should panic")
		}
	}()
	linalgtest.NewDense(0, 1)
}

func TestMulVec(t *testing.T) {
	m := linalgtest.NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestLUSolveKnown(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
	a := linalgtest.NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := linalgtest.SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := linalgtest.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := linalgtest.SolveDense(a, []float64{1, 2}); err != linalgtest.ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := linalgtest.FactorLU(linalgtest.NewDense(2, 3)); err == nil {
		t.Fatal("non-square LU should fail")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero pivot in the (0,0) position requires row exchange.
	a := linalgtest.NewDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := linalgtest.SolveDense(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solution %v, want [3 2]", x)
	}
}

func TestLUSolveWrongRHS(t *testing.T) {
	a := linalgtest.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := linalgtest.FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("short rhs should fail")
	}
}

// Property: for random diagonally dominant systems, A·Solve(A,b) ≈ b.
func TestLURandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		a := linalgtest.NewDense(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1) // strict diagonal dominance → nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := linalgtest.SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.MulVec(x)
		for i := range r {
			r[i] -= b[i]
		}
		if Norm2(r) > 1e-9*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %v too large", trial, Norm2(r))
		}
	}
}

func TestCSRAssemblySumsDuplicates(t *testing.T) {
	trips := []linalgtest.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 5}, {Row: 0, Col: 1, Val: -1}}
	m, err := linalgtest.NewCSR(2, trips)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("(0,0) = %v, want 3", got)
	}
	if got := m.At(0, 1); got != -1 {
		t.Errorf("(0,1) = %v, want -1", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("(1,0) = %v, want 0", got)
	}
}

func TestCSRRejectsBadInput(t *testing.T) {
	if _, err := linalgtest.NewCSR(0, nil); err == nil {
		t.Error("dimension 0 should fail")
	}
	if _, err := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, err := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Error("negative col should fail")
	}
}

func TestCSRMulVec(t *testing.T) {
	m, err := linalgtest.NewCSR(3, []linalgtest.Coord{{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 4}})
	if err != nil {
		t.Fatal(err)
	}
	y := m.MulVec([]float64{1, 2, 3}, nil)
	want := []float64{2, 6, 13}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

func TestCSREmptyRow(t *testing.T) {
	// Row 1 has no entries; RowPtr must still be consistent.
	m, err := linalgtest.NewCSR(3, []linalgtest.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	y := m.MulVec([]float64{5, 6, 7}, nil)
	if y[0] != 5 || y[1] != 0 || y[2] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestDiagonal(t *testing.T) {
	m, err := linalgtest.NewCSR(3, []linalgtest.Coord{{Row: 0, Col: 0, Val: 4}, {Row: 1, Col: 2, Val: 9}, {Row: 2, Col: 2, Val: 6}})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Diagonal()
	if d[0] != 4 || d[1] != 0 || d[2] != 6 {
		t.Fatalf("Diagonal = %v", d)
	}
}
