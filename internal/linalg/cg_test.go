package linalg

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/linalg/linalgtest"
)

// randomSPD builds a random symmetric diagonally dominant sparse matrix.
func randomSPD(n int, rng *rand.Rand) (*linalgtest.CSR, []linalgtest.Coord) {
	var trips []linalgtest.Coord
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -math.Abs(rng.NormFloat64())
			trips = append(trips, linalgtest.Coord{Row: i, Col: j, Val: v}, linalgtest.Coord{Row: j, Col: i, Val: v})
			rowSum[i] += -v
			rowSum[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		trips = append(trips, linalgtest.Coord{Row: i, Col: i, Val: rowSum[i] + 1 + rng.Float64()})
	}
	m, err := linalgtest.NewCSR(n, trips)
	if err != nil {
		panic(err)
	}
	return m, trips
}

func TestSolveCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(200)
		m, _ := randomSPD(n, rng)
		for i := 0; i < n; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if j := m.ColIdx[k]; math.Float64bits(m.Vals[k]) != math.Float64bits(m.At(j, i)) {
					t.Fatalf("test matrix not symmetric at (%d,%d)", i, j)
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, iters, err := SolveCG(m, b, nil, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if iters <= 0 {
			t.Fatalf("trial %d: reported %d iterations", trial, iters)
		}
		r := m.MulVec(x, nil)
		for i := range r {
			r[i] -= b[i]
		}
		if Norm2(r) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual %v", trial, Norm2(r))
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m, _ := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	x, iters, err := SolveCG(m, []float64{0, 0}, nil, CGOptions{})
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: %v, %d", err, iters)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := randomSPD(100, rng)
	b := make([]float64, 100)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, coldIters, err := SolveCG(m, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, warmIters, err := SolveCG(m, b, x, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmIters > coldIters {
		t.Fatalf("warm start took %d iters, cold %d", warmIters, coldIters)
	}
}

func TestSolveCGErrors(t *testing.T) {
	m, _ := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	if _, _, err := SolveCG(m, []float64{1}, nil, CGOptions{}); err == nil {
		t.Error("short rhs should fail")
	}
	zeroDiag, _ := linalgtest.NewCSR(2, []linalgtest.Coord{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if _, _, err := SolveCG(zeroDiag, []float64{1, 1}, nil, CGOptions{}); err == nil {
		t.Error("zero diagonal should fail")
	}
	if _, _, err := SolveCG(m, []float64{1, 1}, nil, CGOptions{MaxIter: 0, Tol: 1e-30}); err != nil {
		// MaxIter 0 defaults to 10N which is plenty for identity.
		t.Errorf("identity solve failed: %v", err)
	}
}
