package linalg

import (
	"math"
	"testing"

	"mnsim/internal/linalg/linalgtest"
)

func diagCSR(t *testing.T, d []float64) *linalgtest.CSR {
	t.Helper()
	trips := make([]linalgtest.Coord, len(d))
	for i, v := range d {
		trips[i] = linalgtest.Coord{Row: i, Col: i, Val: v}
	}
	m, err := linalgtest.NewCSR(len(d), trips)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A diagonal matrix has a known spectrum: the estimate must land close.
func TestEstimateCondDiagonal(t *testing.T) {
	d := make([]float64, 10)
	for i := range d {
		d[i] = float64(i + 1) // spectrum 1..10, κ = 10
	}
	cond := EstimateCond(diagCSR(t, d), nil)
	if cond < 7 || cond > 13 {
		t.Fatalf("diagonal κ estimate %.3g, want ~10", cond)
	}
}

// The 1-D Laplacian tridiag(-1, 2, -1) with n = 8 has
// λ_k = 2 − 2·cos(kπ/9): λmin ≈ 0.1206, λmax ≈ 3.879, κ ≈ 32.2.
func TestEstimateCondTridiagonal(t *testing.T) {
	const n = 8
	var trips []linalgtest.Coord
	for i := 0; i < n; i++ {
		trips = append(trips, linalgtest.Coord{Row: i, Col: i, Val: 2})
		if i+1 < n {
			trips = append(trips,
				linalgtest.Coord{Row: i, Col: i + 1, Val: -1},
				linalgtest.Coord{Row: i + 1, Col: i, Val: -1})
		}
	}
	m, err := linalgtest.NewCSR(n, trips)
	if err != nil {
		t.Fatal(err)
	}
	lmin, lmax := ExtremeEigenEstimates(m, nil)
	wantMin := 2 - 2*math.Cos(math.Pi/9)
	wantMax := 2 - 2*math.Cos(8*math.Pi/9)
	if lmax < 0.9*wantMax || lmax > 1.1*wantMax {
		t.Fatalf("λmax estimate %.4g, want ~%.4g", lmax, wantMax)
	}
	if lmin < 0.7*wantMin || lmin > 1.3*wantMin {
		t.Fatalf("λmin estimate %.4g, want ~%.4g", lmin, wantMin)
	}
	cond := EstimateCond(m, nil)
	want := wantMax / wantMin
	if cond < 0.6*want || cond > 1.6*want {
		t.Fatalf("κ estimate %.4g, want ~%.4g", cond, want)
	}
}

// The estimate is deterministic: identical inputs give identical bits —
// the replay contract extends to diagnostics.
func TestEstimateCondDeterministic(t *testing.T) {
	d := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := EstimateCond(diagCSR(t, d), nil)
	b := EstimateCond(diagCSR(t, d), nil)
	if a != b {
		t.Fatalf("estimate not deterministic: %v vs %v", a, b)
	}
}
