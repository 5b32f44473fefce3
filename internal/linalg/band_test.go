package linalg

import "testing"

// countBandFactorRef re-derives the factorization flop count by walking the
// loop structure of a row-wise banded Cholesky — the oracle for the closed
// formula.
func countBandFactorRef(n, bw int) int64 {
	var flops int64
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			flops += 2*int64(j-lo) + 1 // multiply-subtract pairs + div/sqrt
		}
	}
	return flops
}

// countBandSolveRef mirrors a banded forward+back substitution pair.
func countBandSolveRef(n, bw int) int64 {
	var flops int64
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		flops += 2*int64(i-lo) + 1
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		flops += 2*int64(hi-i) + 1
	}
	return flops
}

// TestBandOpCountFormulas pins the closed-form band accounting against
// loop-structure oracles across shapes, including n ≤ bw edge cases.
func TestBandOpCountFormulas(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {1, 3}, {2, 1}, {3, 5}, {8, 1}, {17, 2}, {64, 1}} {
		n, bw := shape[0], shape[1]
		var f, s OpCount
		f.CountBandFactor(n, bw)
		s.CountBandSolve(n, bw)
		if want := countBandFactorRef(n, bw); f.Flops != want {
			t.Errorf("n=%d bw=%d factor flops = %d, want %d", n, bw, f.Flops, want)
		}
		if want := countBandSolveRef(n, bw); s.Flops != want {
			t.Errorf("n=%d bw=%d solve flops = %d, want %d", n, bw, s.Flops, want)
		}
		if f.BandFactorizations != 1 {
			t.Errorf("n=%d bw=%d BandFactorizations = %d, want 1", n, bw, f.BandFactorizations)
		}
	}
}
