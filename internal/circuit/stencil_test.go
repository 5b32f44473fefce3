package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/linalg/linalgtest"
)

// stencilTrips is the MNA triplet stream of the stencil's matrix in the
// classic stamping order — row wires (source first), column wires (sense
// last), then the four entries of every cell — followed, when shifted, by
// one diagonal triplet per node. linalgtest.NewCSR sums duplicates in input
// order, so the resulting CSR is the reference the stencil must match
// bit-for-bit.
func stencilTrips(s *stencil, shifted bool, rowShift, colShift float64) []linalgtest.Coord {
	M, N, gw := s.m, s.n, s.gw
	row := func(m, n int) int { return m*N + n }
	col := func(m, n int) int { return M*N + m*N + n }
	var trips []linalgtest.Coord
	stamp := func(i, j int, g float64) {
		trips = append(trips,
			linalgtest.Coord{Row: i, Col: i, Val: g},
			linalgtest.Coord{Row: j, Col: j, Val: g},
			linalgtest.Coord{Row: i, Col: j, Val: -g},
			linalgtest.Coord{Row: j, Col: i, Val: -g})
	}
	for m := 0; m < M; m++ {
		trips = append(trips, linalgtest.Coord{Row: row(m, 0), Col: row(m, 0), Val: gw})
		for n := 0; n+1 < N; n++ {
			stamp(row(m, n), row(m, n+1), gw)
		}
	}
	for n := 0; n < N; n++ {
		for m := 0; m+1 < M; m++ {
			stamp(col(m, n), col(m+1, n), gw)
		}
		trips = append(trips, linalgtest.Coord{Row: col(M-1, n), Col: col(M-1, n), Val: s.gs})
	}
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			stamp(row(m, n), col(m, n), s.g[m*N+n])
		}
	}
	if shifted {
		for i := 0; i < 2*M*N; i++ {
			sh := rowShift
			if i >= M*N {
				sh = colShift
			}
			trips = append(trips, linalgtest.Coord{Row: i, Col: i, Val: sh})
		}
	}
	return trips
}

// randomStencil fills a stencil with conductances drawn log-uniformly
// across [lo, hi] and wire/sense conductances from the given values.
func randomStencil(m, n int, gw, gs, lo, hi float64, rng *rand.Rand) *stencil {
	s := newStencil(m, n)
	s.gw, s.gs = gw, gs
	for i := range s.g {
		s.g[i] = lo * math.Pow(hi/lo, rng.Float64())
	}
	return s
}

// randomVec draws a test vector mixing signs, magnitudes and signed zeros.
func randomVec(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return x
}

// checkStencilMatchesCSR compares the stencil's diagonal and products on
// random vectors against the CSR reference, bit for bit.
func checkStencilMatchesCSR(t *testing.T, s *stencil, shifted bool, rowShift, colShift float64, rng *rand.Rand) {
	t.Helper()
	if shifted {
		s.setDiag(rowShift, colShift)
	} else {
		s.setDiag(0, 0)
	}
	ref, err := linalgtest.NewCSR(s.Dim(), stencilTrips(s, shifted, rowShift, colShift))
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != ref.NNZ() {
		t.Fatalf("%dx%d: NNZ %d, CSR stores %d", s.m, s.n, s.NNZ(), ref.NNZ())
	}
	for i, want := range ref.Diagonal() {
		if got := s.Diagonal()[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d shifted=%v: diag[%d] = %v, CSR %v", s.m, s.n, shifted, i, got, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		x := randomVec(s.Dim(), rng)
		if trial == 0 {
			// Signed zeros only: every row sum must start from 0 as CSR's
			// does, or an all-(−0) sum comes out −0 instead of +0.
			for i := range x {
				x[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
		want := ref.MulVec(x, nil)
		got := s.MulVec(x, make([]float64, s.Dim()))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d shifted=%v: (A·x)[%d] = %v, CSR %v", s.m, s.n, shifted, i, got[i], want[i])
			}
		}
	}
}

// TestStencilMatchesCSR: on degenerate and general shapes, with and
// without the transient shift, the stencil is the CSR matrix bit for bit.
func TestStencilMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev := device.RRAM()
	for _, shape := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {5, 9}, {32, 32}} {
		for _, shifted := range []bool{false, true} {
			s := randomStencil(shape[0], shape[1], 1/2.5, 1/1500.0, 1/dev.RMax, 1/dev.RMin, rng)
			checkStencilMatchesCSR(t, s, shifted, 3.7e-2, 4.1e-2, rng)
		}
	}
}

// FuzzStencilMatchesCSR drives the stencil/CSR identity through shapes up
// to 8×8, conductances spanning well past the device limits, extreme wire
// and sense conductances, and arbitrary shifts.
func FuzzStencilMatchesCSR(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1), 2.5, 1500.0, 0.0)
	f.Add(uint8(5), uint8(3), int64(7), 1e-3, 1e6, 1e-2)
	f.Add(uint8(8), uint8(8), int64(42), 1e3, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, m, n uint8, seed int64, wireR, rSense, shift float64) {
		for _, v := range []float64{wireR, rSense, shift} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		wireR, rSense, shift = math.Abs(wireR), math.Abs(rSense), math.Abs(shift)
		if wireR < 1e-6 || wireR > 1e9 || rSense < 1e-6 || rSense > 1e9 || shift > 1e9 {
			return
		}
		dev := device.RRAM()
		rng := rand.New(rand.NewSource(seed))
		s := randomStencil(1+int(m%8), 1+int(n%8), 1/wireR, 1/rSense, 1e-3/dev.RMax, 1e3/dev.RMin, rng)
		checkStencilMatchesCSR(t, s, false, 0, 0, rng)
		checkStencilMatchesCSR(t, s, true, shift, 2*shift, rng)
	})
}

// chains lists the global node indices of every row chain, then every
// column chain, in chain order.
func chains(m, n int) [][]int {
	var out [][]int
	for i := 0; i < m; i++ {
		var c []int
		for j := 0; j < n; j++ {
			c = append(c, i*n+j)
		}
		out = append(out, c)
	}
	for j := 0; j < n; j++ {
		var c []int
		for i := 0; i < m; i++ {
			c = append(c, m*n+i*n+j)
		}
		out = append(out, c)
	}
	return out
}

// refChainApply is the reference block-Jacobi apply: each chain's
// tridiagonal block is gathered from the CSR matrix, factored by Cholesky
// (pivot d = √(a − l²), l = sub/d_prev, reciprocal pivots), and solved by
// forward and back substitution, one chain at a time.
func refChainApply(a *linalgtest.CSR, m, n int, r []float64) []float64 {
	z := make([]float64, len(r))
	for _, c := range chains(m, n) {
		k := len(c)
		l, rd := make([]float64, k), make([]float64, k)
		prev := 0.0
		for q, i := range c {
			s := a.At(i, i)
			if q > 0 {
				l[q] = a.At(i, c[q-1]) / prev
				s -= l[q] * l[q]
			}
			prev = math.Sqrt(s)
			rd[q] = 1 / prev
		}
		b := make([]float64, k)
		for q, i := range c {
			b[q] = r[i]
		}
		b[0] *= rd[0]
		for q := 1; q < k; q++ {
			b[q] = (b[q] - l[q]*b[q-1]) * rd[q]
		}
		b[k-1] *= rd[k-1]
		for q := k - 2; q >= 0; q-- {
			b[q] = (b[q] - l[q+1]*b[q+1]) * rd[q]
		}
		for q, i := range c {
			z[i] = b[q]
		}
	}
	return z
}

// TestChainPrecondMatchesReference: the lockstep chain preconditioner's
// apply equals a per-chain tridiagonal Cholesky over the CSR matrix, bit
// for bit, with and without the transient shift.
func TestChainPrecondMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dev := device.RRAM()
	for _, shape := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {5, 9}, {32, 32}} {
		for _, shifted := range []bool{false, true} {
			s := randomStencil(shape[0], shape[1], 1/2.5, 1/1500.0, 1/dev.RMax, 1/dev.RMin, rng)
			rowShift, colShift := 0.0, 0.0
			if shifted {
				rowShift, colShift = 3.7e-2, 4.1e-2
			}
			s.setDiag(rowShift, colShift)
			ref, err := linalgtest.NewCSR(s.Dim(), stencilTrips(s, shifted, rowShift, colShift))
			if err != nil {
				t.Fatal(err)
			}
			var ops linalg.OpCount
			p, err := newChainPrecond(s, &ops)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(shape[0] + shape[1]); ops.BandFactorizations != want {
				t.Errorf("%v: BandFactorizations = %d, want %d", shape, ops.BandFactorizations, want)
			}
			r := randomVec(s.Dim(), rng)
			want := refChainApply(ref, shape[0], shape[1], r)
			got := make([]float64, s.Dim())
			p.Apply(r, got, nil)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v shifted=%v: z[%d] = %v, reference %v", shape, shifted, i, got[i], want[i])
				}
			}
		}
	}
}

// TestChainPrecondExactOnChains: with the cells removed the matrix is
// block diagonal over the wire chains, so the preconditioner apply is an
// exact solve — including the strided column chains.
func TestChainPrecondExactOnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{1, 1}, {3, 4}, {7, 2}} {
		s := randomStencil(shape[0], shape[1], 0.4, 1e-3, 1, 1, rng)
		for i := range s.g {
			s.g[i] = 0
		}
		s.setDiag(0, 0)
		p, err := newChainPrecond(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := randomVec(s.Dim(), rng)
		z := make([]float64, s.Dim())
		p.Apply(r, z, nil)
		az := s.MulVec(z, nil)
		for i := range az {
			if math.Abs(az[i]-r[i]) > 1e-9*(1+math.Abs(r[i])) {
				t.Fatalf("%v: A·z ≠ r at %d: %v vs %v", shape, i, az[i], r[i])
			}
		}
	}
}

// TestChainPrecondRejectsIndefinite: a non-positive pivot is ErrNotSPD,
// never a NaN factor.
func TestChainPrecondRejectsIndefinite(t *testing.T) {
	s := randomStencil(3, 3, 0.4, 1e-3, 1e-5, 1e-4, rand.New(rand.NewSource(1)))
	s.setDiag(-10, 0)
	if _, err := newChainPrecond(s, nil); !errors.Is(err, linalg.ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	s.setDiag(0, math.NaN())
	if _, err := newChainPrecond(s, nil); !errors.Is(err, linalg.ErrNotSPD) {
		t.Fatalf("NaN diagonal: err = %v, want ErrNotSPD", err)
	}
}

// TestChainPrecondRefreshInPlace: after the stencil's values change,
// refresh tracks them without allocating, and the refreshed factor equals
// a freshly built one bit for bit.
func TestChainPrecondRefreshInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomStencil(6, 5, 0.4, 1e-3, 1e-5, 1e-3, rng)
	s.setDiag(0, 0)
	p, err := newChainPrecond(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.g {
		s.g[i] *= 3
	}
	s.setDiag(0.5, 0.25)
	if allocs := testing.AllocsPerRun(5, func() {
		if err := p.refresh(s, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("refresh allocated %v times per run", allocs)
	}
	fresh, err := newChainPrecond(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := randomVec(s.Dim(), rng)
	got, want := make([]float64, s.Dim()), make([]float64, s.Dim())
	p.Apply(r, got, nil)
	fresh.Apply(r, want, nil)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("refreshed z[%d] = %v, fresh %v", i, got[i], want[i])
		}
	}
}

// TestChainPrecondRefreshExact: refresh after the wire conductances and
// the diagonal shift change leaves the preconditioner an exact solve of the
// new cell-free matrix, not of the one it was built from.
func TestChainPrecondRefreshExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomStencil(4, 3, 0.4, 1e-3, 1, 1, rng)
	for i := range s.g {
		s.g[i] = 0
	}
	s.setDiag(0, 0)
	p, err := newChainPrecond(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.gw *= 7
	s.setDiag(10, 2)
	if err := p.refresh(s, nil); err != nil {
		t.Fatal(err)
	}
	r := randomVec(s.Dim(), rng)
	z := make([]float64, s.Dim())
	p.Apply(r, z, nil)
	az := s.MulVec(z, nil)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-12*(1+math.Abs(r[i])) {
			t.Fatalf("refreshed A·z ≠ r at %d: %v vs %v", i, az[i], r[i])
		}
	}
}

// TestChainPrecondCutsIterations: on a crossbar — strong wire chains
// weakly coupled through the cells — block-Jacobi CG converges in far
// fewer iterations than diagonal Jacobi, to the same answer.
func TestChainPrecondCutsIterations(t *testing.T) {
	dev := device.RRAM()
	s := randomStencil(16, 16, 1/2.5, 1e-3, 1/dev.RMax, 1/dev.RMin, rand.New(rand.NewSource(2)))
	s.setDiag(0, 0)
	b := make([]float64, s.Dim())
	for i := range b {
		b[i] = math.Sin(float64(i + 1))
	}
	xj, itJac, err := linalg.SolveCG(s, b, nil, linalg.CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := newChainPrecond(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	xb, itBlk, err := linalg.SolveCG(s, b, nil, linalg.CGOptions{Tol: 1e-10, Precond: p})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xb {
		if math.Abs(xb[i]-xj[i]) > 1e-6*(1+math.Abs(xj[i])) {
			t.Fatalf("solutions disagree at %d: %v vs %v", i, xb[i], xj[i])
		}
	}
	if itBlk*3 > itJac {
		t.Fatalf("block-jacobi took %d iters, jacobi %d — expected ≥3× reduction", itBlk, itJac)
	}
}
