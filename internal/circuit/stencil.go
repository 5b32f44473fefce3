package circuit

import (
	"fmt"
	"math"

	"mnsim/internal/linalg"
)

// stencil is the crossbar's MNA conductance matrix held matrix-free. The
// matrix of an M×N crossbar is fixed by its shape: M row-wire chains and N
// column-wire chains of conductance gw, one cell conductance g(m,n)
// coupling row node r(m,n) to column node c(m,n), and the sense
// conductance gs at each column's end. So the operator stores only the
// cell conductances, gw, gs, and the assembled diagonal — no index arrays.
//
// Products and the diagonal are bit-identical to a CSR matrix assembled
// from the MNA triplet stream: each row sums its terms in CSR column order
// starting from 0, and each diagonal sums its wire stamps, then the cell,
// then the transient shift, in triplet order.
type stencil struct {
	m, n   int
	gw, gs float64
	// g holds the cell conductances, row-major (index m·N + n).
	g []float64
	// diag is the assembled diagonal: row nodes then column nodes.
	diag []float64
}

var _ linalg.Operator = (*stencil)(nil)

func newStencil(m, n int) *stencil {
	return &stencil{m: m, n: n, g: make([]float64, m*n), diag: make([]float64, 2*m*n)}
}

// Dim returns the node count 2MN.
func (s *stencil) Dim() int { return len(s.diag) }

// NNZ is the stored-element count of the equivalent CSR matrix — the
// diagonal, one cell entry per node, and two entries per wire segment —
// which the cost model charges per product.
func (s *stencil) NNZ() int { return 8*s.m*s.n - 2*s.m - 2*s.n }

// Diagonal returns the stencil's own diagonal; read-only.
func (s *stencil) Diagonal() []float64 { return s.diag }

// setDiag assembles the diagonal from gw, gs and the cell conductances,
// adding rowShift to every row node and colShift to every column node (the
// transient's C/dt; zero for DC, where adding it is exact).
func (s *stencil) setDiag(rowShift, colShift float64) {
	M, N, gw, gs := s.m, s.n, s.gw, s.gs
	half := M * N
	for m := 0; m < M; m++ {
		for j := 0; j < N; j++ {
			i := m*N + j
			// The source (j = 0) or the left segment, then the right one.
			w := gw
			if j+1 < N {
				w = gw + gw
			}
			s.diag[i] = w + s.g[i] + rowShift
		}
	}
	for m := 0; m < M; m++ {
		for j := 0; j < N; j++ {
			i := m*N + j
			// The upper segment, then the lower one or the sense resistor.
			var w float64
			switch {
			case M == 1:
				w = gs
			case m == 0:
				w = gw
			case m == M-1:
				w = gw + gs
			default:
				w = gw + gw
			}
			s.diag[half+i] = w + s.g[i] + colShift
		}
	}
}

// MulVec computes y = A·x over the stencil, reusing y when it has length
// 2MN. Row node r(m,n)'s neighbours in CSR column order are its left wire
// neighbour, itself, its right wire neighbour, then its cell's column
// node; column node c(m,n)'s are its cell's row node, its upper neighbour,
// itself, then its lower neighbour. Each sum starts from 0 as CSR's does.
//
// One product per CG iteration: hot path, must not allocate.
//
//lint:hotpath
func (s *stencil) MulVec(x, y []float64) []float64 {
	n2 := len(s.diag)
	if len(x) != n2 {
		//lint:ignore noalloc panic-guard Sprintf boxes its args on the crash path only
		panic(fmt.Sprintf("circuit: stencil MulVec got %d, want %d", len(x), n2))
	}
	if len(y) != n2 {
		//lint:ignore noalloc cold fallback for callers without an output vector
		y = make([]float64, n2)
	}
	M, N, gw, g, d := s.m, s.n, s.gw, s.g, s.diag
	half := M * N
	xr, xc, yr, yc, dc := x[:half], x[half:], y[:half], y[half:], d[half:]
	for m := 0; m < M; m++ {
		b, e := m*N, m*N+N-1
		if N == 1 {
			yr[b] = 0 + d[b]*xr[b] + -g[b]*xc[b]
			continue
		}
		yr[b] = 0 + d[b]*xr[b] + -gw*xr[b+1] + -g[b]*xc[b]
		for i := b + 1; i < e; i++ {
			yr[i] = 0 + -gw*xr[i-1] + d[i]*xr[i] + -gw*xr[i+1] + -g[i]*xc[i]
		}
		yr[e] = 0 + -gw*xr[e-1] + d[e]*xr[e] + -g[e]*xc[e]
	}
	if M == 1 {
		for i := 0; i < N; i++ {
			yc[i] = 0 + -g[i]*xr[i] + dc[i]*xc[i]
		}
		return y
	}
	for i := 0; i < N; i++ {
		yc[i] = 0 + -g[i]*xr[i] + dc[i]*xc[i] + -gw*xc[i+N]
	}
	for i := N; i < half-N; i++ {
		yc[i] = 0 + -g[i]*xr[i] + -gw*xc[i-N] + dc[i]*xc[i] + -gw*xc[i+N]
	}
	for i := half - N; i < half; i++ {
		yc[i] = 0 + -g[i]*xr[i] + -gw*xc[i-N] + dc[i]*xc[i]
	}
	return y
}

// chainPrecond is the block-Jacobi preconditioner over the crossbar's wire
// chains, factored straight from the stencil: every row chain and every
// column chain is tridiagonal (diagonal entries from the stencil, −gw off
// the diagonal), factored by Cholesky with the arithmetic of a
// bandwidth-1 banded factorization. Row chains are contiguous; the N
// column chains are swept in lockstep, row by row, so every pass walks
// contiguous memory.
type chainPrecond struct {
	m, n int
	// sub holds each node's sub-diagonal factor entry L(i, prev) (unused at
	// a chain's first node) and rd each node's reciprocal pivot 1/L(i, i).
	sub, rd []float64
	// piv is the column sweep's scratch: the previous row's pivots.
	piv []float64
}

func newChainPrecond(s *stencil, ops *linalg.OpCount) (*chainPrecond, error) {
	n2 := len(s.diag)
	p := &chainPrecond{m: s.m, n: s.n, sub: make([]float64, n2), rd: make([]float64, n2), piv: make([]float64, s.n)}
	if err := p.refresh(s, ops); err != nil {
		return nil, err
	}
	return p, nil
}

// pivot takes the square root of a Cholesky pivot, rejecting a
// non-positive or NaN one.
func pivot(s float64, node int) (float64, error) {
	if !(s > 0) || math.IsNaN(s) {
		return 0, fmt.Errorf("%w (pivot %g at node %d)", linalg.ErrNotSPD, s, node)
	}
	return math.Sqrt(s), nil
}

// refresh refactors every chain from the stencil's current diagonal in
// place.
//
// Runs at every solve start and on every modified-Newton refresh: hot
// path, allocation-free.
//
//lint:hotpath
func (p *chainPrecond) refresh(s *stencil, ops *linalg.OpCount) error {
	M, N, gw, d := p.m, p.n, s.gw, s.diag
	half := M * N
	for m := 0; m < M; m++ {
		ops.CountBandFactor(N, 1)
		b := m * N
		prev, err := pivot(d[b], b)
		if err != nil {
			return err
		}
		p.rd[b] = 1 / prev
		for i := b + 1; i < b+N; i++ {
			l := -gw / prev
			p.sub[i] = l
			if prev, err = pivot(d[i]-l*l, i); err != nil {
				return err
			}
			p.rd[i] = 1 / prev
		}
	}
	for j := 0; j < N; j++ {
		ops.CountBandFactor(M, 1)
		i := half + j
		dj, err := pivot(d[i], i)
		if err != nil {
			return err
		}
		p.piv[j] = dj
		p.rd[i] = 1 / dj
	}
	for m := 1; m < M; m++ {
		for j := 0; j < N; j++ {
			i := half + m*N + j
			l := -gw / p.piv[j]
			p.sub[i] = l
			dj, err := pivot(d[i]-l*l, i)
			if err != nil {
				return err
			}
			p.piv[j] = dj
			p.rd[i] = 1 / dj
		}
	}
	return nil
}

// Apply solves every chain independently: z = blockdiag(A)⁻¹·r, by
// forward and back substitution against each chain's factor.
//
// Called once per CG iteration: hot path, allocation-free.
//
//lint:hotpath
func (p *chainPrecond) Apply(r, z []float64, ops *linalg.OpCount) {
	M, N, sub, rd := p.m, p.n, p.sub, p.rd
	for m := 0; m < M; m++ {
		ops.CountBandSolve(N, 1)
		b, e := m*N, m*N+N-1
		z[b] = r[b] * rd[b]
		for i := b + 1; i <= e; i++ {
			z[i] = (r[i] - sub[i]*z[i-1]) * rd[i]
		}
		z[e] *= rd[e]
		for i := e - 1; i >= b; i-- {
			z[i] = (z[i] - sub[i+1]*z[i+1]) * rd[i]
		}
	}
	half := M * N
	for j := 0; j < N; j++ {
		ops.CountBandSolve(M, 1)
	}
	// The N column chains in lockstep: node i's chain predecessor is i−N,
	// so each substitution pass walks the column block in memory order.
	zc, rc, sc, dc := z[half:], r[half:], sub[half:], rd[half:]
	for i := 0; i < N; i++ {
		zc[i] = rc[i] * dc[i]
	}
	for i := N; i < half; i++ {
		zc[i] = (rc[i] - sc[i]*zc[i-N]) * dc[i]
	}
	for i := half - N; i < half; i++ {
		zc[i] *= dc[i]
	}
	for i := half - N - 1; i >= 0; i-- {
		zc[i] = (zc[i] - sc[i+N]*zc[i+N]) * dc[i]
	}
	ops.CountPrecondApply()
}
