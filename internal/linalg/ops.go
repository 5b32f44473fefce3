package linalg

// Operation-cost accounting for the numerical kernels. An OpCount is an
// allocation-free accumulator of what a solve actually did — floating-point
// operations, kernel invocations, bytes streamed through memory,
// preconditioner factorizations — so callers can attribute solve cost to phases without
// timers (the clock-free invariant of this package) and bit-identically
// across runs (the replay contract: counting only observes, it never
// touches a float in the computation).
//
// Every Count* method is safe on a nil receiver and does nothing there, so
// kernels thread a possibly-nil *OpCount through unconditionally; the
// disabled path costs one pointer test per kernel call.
//
// The accounting contract, which the analytic tests assert against:
//
//   - CountSpMV(nnz, n): one sparse matrix-vector product (Operator.MulVec).
//     2·nnz flops (multiply-add per stored element); 24·nnz bytes (value,
//     column index, gathered x element) plus 16·n bytes (row pointer, y
//     store) — CSR traffic, charged whatever the operator's storage so
//     counts stay comparable across operators.
//   - CountDot(n): one inner product. 2·n flops, 16·n bytes.
//   - CountNorm(n): one Euclidean norm — a self inner product (counted in
//     Dots) plus the square root. 2·n+1 flops, 8·n bytes.
//   - CountAxpy(n): one y += α·x. 2·n flops, 24·n bytes.
//   - CountVecOp(n, flopsPer): one streaming elementwise pass over
//     length-n vectors at flopsPer flops per element, 24·n bytes (two
//     reads, one write) — the preconditioner apply and direction update.
//   - CountBandFactor(n, bw): one banded Cholesky factorization, its exact
//     inner-loop flop count Σ_{i=0}^{n-1} (min(i,bw)+1)² (each row i does
//     (w+1)² multiply-subtract/divide/sqrt ops at effective bandwidth
//     w = min(i,bw)); 16·n·(bw+1) bytes.
//   - CountBandSolve(n, bw): one banded forward+back substitution pair,
//     2·(2·Σ_{i=0}^{n-1} min(i,bw) + n) flops, 16·n·(bw+1) + 32·n bytes.
//   - CountPrecondApply(): one whole-preconditioner application (the
//     per-kind arithmetic is charged by the kernels it invokes; this only
//     bumps the invocation counter).
type OpCount struct {
	// Flops is the floating-point operation count (adds, multiplies,
	// divides, and square roots each count one; see the package cost model
	// for transcendental device evaluations, which callers count
	// explicitly).
	Flops int64 `json:"flops"`
	// SpMVs counts sparse matrix-vector products.
	SpMVs int64 `json:"spmvs,omitempty"`
	// Dots counts inner products (norms included: a norm is a self-dot).
	Dots int64 `json:"dots,omitempty"`
	// Axpys counts y += α·x vector updates.
	Axpys int64 `json:"axpys,omitempty"`
	// Bytes is the modeled memory traffic of the counted kernels.
	Bytes int64 `json:"bytes,omitempty"`
	// BandFactorizations counts banded Cholesky factorizations (one per
	// preconditioner block per refresh).
	BandFactorizations int64 `json:"band_factorizations,omitempty"`
	// PrecondApplies counts whole-preconditioner applications (one per
	// preconditioned CG iteration plus the setup apply).
	PrecondApplies int64 `json:"precond_applies,omitempty"`
}

// Add folds another accumulator into o; nil-safe on both sides.
func (o *OpCount) Add(other *OpCount) {
	if o == nil || other == nil {
		return
	}
	o.Flops += other.Flops
	o.SpMVs += other.SpMVs
	o.Dots += other.Dots
	o.Axpys += other.Axpys
	o.Bytes += other.Bytes
	o.BandFactorizations += other.BandFactorizations
	o.PrecondApplies += other.PrecondApplies
}

// CountSpMV records one sparse matrix-vector product with nnz stored
// elements over an n-vector.
func (o *OpCount) CountSpMV(nnz, n int) {
	if o == nil {
		return
	}
	o.SpMVs++
	o.Flops += 2 * int64(nnz)
	o.Bytes += 24*int64(nnz) + 16*int64(n)
}

// CountDot records one length-n inner product.
func (o *OpCount) CountDot(n int) {
	if o == nil {
		return
	}
	o.Dots++
	o.Flops += 2 * int64(n)
	o.Bytes += 16 * int64(n)
}

// CountNorm records one length-n Euclidean norm (a self-dot plus a square
// root).
func (o *OpCount) CountNorm(n int) {
	if o == nil {
		return
	}
	o.Dots++
	o.Flops += 2*int64(n) + 1
	o.Bytes += 8 * int64(n)
}

// CountAxpy records one length-n y += α·x update.
func (o *OpCount) CountAxpy(n int) {
	if o == nil {
		return
	}
	o.Axpys++
	o.Flops += 2 * int64(n)
	o.Bytes += 24 * int64(n)
}

// CountVecOp records one streaming elementwise pass over length-n vectors
// at flopsPer flops per element (two reads and one write per element).
func (o *OpCount) CountVecOp(n int, flopsPer int64) {
	if o == nil {
		return
	}
	o.Flops += flopsPer * int64(n)
	o.Bytes += 24 * int64(n)
}

// CountFlops records raw flops with no associated memory traffic — scalar
// recurrences like α = rz/p·Ap.
func (o *OpCount) CountFlops(n int64) {
	if o == nil {
		return
	}
	o.Flops += n
}

// CountBytes records raw memory traffic with no arithmetic — copies, the
// diagonal scan, stamping.
func (o *OpCount) CountBytes(n int64) {
	if o == nil {
		return
	}
	o.Bytes += n
}

// bandSumW is Σ_{i=0}^{n-1} min(i, bw) — the total off-diagonal count of a
// banded triangular factor.
func bandSumW(n, bw int) int64 {
	if bw > n-1 {
		bw = n - 1
	}
	b, nn := int64(bw), int64(n)
	return b*(b-1)/2 + b*(nn-b)
}

// CountBandFactor records one banded Cholesky factorization of dimension n
// and bandwidth bw: row i costs (min(i,bw)+1)² flops (its multiply-subtract
// pairs, divisions, and square root), summing to
// Σ_{i=0}^{min(bw,n-1)-1} (i+1)² + (n−bw)·(bw+1)² for n > bw.
func (o *OpCount) CountBandFactor(n, bw int) {
	if o == nil {
		return
	}
	o.BandFactorizations++
	w := bw
	if w > n-1 {
		w = n - 1
	}
	ww, nn := int64(w), int64(n)
	// Σ_{i=0}^{w-1} (i+1)² = w(w+1)(2w+1)/6, then (n−w) full-band rows.
	o.Flops += ww*(ww+1)*(2*ww+1)/6 + (nn-ww)*(ww+1)*(ww+1)
	o.Bytes += 16 * nn * int64(bw+1)
}

// CountBandSolve records one banded forward+back substitution pair:
// 2·(2·Σ min(i,bw) + n) flops.
func (o *OpCount) CountBandSolve(n, bw int) {
	if o == nil {
		return
	}
	o.Flops += 2 * (2*bandSumW(n, bw) + int64(n))
	o.Bytes += 16*int64(n)*int64(bw+1) + 32*int64(n)
}

// CountPrecondApply records one whole-preconditioner application; the
// arithmetic cost is charged by the kernels the apply invokes.
func (o *OpCount) CountPrecondApply() {
	if o == nil {
		return
	}
	o.PrecondApplies++
}
