// SolverState: reusable solver structures for repeated solves of the same
// crossbar — the warm-start half of the fast solver core. A state carries
// the stencil operator's buffers, the factored block preconditioner, the
// last converged operating point, and a memo of the last solve, so a DSE
// candidate evaluation, a Monte-Carlo trial sequence, or a settling run
// allocates its system once instead of per solve and starts
// Newton from where the previous solve ended.
package circuit

import (
	"math"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
)

// SolverState is the cross-solve cache a caller threads through
// SolveOptions.State. It is owned by one goroutine at a time: the
// parallel engines (DSE, Monte-Carlo) deliberately do not share states
// across workers, because the sequential-equals-parallel determinism
// contract requires every evaluation's numerics to be independent of
// execution order. Use one state per strictly sequential solve stream.
//
// Numerically, reuse is conservative by construction: the matrix values
// and the preconditioner factorization are always rebuilt from the current
// crossbar at solve start, so the only floating-point inputs that cross
// solves are the warm-start vector and the memoized result. A solve with a
// fresh state is bit-identical to a solve with a nil one, and re-solving
// bit-identical inputs returns the memoized result bit-identically.
type SolverState struct {
	// Cached assembly (stencil and RHS buffers), valid for any crossbar of
	// the same shape; values are re-stamped every solve.
	asm        *assembly
	asmM, asmN int
	// Cached block preconditioner, sized for asm's shape and refactored
	// from the current matrix values at every solve.
	pre *chainPrecond
	// v is the operating point of the last converged solve — the warm
	// start of the next one. vM/vN record the crossbar shape it came from:
	// a vector from a different topology is never reused even when the
	// node counts coincide (e.g. 6×4 vs 4×6). Zero shape means
	// WarmState-seeded — trusted by length alone, for replays.
	v      []float64
	vM, vN int
	// vwarm is the scratch the solve copies v into at warm start, so the
	// Newton loop's working vector never aliases the stored operating point.
	vwarm []float64
	// work is the reusable CG scratch threaded into every inner linear
	// solve through this state (see linalg.CGWork for the aliasing
	// contract); it is what takes the warm re-solve path to near-zero
	// steady-state allocations.
	work linalg.CGWork
	// memo of the last successful solve keyed by its exact inputs.
	memo *memoEntry
}

// memoEntry records the exact (bitwise) inputs and the result of the last
// successful solve through a state. Re-solving identical inputs is common
// in sweeps (repeated read of an unchanged crossbar) and must stay
// bit-identical whether or not a state is reused, so the comparison is
// exact — math.Float64bits equality, never a tolerance.
type memoEntry struct {
	m, n          int
	vin           []float64
	r             []float64 // row-major copy of the cell resistances
	wireR, rsense float64
	linear        bool
	dev           device.Model
	opt           SolveOptions
	res           *Result
}

// NewSolverState returns an empty state ready to thread through
// SolveOptions.State.
func NewSolverState() *SolverState {
	return &SolverState{}
}

// WarmState builds a state holding only a warm-start operating point —
// how mnsim-replay reseeds the warm trajectory recorded in a snapshot.
func WarmState(v []float64) *SolverState {
	return &SolverState{v: append([]float64(nil), v...)}
}

// WarmV returns a copy of the state's current warm-start operating point
// (nil before the first converged solve).
func (s *SolverState) WarmV() []float64 {
	if s == nil || s.v == nil {
		return nil
	}
	return append([]float64(nil), s.v...)
}

// cgWork returns the state's reusable CG scratch, or for a nil state a
// fresh one that the solve's own CG calls share.
func (s *SolverState) cgWork() *linalg.CGWork {
	if s == nil {
		return new(linalg.CGWork)
	}
	return &s.work
}

// warmCopy copies the stored operating point into the state's warm scratch
// and returns it — the allocation-free equivalent of cloning s.v.
func (s *SolverState) warmCopy() []float64 {
	s.vwarm = append(s.vwarm[:0], s.v...)
	return s.vwarm
}

// warmFor reports whether the state holds a warm-start vector usable for
// this crossbar.
func (s *SolverState) warmFor(c *Crossbar) bool {
	if s == nil || len(s.v) != 2*c.M*c.N {
		return false
	}
	return (s.vM == c.M && s.vN == c.N) || (s.vM == 0 && s.vN == 0)
}

// Reset drops all cached structures; the next solve through the state runs
// cold.
func (s *SolverState) Reset() {
	if s == nil {
		return
	}
	*s = SolverState{}
}

// bitsEqual compares two float slices for exact bit equality (NaN-safe,
// unlike ==; and exempt from the float-comparison lint because it is an
// integer comparison).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// memoKeyMatches reports whether the memoized solve had bit-identical
// inputs to the one being requested.
func (e *memoEntry) matches(c *Crossbar, vin []float64, opt SolveOptions) bool {
	if e == nil || e.m != c.M || e.n != c.N ||
		math.Float64bits(e.wireR) != math.Float64bits(c.WireR) ||
		math.Float64bits(e.rsense) != math.Float64bits(c.RSense) ||
		e.linear != c.Linear || e.dev != c.Dev {
		return false
	}
	o := opt
	o.State = nil
	eo := e.opt
	eo.State = nil
	if o != eo {
		return false
	}
	if !bitsEqual(e.vin, vin) {
		return false
	}
	for m := 0; m < c.M; m++ {
		if !bitsEqual(e.r[m*c.N:(m+1)*c.N], c.R[m]) {
			return false
		}
	}
	return true
}

// memoLookup returns a deep copy of the memoized result when the requested
// solve has bit-identical inputs, nil otherwise. The copy carries a fresh
// Diagnostics with CacheHit set and no cost model — no solver work ran.
func (s *SolverState) memoLookup(c *Crossbar, vin []float64, opt SolveOptions) *Result {
	if s == nil || s.memo == nil || !s.memo.matches(c, vin, opt) {
		return nil
	}
	src := s.memo.res
	return &Result{
		VOut:        append([]float64(nil), src.VOut...),
		Power:       src.Power,
		NewtonIters: src.NewtonIters,
		CGIters:     src.CGIters,
		NodeV:       append([]float64(nil), src.NodeV...),
		Diag: &Diagnostics{
			Path:     src.Diag.Path,
			Precond:  src.Diag.Precond,
			CacheHit: true,
		},
	}
}

// store records a successful solve: the operating point for warm starts and
// the memo for bit-identical re-solves. The stored result is a deep copy so
// later caller mutations cannot corrupt the cache; the copy reuses the
// previous memo's buffers, so a steady-state solve stream stores without
// allocating.
func (s *SolverState) store(c *Crossbar, vin []float64, opt SolveOptions, res *Result) {
	if s == nil {
		return
	}
	s.v = append(s.v[:0], res.NodeV...)
	s.vM, s.vN = c.M, c.N
	opt.State = nil // break the cycle; matches() ignores it anyway
	e := s.memo
	if e == nil {
		e = &memoEntry{}
		s.memo = e
	}
	if e.res == nil {
		e.res = &Result{}
	}
	e.m, e.n = c.M, c.N
	e.vin = append(e.vin[:0], vin...)
	e.r = e.r[:0]
	for m := 0; m < c.M; m++ {
		e.r = append(e.r, c.R[m]...)
	}
	e.wireR, e.rsense = c.WireR, c.RSense
	e.linear, e.dev = c.Linear, c.Dev
	e.opt = opt
	er := e.res
	er.VOut = append(er.VOut[:0], res.VOut...)
	er.Power = res.Power
	er.NewtonIters = res.NewtonIters
	er.CGIters = res.CGIters
	er.NodeV = append(er.NodeV[:0], res.NodeV...)
	er.Diag = res.Diag
}
