package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"mnsim/internal/circuit"
)

// Drive kinds of a solve, for the per-layer split.
const (
	driveCompute = "compute" // every row driven
	driveRead    = "read"    // one row driven
)

// solveAgg accumulates what the circuit layer reports about its solves:
// counts read from Result and Diag, and the per-phase cost model.
type solveAgg struct {
	solves, errors          int
	viaState, warm, memoHit int
	newton, cg, setupCG     int64
	refreshes               int64
	durations               []time.Duration
	warmBusy, readBusy      time.Duration
	allocBytes              int64
	allocSolves             int

	assemblyFlops, assemblyBytes int64
	newtonUpdateFlops            int64
	cgFlops, cgSpMVs, cgBytes    int64
	precondFlops, bandFactors    int64
	precondApplies               int64
}

// solve runs one circuit-level solve inside a circuit.solve span and
// checks the result. sequential says no other goroutine is running, so
// the span may measure the solve's heap allocation.
func solve(ctx context.Context, rec *recorder, item int, c *circuit.Crossbar, vin []float64, opt circuit.SolveOptions, drive string, sequential bool) (*circuit.Result, error) {
	sctx, sp := rec.start(ctx, "circuit.solve", item, sequential)
	res, err := c.SolveContext(sctx, vin, opt)
	sp.end()
	if err == nil {
		err = checkSolve(c, vin, res)
	}
	rec.recordSolve(sp, res, err, drive, opt.State != nil)
	if err != nil {
		return nil, fmt.Errorf("%dx%d %s solve: %w", c.M, c.N, drive, err)
	}
	return res, nil
}

// recordSolve folds one solve into the recorder's circuit statistics.
func (r *recorder) recordSolve(sp *open, res *circuit.Result, err error, drive string, viaState bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.solve
	a.solves++
	d := sp.s.dur()
	a.durations = append(a.durations, d)
	if sp.s.allocBytes >= 0 {
		a.allocBytes += sp.s.allocBytes
		a.allocSolves++
	}
	if drive == driveRead {
		a.readBusy += d
	}
	if viaState {
		a.viaState++
	}
	if err != nil {
		a.errors++
	}
	if res == nil || res.Diag == nil {
		return
	}
	a.newton += int64(res.NewtonIters)
	a.cg += int64(res.CGIters)
	a.setupCG += int64(res.Diag.SetupCGIters)
	a.refreshes += int64(res.Diag.PrecondRefreshes)
	if res.Diag.WarmStart {
		a.warm++
		a.warmBusy += d
	}
	if res.Diag.CacheHit {
		a.memoHit++
	}
	if c := res.Diag.Cost; c != nil {
		a.assemblyFlops += c.Assembly.Flops
		a.assemblyBytes += c.Assembly.Bytes
		a.newtonUpdateFlops += c.NewtonUpdate.Flops
		a.cgFlops += c.CGLoop.Flops
		a.cgSpMVs += c.CGLoop.SpMVs
		a.cgBytes += c.CGLoop.Bytes
		a.precondApplies += c.CGLoop.PrecondApplies
		a.precondFlops += c.Precond.Flops
		a.bandFactors += c.Precond.BandFactorizations
	}
}

// errMemoHit marks a solve the SolverState result memo answered: the
// benchmark must time the solver, never the memo.
var errMemoHit = errors.New("solve answered from the result memo")

// checkSolve holds a converged solve to physics it must obey: one finite
// output per column inside the drive range (a passive network cannot
// exceed its largest source), positive source power, and at least the
// power the sense resistors dissipate.
func checkSolve(c *circuit.Crossbar, vin []float64, res *circuit.Result) error {
	if res == nil || res.Diag == nil {
		return errors.New("no result")
	}
	if res.Diag.CacheHit {
		return errMemoHit
	}
	if len(res.VOut) != c.N {
		return fmt.Errorf("%d outputs, want %d", len(res.VOut), c.N)
	}
	vmax := 0.0
	for _, v := range vin {
		vmax = math.Max(vmax, v)
	}
	slack := 1e-9 * math.Max(vmax, 1e-12)
	sense := 0.0
	for j, v := range res.VOut {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite output %g at column %d", v, j)
		}
		if v < -slack || v > vmax+slack {
			return fmt.Errorf("output %g V at column %d outside the drive range [0, %g]", v, j, vmax)
		}
		sense += v * v / c.RSense
	}
	if math.IsNaN(res.Power) || math.IsInf(res.Power, 0) || res.Power <= 0 {
		return fmt.Errorf("source power %g W is not positive and finite", res.Power)
	}
	if sense > res.Power*(1+1e-6) {
		return fmt.Errorf("sense resistors dissipate %g W, more than the %g W the sources deliver", sense, res.Power)
	}
	return nil
}

// digest hashes output bits; equal seeds must give equal digests.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vs ...float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// vinGuard refuses to hand one SolverState a bit-identical input twice,
// so no solve can be answered from the state's result memo.
type vinGuard struct{ seen [][]uint64 }

// admit records vin and reports an error when it repeats an earlier one.
func (g *vinGuard) admit(vin []float64) error {
	bits := make([]uint64, len(vin))
	for i, v := range vin {
		bits[i] = math.Float64bits(v)
	}
	for k, prev := range g.seen {
		if equalBits(prev, bits) {
			return fmt.Errorf("input repeats input %d on the same solver state", k)
		}
	}
	g.seen = append(g.seen, bits)
	return nil
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
