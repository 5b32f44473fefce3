// Package circuit is MNSIM-Go's circuit-level reference simulator — the
// stand-in for the SPICE baseline the paper validates against and times
// (Tables II–III, Fig. 5).
//
// It solves the full M×N memristor crossbar as a resistor network by
// modified nodal analysis (MNA): every cell input and output node is an
// unknown ([MN + MN] voltages, the "more than MN + M(N-1) voltage variables"
// of Section VI), wire segments between neighbouring cells carry the
// interconnect resistance r, every column terminates in a sensing resistor
// R_s, and each memristor follows the non-linear sinh I–V law of the device
// model. The non-linear system is solved with Newton–Raphson over a
// conjugate-gradient linear core (the conductance matrix is symmetric
// positive definite). The matrix is never assembled: a matrix-free stencil
// operator applies it from the cell conductances, and a block-Jacobi
// preconditioner over the row and column wire chains factors each chain
// as a tridiagonal Cholesky.
//
// The package can also emit the crossbar as a SPICE netlist (Section IV.A:
// "MNSIM can generate the netlist file for circuit-level simulators like
// SPICE").
package circuit

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/telemetry"
)

// Solver telemetry: per-solve Newton and cumulative CG iteration
// histograms (the quantities behind the paper's Table III timing claims),
// plus solve and divergence counters. Registered at package init so every
// export lists the solver families, observed or not.
var (
	telSolves        = telemetry.GetCounter("mnsim_circuit_solves_total")
	telDiverged      = telemetry.GetCounter("mnsim_circuit_newton_divergence_total")
	telNewtonIters   = telemetry.GetHistogram("mnsim_circuit_newton_iterations", telemetry.LinearBuckets(1, 1, 20))
	telCGIters       = telemetry.GetHistogram("mnsim_circuit_cg_iterations_per_solve", telemetry.ExponentialBuckets(8, 2, 12))
	telZeroWireSolve = telemetry.GetCounter("mnsim_circuit_zero_wire_solves_total")
	telWarmSolves    = telemetry.GetCounter("mnsim_circuit_warm_start_solves_total")
	telCacheHits     = telemetry.GetCounter("mnsim_circuit_solve_cache_hits_total")
	telPreRefreshes  = telemetry.GetCounter("mnsim_circuit_precond_refreshes_total")
)

// Cost-attribution telemetry: process-wide flop/byte totals plus per-solve
// per-phase flop histograms, so /metrics answers "where does solve cost go"
// without a journal.
var (
	telSolveFlops    = telemetry.GetCounter("mnsim_solve_flops_total")
	telSolveBytes    = telemetry.GetCounter("mnsim_solve_bytes_total")
	telPhaseAssembly = telemetry.GetHistogram("mnsim_circuit_phase_assembly_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseNewton   = telemetry.GetHistogram("mnsim_circuit_phase_newton_update_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseCG       = telemetry.GetHistogram("mnsim_circuit_phase_cg_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhasePrecond  = telemetry.GetHistogram("mnsim_circuit_phase_precond_flops", telemetry.ExponentialBuckets(1024, 4, 14))
	telPhaseDiag     = telemetry.GetHistogram("mnsim_circuit_phase_diagnostics_flops", telemetry.ExponentialBuckets(1024, 4, 14))
)

// deviceEvalFlops is the modeled flop cost of one transcendental device
// I–V evaluation (a sinh/cosh pair plus scaling); the exact kernel counts
// elsewhere in the cost model are unaffected by this constant.
const deviceEvalFlops = 8

// Crossbar describes one crossbar instance to simulate at circuit level.
type Crossbar struct {
	// M is the number of rows (inputs), N the number of columns (outputs).
	M, N int
	// R holds the calibrated (programmed) resistance of each cell in ohms,
	// indexed [row][col].
	R [][]float64
	// WireR is the interconnect resistance of one wire segment between
	// neighbouring cells, in ohms.
	WireR float64
	// RSense is the column sensing (load) resistance in ohms.
	RSense float64
	// Dev supplies the non-linear I–V law. Linear selects ideal resistors
	// instead (used to isolate the interconnect contribution).
	Dev device.Model
	// Linear, when true, treats every cell as an ideal resistor at its
	// calibrated value, skipping Newton iteration.
	Linear bool
}

// Validate checks structural consistency and that every resistance is
// finite: positive for the cells and the sense resistors, non-negative for
// the wires.
func (c *Crossbar) Validate() error {
	if c.M <= 0 || c.N <= 0 {
		return fmt.Errorf("circuit: invalid crossbar size %dx%d", c.M, c.N)
	}
	if len(c.R) != c.M {
		return fmt.Errorf("circuit: R has %d rows, want %d", len(c.R), c.M)
	}
	for i, row := range c.R {
		if len(row) != c.N {
			return fmt.Errorf("circuit: R row %d has %d cols, want %d", i, len(row), c.N)
		}
		for j, r := range row {
			if !(r > 0) || math.IsInf(r, 0) {
				return fmt.Errorf("circuit: resistance %g at (%d,%d), want positive and finite", r, i, j)
			}
		}
	}
	if !(c.WireR >= 0) || math.IsInf(c.WireR, 0) {
		return fmt.Errorf("circuit: wire resistance %g, want non-negative and finite", c.WireR)
	}
	if !(c.RSense > 0) || math.IsInf(c.RSense, 0) {
		return fmt.Errorf("circuit: sense resistance %g, want positive and finite", c.RSense)
	}
	if !c.Linear {
		if err := c.Dev.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkInput validates a drive vector against the crossbar: one finite
// voltage per row.
func (c *Crossbar) checkInput(vin []float64) error {
	if len(vin) != c.M {
		return fmt.Errorf("circuit: input vector length %d, want %d", len(vin), c.M)
	}
	for i, v := range vin {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("circuit: non-finite input %v at index %d", v, i)
		}
	}
	return nil
}

// Result is the DC operating point of one crossbar solve.
type Result struct {
	// VOut is the voltage across each column's sensing resistor.
	VOut []float64
	// Power is the total power delivered by the input sources in watts.
	Power float64
	// NewtonIters is the number of Newton iterations performed (1 for a
	// linear solve).
	NewtonIters int
	// CGIters is the cumulative number of conjugate-gradient iterations.
	CGIters int
	// NodeV holds all node voltages (row nodes then column nodes) for
	// callers that need cell operating points.
	NodeV []float64
	// Diag is the solve's numerical diagnostics: solver path, per-Newton
	// residual/CG trajectory, and (with SolveOptions.Diagnostics) the
	// Jacobian condition estimate.
	Diag *Diagnostics
}

// node numbering: row cell nodes first, then column cell nodes.
func (c *Crossbar) rowNode(m, n int) int { return m*c.N + n }
func (c *Crossbar) colNode(m, n int) int { return c.M*c.N + m*c.N + n }

// wireG returns the conductance of one wire segment. Zero wire resistance
// never reaches this path: Solve dispatches it to the collapsed-node solver
// (solveZeroWire) to keep the MNA matrix well conditioned.
func (c *Crossbar) wireG() float64 {
	return 1 / c.WireR
}

// solveZeroWire handles the ideal-interconnect limit. With r = 0 every row
// node sits at its source voltage and every column collapses to one node, so
// each column is an independent scalar KCL equation
//
//	Σ_m I_cell(v_m − V_n) = V_n / R_s,
//
// solved by bisection (the left side is strictly decreasing in V_n, the
// right side strictly increasing, so the root is unique).
//
// Cost attribution: the bisection loop is this path's inner solver, so its
// modeled device-evaluation cost lands in CostModel.CGLoop.
func (c *Crossbar) solveZeroWire(ctx context.Context, vin []float64, cost *CostModel) (*Result, error) {
	res := &Result{
		VOut:        make([]float64, c.N),
		NodeV:       make([]float64, 2*c.M*c.N),
		NewtonIters: 1,
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			res.NodeV[c.rowNode(m, n)] = vin[m]
		}
	}
	// Bisection bracket: the column voltage is a conductance-weighted
	// average of the inputs pulled toward ground by the sense resistor, so
	// the root lies in [min(vin, 0), max(vin, 0)]. Bracketing from 0 to
	// max(vin) — the historical bug — collapses the bracket to a point for
	// all-non-positive inputs and silently reports 0 V.
	vmin, vmax := 0.0, 0.0
	for _, v := range vin {
		if v > vmax {
			vmax = v
		}
		if v < vmin {
			vmin = v
		}
	}
	cellI := func(vd, r float64) float64 {
		if c.Linear {
			return vd / r
		}
		return c.Dev.Current(vd, r)
	}
	for n := 0; n < c.N; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("circuit: solve aborted: %w", err)
		}
		f := func(v float64) float64 {
			sum := 0.0
			for m := 0; m < c.M; m++ {
				sum += cellI(vin[m]-v, c.R[m][n])
			}
			return sum - v/c.RSense
		}
		lo, hi := vmin, vmax
		for iter := 0; iter < 100; iter++ {
			mid := (lo + hi) / 2
			if f(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		// 100 bisection steps, each evaluating M device currents plus the
		// sense-resistor term.
		cost.CGLoop.CountFlops(100 * (int64(c.M)*(deviceEvalFlops+2) + 3))
		v := (lo + hi) / 2
		res.VOut[n] = v
		for m := 0; m < c.M; m++ {
			res.NodeV[c.colNode(m, n)] = v
		}
	}
	for m := 0; m < c.M; m++ {
		rowI := 0.0
		for n := 0; n < c.N; n++ {
			rowI += cellI(vin[m]-res.VOut[n], c.R[m][n])
		}
		res.Power += vin[m] * rowI
	}
	cost.CGLoop.CountFlops(int64(c.M) * int64(c.N) * (deviceEvalFlops + 3))
	return res, nil
}

// assembly is one solve's linear system: the stencil operator plus the
// source right-hand side. Its buffers depend only on the crossbar shape, so
// a SolverState reuses them across solves.
type assembly struct {
	op      *stencil
	rhsBase []float64 // source contributions, constant across iterations
	// rhsFull is restamp's reusable output buffer (rhsBase + Newton
	// equivalent currents).
	rhsFull []float64
}

// assemble allocates the system's buffers and stamps them.
func (c *Crossbar) assemble(vin []float64, ops *linalg.OpCount) *assembly {
	n2 := 2 * c.M * c.N
	a := &assembly{op: newStencil(c.M, c.N), rhsBase: make([]float64, n2), rhsFull: make([]float64, n2)}
	c.stampValues(a, vin, ops)
	return a
}

// stampValues (re)writes every value of the system from the current
// crossbar parameters and drive vector: wire and sense conductances,
// calibrated cell conductances, the diagonal, and the source currents.
// Both a fresh assembly and a SolverState-cached one fill values here, so
// the matrix a solve starts from is bit-identical either way.
//
// Runs once per solve over every node: hot path, must not allocate (all
// buffers live in the assembly).
//
//lint:hotpath
func (c *Crossbar) stampValues(a *assembly, vin []float64, ops *linalg.OpCount) {
	s := a.op
	s.gw = c.wireG()
	s.gs = 1 / c.RSense
	for i := range a.rhsBase {
		a.rhsBase[i] = 0
	}
	for m := 0; m < c.M; m++ {
		a.rhsBase[c.rowNode(m, 0)] += s.gw * vin[m]
	}
	// Cells start from the calibrated linear conductance.
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			s.g[m*c.N+n] = 1 / c.R[m][n]
		}
	}
	s.setDiag(0, 0)
	// Modeled stamping cost: one conductance inversion per cell; the cell
	// conductances, the diagonal and the RHS written once.
	ops.CountFlops(int64(c.M) * int64(c.N))
	ops.CountBytes(8*int64(len(s.g)) + 16*int64(len(a.rhsBase)))
}

// restamp rewrites the memristor companion-model conductances for the
// current voltage estimate, reassembles the diagonal, and returns the full
// right-hand side (source terms plus Newton equivalent current sources).
func (c *Crossbar) restamp(a *assembly, v []float64, ops *linalg.OpCount) []float64 {
	// The returned slice aliases a.rhsFull and is valid until the next
	// restamp through this assembly; the inner solve consumes it within the
	// same Newton iteration. The copy from rhsBase fully overwrites it, so
	// reuse is bit-identical to a fresh allocation.
	rhs := a.rhsFull
	copy(rhs, a.rhsBase)
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			i, j := c.rowNode(m, n), c.colNode(m, n)
			vd := v[i] - v[j]
			cur, g := c.Dev.CurrentAndConductance(vd, c.R[m][n])
			ieq := cur - g*vd
			a.op.g[m*c.N+n] = g
			rhs[i] -= ieq
			rhs[j] += ieq
		}
	}
	a.op.setDiag(0, 0)
	// Modeled stamping cost: per cell, two transcendental device
	// evaluations plus five arithmetic ops; traffic is the conductance
	// write, two node-voltage reads, and two RHS updates, plus the RHS
	// base copy and the diagonal rewrite.
	cells := int64(c.M) * int64(c.N)
	ops.CountFlops(cells * (2*deviceEvalFlops + 5))
	ops.CountBytes(cells*56 + 24*int64(len(rhs)))
	return rhs
}

// PrecondBlockJacobi labels the solver's one preconditioner in
// Diagnostics.Precond and the journal: block-Jacobi over the wire chains,
// each row chain and column chain (tridiagonal in its local index)
// factored by a tridiagonal Cholesky.
const PrecondBlockJacobi = "block-jacobi"

// SolveOptions tunes the non-linear solve.
type SolveOptions struct {
	// Tol is the Newton convergence threshold on the max node-voltage
	// update in volts; default 1e-9.
	Tol float64
	// MaxNewton bounds Newton iterations; default 50.
	MaxNewton int
	// CGTol is the relative tolerance of each inner linear solve;
	// default 1e-10.
	CGTol float64
	// State, when non-nil, carries reusable solver structures across
	// repeated solves of same-shaped crossbars: the stencil buffers, the
	// block preconditioner, the previous operating point
	// (warm start), and a memo that answers bit-identical re-solves
	// without running the solver. A state must be used from one strictly
	// sequential solve stream; see SolverState.
	State *SolverState `json:"-"`
	// Diagnostics additionally computes the Jacobian condition estimate on
	// successful solves (Diagnostics.CondEstimate); the estimate always
	// runs on divergence. The convergence trajectory itself is recorded
	// regardless — this only gates the extra eigenvalue work.
	Diagnostics bool `json:"diagnostics,omitempty"`
}

// ErrNewtonDiverged is the sentinel a failed Newton solve matches with
// errors.Is; the concrete error is a *DivergenceError carrying the
// iteration budget spent, the final residual, and the full diagnostics
// trajectory (use errors.As to get at it).
var ErrNewtonDiverged = errors.New("circuit: Newton iteration did not converge")

// Solve computes the DC operating point for the given input voltage vector
// (length M). It is a convenience wrapper over SolveContext with a
// background context.
func (c *Crossbar) Solve(vin []float64, opt SolveOptions) (*Result, error) {
	return c.SolveContext(context.Background(), vin, opt)
}

// SolveContext is Solve with a caller-supplied context: the solve's
// telemetry span nests under any span already open in ctx, so a DSE sweep
// or validation run attributes solver time to the candidate that spent it.
func (c *Crossbar) SolveContext(ctx context.Context, vin []float64, opt SolveOptions) (res *Result, err error) {
	ctx, sp := telemetry.StartSpan(ctx, "circuit.solve")
	// jid correlates this solve's journal events; snapPath carries the
	// divergence snapshot location into solve_end. Both are set below but
	// declared here so the deferred solve_end — emitted after sp.End(), so
	// it can carry the span's duration and trace/span IDs — sees them.
	jid, snapPath := "", ""
	defer func() {
		dur := sp.End()
		if res != nil {
			telSolves.Inc()
			telNewtonIters.Observe(float64(res.NewtonIters))
			telCGIters.Observe(float64(res.CGIters))
		}
		if d := diagOf(res, err); d != nil && d.Cost != nil {
			total := d.Cost.Total()
			telSolveFlops.Add(total.Flops)
			telSolveBytes.Add(total.Bytes)
			telPhaseAssembly.Observe(float64(d.Cost.Assembly.Flops))
			telPhaseNewton.Observe(float64(d.Cost.NewtonUpdate.Flops))
			telPhaseCG.Observe(float64(d.Cost.CGLoop.Flops))
			telPhasePrecond.Observe(float64(d.Cost.Precond.Flops))
			telPhaseDiag.Observe(float64(d.Cost.Diagnostics.Flops))
		}
		if jid == "" {
			return
		}
		// The solve_end event is deferred so every exit path — success,
		// divergence, CG failure, cancellation — is recorded.
		data := map[string]any{"ok": err == nil, "dur_us": float64(dur.Nanoseconds()) / 1e3}
		if res != nil {
			data["newton_iters"] = res.NewtonIters
			data["cg_iters"] = res.CGIters
		}
		if d := diagOf(res, err); d != nil {
			if d.Precond != "" {
				data["precond"] = d.Precond
				data["precond_refreshes"] = d.PrecondRefreshes
			}
			if d.WarmStart {
				data["warm_start"] = true
			}
			if d.CacheHit {
				data["cache_hit"] = true
			}
			if d.Cost != nil {
				data["cost"] = d.Cost
				data["flops"] = d.Cost.Total().Flops
			}
			if d.Convergence != nil {
				data["decay_rate"] = d.Convergence.DecayRate
				data["stagnated"] = d.Convergence.Stagnated
			}
		}
		if err != nil {
			data["err"] = err.Error()
		}
		if snapPath != "" {
			data["snapshot"] = snapPath
		}
		telemetry.EmitEventCtx(ctx, telemetry.EvSolveEnd, jid, data)
	}()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.checkInput(vin); err != nil {
		return nil, err
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxNewton <= 0 {
		opt.MaxNewton = 50
	}
	if opt.CGTol <= 0 {
		opt.CGTol = 1e-10
	}
	// Cancellation contract: ctx is checked before every linear (CG) solve
	// and per bisection column, so an aborted sweep stops burning CPU
	// mid-Newton-loop; the error wraps ctx.Err().
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("circuit: solve aborted: %w", err)
	}
	// Cost accounting is always on: pure integer counting into the
	// per-phase model (Diagnostics.Cost), observational only.
	cost := &CostModel{}
	// Flight recorder: the correlation id ties this solve's journal events
	// together (the matching solve_end is emitted by the deferred block
	// above, after the span closes).
	if telemetry.JournalOn() {
		jid = nextSolveID("solve")
		telemetry.EmitEventCtx(ctx, telemetry.EvSolveStart, jid, map[string]any{
			"m": c.M, "n": c.N, "wire_r": c.WireR, "rsense": c.RSense,
			"linear": c.Linear, "tol": opt.Tol, "max_newton": opt.MaxNewton,
			"cg_tol": opt.CGTol, "precond": PrecondBlockJacobi,
		})
	}
	if c.WireR == 0 {
		telZeroWireSolve.Inc()
		res, err = c.solveZeroWire(ctx, vin, cost)
		if res != nil {
			res.Diag = &Diagnostics{Path: "zero-wire-bisection", Cost: cost}
		}
		return res, err
	}
	st := opt.State
	// Memo: a re-solve with bit-identical inputs returns the memoized
	// result (deep-copied) without touching the solver, so solving the
	// same crossbar with and without a reused state stays bit-identical.
	if hit := st.memoLookup(c, vin, opt); hit != nil {
		telCacheHits.Inc()
		res = hit
		return res, nil
	}
	// Per-phase sub-spans (assemble / setup / newton) are gated on the
	// journal recording: they exist purely for the causal timeline, and the
	// gate keeps a plain run's span count (and cost) unchanged. A nil span
	// is safe to End.
	traced := telemetry.JournalOn()
	var phaseSpan *telemetry.Span
	startPhase := func(name string) {
		if traced {
			_, phaseSpan = telemetry.StartSpan(ctx, name)
		}
	}
	startPhase("assemble")
	var a *assembly
	if st != nil && st.asm != nil && st.asmM == c.M && st.asmN == c.N {
		// Reuse the cached buffers: re-stamping writes every value, so the
		// system is bit-identical to a fresh assembly.
		a = st.asm
		c.stampValues(a, vin, &cost.Assembly)
	} else {
		a = c.assemble(vin, &cost.Assembly)
		if st != nil {
			st.asm, st.asmM, st.asmN = a, c.M, c.N
			st.pre = nil
		}
	}
	phaseSpan.End()
	diag := &Diagnostics{Path: "newton-cg", Precond: PrecondBlockJacobi, Cost: cost}
	if c.Linear {
		diag.Path = "linear-cg"
	}
	// Chain preconditioner, factored from the current calibrated matrix at
	// every solve start (so no numeric state beyond the warm vector crosses
	// solves), then frozen across Newton iterations (modified Newton) and
	// refreshed only when CG effort regresses.
	var pre *chainPrecond
	if st != nil && st.pre != nil {
		pre = st.pre
		err = pre.refresh(a.op, &cost.Precond)
	} else {
		pre, err = newChainPrecond(a.op, &cost.Precond)
		if st != nil {
			st.pre = pre
		}
	}
	if err != nil {
		return nil, fmt.Errorf("circuit: preconditioner: %w", err)
	}
	res = &Result{}
	work := st.cgWork()
	n2 := 2 * c.M * c.N
	// baseline is the inner CG iteration count of the first solve after
	// the last (re)factorization — the refresh policy's reference point.
	baseline := -1
	var v []float64
	if !c.Linear && st.warmFor(c) {
		// Warm start: resume Newton from the previous operating point; the
		// setup linear solve is skipped entirely.
		v = st.warmCopy()
		cost.Assembly.CountBytes(16 * int64(n2))
		diag.WarmStart = true
		telWarmSolves.Inc()
	} else {
		startPhase("setup")
		var x0 []float64
		if c.Linear && st.warmFor(c) {
			x0 = st.v
			diag.WarmStart = true
			telWarmSolves.Inc()
		}
		// Initial linear solve at calibrated resistances.
		var it int
		v, it, err = linalg.SolveCG(a.op, a.rhsBase, x0, linalg.CGOptions{Tol: opt.CGTol, Ops: &cost.CGLoop, Precond: pre, Work: work})
		if err != nil {
			return nil, fmt.Errorf("circuit: linear solve: %w", err)
		}
		res.CGIters += it
		res.NewtonIters = 1
		diag.SetupCGIters = it
		baseline = it
		phaseSpan.End()
	}
	if !c.Linear {
		startPhase("newton")
		defer phaseSpan.End()
		needRefresh := false
		for iter := 0; iter < opt.MaxNewton; iter++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("circuit: Newton iteration aborted: %w", err)
			}
			rhs := c.restamp(a, v, &cost.NewtonUpdate)
			if needRefresh {
				// The frozen factorization fell behind the Newton stamps;
				// refactor against the current matrix and re-baseline.
				if err := pre.refresh(a.op, &cost.Precond); err != nil {
					return nil, fmt.Errorf("circuit: preconditioner refresh: %w", err)
				}
				diag.PrecondRefreshes++
				telPreRefreshes.Inc()
				baseline = -1
				needRefresh = false
			}
			vNew, it, err := linalg.SolveCG(a.op, rhs, v, linalg.CGOptions{Tol: opt.CGTol, Ops: &cost.CGLoop, Precond: pre, Work: work})
			if err != nil {
				return nil, fmt.Errorf("circuit: Newton linear solve: %w", err)
			}
			// Deterministic modified-Newton refresh policy: refresh before
			// the next solve when this one needed more than 2·baseline+8
			// iterations — regression past the slack means the frozen
			// factorization stopped pulling its weight.
			if baseline < 0 {
				baseline = it
			} else if it > 2*baseline+8 {
				needRefresh = true
			}
			res.CGIters += it
			res.NewtonIters++
			delta := 0.0
			for i := range v {
				if d := math.Abs(vNew[i] - v[i]); d > delta {
					delta = d
				}
			}
			cost.NewtonUpdate.CountVecOp(len(v), 2) // ΔV convergence scan
			v = vNew
			diag.Residuals = append(diag.Residuals, delta)
			diag.CGIters = append(diag.CGIters, it)
			if jid != "" {
				telemetry.EmitEventCtx(ctx, telemetry.EvNewtonIter, jid, map[string]any{
					"iter": iter, "max_dv": jsonFinite(delta), "cg_iters": it,
				})
			}
			if delta < opt.Tol {
				break
			}
			if iter == opt.MaxNewton-1 {
				telDiverged.Inc()
				diag.CondEstimate = jsonFinite(linalg.EstimateCond(a.op, &cost.Diagnostics))
				diag.analyze()
				derr := &DivergenceError{Iters: opt.MaxNewton, FinalResidual: delta, Diag: diag}
				telemetry.Log().Warn("newton iteration diverged",
					"size", fmt.Sprintf("%dx%d", c.M, c.N), "max_newton", opt.MaxNewton, "tol", opt.Tol)
				if telemetry.JournalOn() {
					snap := c.NewSnapshot(vin, opt, nil, derr)
					if diag.WarmStart {
						// Record the warm-start vector the trajectory began
						// from, so a replay reproduces it bit-identically.
						snap.WarmV = st.WarmV()
					}
					snapPath = saveSnapshot("divergence", snap)
				}
				return nil, derr
			}
		}
	}
	// Idempotent: closes the newton phase span on the converged path (the
	// deferred End covers the error returns above).
	phaseSpan.End()
	if opt.Diagnostics {
		diag.CondEstimate = jsonFinite(linalg.EstimateCond(a.op, &cost.Diagnostics))
	}
	diag.analyze()
	res.Diag = diag
	res.NodeV = v
	if st != nil {
		// With a state, v aliases its reusable CG/warm scratch; the result
		// outlives the next solve through the state, so it gets its own
		// storage.
		res.NodeV = append([]float64(nil), v...)
	}
	res.VOut = c.extractVOut(v)
	res.Power = c.sourcePower(vin, v)
	// A converged solve feeds the state: its operating point warm-starts
	// the next solve, and its result answers bit-identical re-solves.
	st.store(c, vin, opt, res)
	return res, nil
}

// diagOf extracts the diagnostics of a finished solve from whichever side
// carries them: the result on success, the typed error on divergence.
func diagOf(res *Result, err error) *Diagnostics {
	if res != nil && res.Diag != nil {
		return res.Diag
	}
	var de *DivergenceError
	if errors.As(err, &de) {
		return de.Diag
	}
	return nil
}

// extractVOut reads the sense-node voltages of the solved network.
func (c *Crossbar) extractVOut(v []float64) []float64 {
	out := make([]float64, c.N)
	for n := 0; n < c.N; n++ {
		out[n] = v[c.colNode(c.M-1, n)]
	}
	return out
}

// sourcePower sums the power each source delivers driving its row
// through the first wire segment.
func (c *Crossbar) sourcePower(vin, v []float64) float64 {
	gw := c.wireG()
	p := 0.0
	for m := 0; m < c.M; m++ {
		i := gw * (vin[m] - v[c.rowNode(m, 0)])
		p += vin[m] * i
	}
	return p
}

// CellVoltage returns the voltage across cell (m,n) in a solved result.
func (c *Crossbar) CellVoltage(res *Result, m, n int) float64 {
	return res.NodeV[c.rowNode(m, n)] - res.NodeV[c.colNode(m, n)]
}

// DissipatedPower sums the power burned in every element of the solved
// network (wires, cells, sense resistors). For a correct DC solution it
// equals the source power; the solver tests use it as an energy-conservation
// check.
func (c *Crossbar) DissipatedPower(res *Result, vin []float64) float64 {
	p := 0.0
	if c.WireR > 0 {
		gw := c.wireG()
		for m := 0; m < c.M; m++ {
			dv := vin[m] - res.NodeV[c.rowNode(m, 0)]
			p += dv * dv * gw
			for n := 0; n+1 < c.N; n++ {
				dv := res.NodeV[c.rowNode(m, n)] - res.NodeV[c.rowNode(m, n+1)]
				p += dv * dv * gw
			}
		}
		for n := 0; n < c.N; n++ {
			for m := 0; m+1 < c.M; m++ {
				dv := res.NodeV[c.colNode(m, n)] - res.NodeV[c.colNode(m+1, n)]
				p += dv * dv * gw
			}
		}
	}
	for n := 0; n < c.N; n++ {
		vLast := res.NodeV[c.colNode(c.M-1, n)]
		p += vLast * vLast / c.RSense
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			vd := c.CellVoltage(res, m, n)
			if c.Linear {
				p += vd * vd / c.R[m][n]
			} else {
				p += vd * c.Dev.Current(vd, c.R[m][n])
			}
		}
	}
	return p
}

// IdealOut returns the interconnect-free, linear-device output voltages:
// the fixed-point "ideal computation result" of the accuracy model
// (Section VI), V_n = Σ_m g_mn·v_m / (g_s + Σ_m g_mn), the column form of
// Eq. 2.
func (c *Crossbar) IdealOut(vin []float64) ([]float64, error) {
	if err := c.checkInput(vin); err != nil {
		return nil, err
	}
	gs := 1 / c.RSense
	out := make([]float64, c.N)
	for n := 0; n < c.N; n++ {
		num, den := 0.0, gs
		for m := 0; m < c.M; m++ {
			g := 1 / c.R[m][n]
			num += g * vin[m]
			den += g
		}
		out[n] = num / den
	}
	return out, nil
}
