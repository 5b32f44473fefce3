package circuit

import (
	"fmt"
	"math"

	"mnsim/internal/linalg"
	"mnsim/internal/telemetry"
)

// TransientOptions tunes SettleTime.
type TransientOptions struct {
	// NodeCap is the wire capacitance attached to every internal node in
	// farads (one segment's worth per node).
	NodeCap float64
	// CellCap is the additional parasitic capacitance each cell presents to
	// its column node (device.Model.CellCap); rows are driven by stiff
	// sources, so the cell capacitance appears at the column side.
	CellCap float64
	// SettleFrac is the convergence criterion: settled when every output is
	// within SettleFrac of its final DC value. Default 1/512 (half an LSB
	// at 8 bits).
	SettleFrac float64
	// Dt is the backward-Euler step; the default resolves the dominant
	// output pole, RSense·M·(NodeCap+CellCap)/50 — fifty steps per
	// worst-case column time constant (the sense resistor driving all M
	// column-node capacitances) — with a floor of 1 fs.
	Dt float64
	// MaxSteps bounds the integration; default 100000.
	MaxSteps int
}

// SettleTime measures the crossbar's output settling latency by transient
// (backward-Euler) simulation of the full RC network — the circuit-level
// latency reference the behavioural Elmore model is validated against
// (Table II). Cells are linearised at their calibrated resistance, which is
// accurate for settling behaviour since the non-linear deviation is a
// small-signal effect at the operating point.
//
// The grid starts discharged (all nodes at 0 V) and the inputs step to vin
// at t = 0; the returned time is when every column output has come within
// SettleFrac of its DC value.
func (c *Crossbar) SettleTime(vin []float64, opt TransientOptions) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := c.checkInput(vin); err != nil {
		return 0, err
	}
	if c.WireR == 0 {
		return 0, fmt.Errorf("circuit: transient needs a resistive wire model")
	}
	if opt.NodeCap <= 0 {
		return 0, fmt.Errorf("circuit: node capacitance must be positive")
	}
	if opt.SettleFrac <= 0 {
		opt.SettleFrac = 1.0 / 512
	}
	if opt.Dt <= 0 {
		// Resolve the dominant pole (≤ R_s · column capacitance) with ~50
		// steps per time constant.
		opt.Dt = c.RSense * float64(c.M) * (opt.NodeCap + opt.CellCap) / 50
		if opt.Dt < 1e-15 {
			opt.Dt = 1e-15
		}
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 100000
	}
	// Flight recorder: one transient_settle event per run, emitted at the
	// settle/non-settle outcome with the resolved options in scope.
	jid := ""
	if telemetry.JournalOn() {
		jid = nextSolveID("transient")
	}
	lin := *c
	lin.Linear = true
	a := lin.assemble(vin, nil)
	// The chain preconditioner serves both the DC target solve and — after
	// a refresh against the capacitance-shifted diagonal — every
	// backward-Euler step.
	pre, err := newChainPrecond(a.op, nil)
	if err != nil {
		return 0, fmt.Errorf("circuit: preconditioner: %w", err)
	}
	// DC target for the settling criterion.
	final, _, err := linalg.SolveCG(a.op, a.rhsBase, nil, linalg.CGOptions{Tol: 1e-10, Precond: pre})
	if err != nil {
		return 0, fmt.Errorf("circuit: DC solve: %w", err)
	}
	// Backward Euler: (G + C/dt)·v_{t+dt} = C/dt·v_t + b. G + C/dt is the
	// same stencil with C/dt added to every diagonal; the cell capacitance
	// sits on the column nodes.
	n2 := 2 * c.M * c.N
	half := c.M * c.N // column nodes start here
	rowShift := opt.NodeCap / opt.Dt
	colShift := (opt.NodeCap + opt.CellCap) / opt.Dt
	a.op.setDiag(rowShift, colShift)
	// The stepping matrix is constant, so one refresh preconditions every
	// step of the integration.
	if err := pre.refresh(a.op, nil); err != nil {
		return 0, fmt.Errorf("circuit: preconditioner: %w", err)
	}
	var work linalg.CGWork
	v := make([]float64, n2) // discharged start
	rhs := make([]float64, n2)
	// settled also reports the worst remaining output deviation in volts,
	// so a non-settle failure can say how far from done it still was.
	lastMaxDV := 0.0
	settled := func() bool {
		ok := true
		worst := 0.0
		for n := 0; n < c.N; n++ {
			idx := c.colNode(c.M-1, n)
			f := final[idx]
			d := math.Abs(v[idx] - f)
			if d > worst {
				worst = d
			}
			if d > opt.SettleFrac*math.Max(math.Abs(f), 1e-12) {
				ok = false
			}
		}
		lastMaxDV = worst
		return ok
	}
	for step := 1; step <= opt.MaxSteps; step++ {
		copy(rhs, a.rhsBase)
		for i := 0; i < half; i++ {
			rhs[i] += rowShift * v[i]
		}
		for i := half; i < n2; i++ {
			rhs[i] += colShift * v[i]
		}
		// The solution aliases work storage and stays valid for one more
		// call — exactly until it has served as the next step's x0.
		v, _, err = linalg.SolveCG(a.op, rhs, v, linalg.CGOptions{Tol: 1e-9, Precond: pre, Work: &work})
		if err != nil {
			return 0, fmt.Errorf("circuit: transient step %d: %w", step, err)
		}
		if settled() {
			t := float64(step) * opt.Dt
			if jid != "" {
				telemetry.EmitEvent(telemetry.EvTransientSettle, jid, map[string]any{
					"ok": true, "steps": step, "settle_seconds": t, "dt": opt.Dt,
				})
			}
			return t, nil
		}
	}
	nerr := &NotSettledError{Steps: opt.MaxSteps, LastMaxDV: lastMaxDV}
	if telemetry.JournalOn() {
		snapPath := saveSnapshot("transient",
			c.newTransientSnapshot(vin, opt, 0, opt.MaxSteps, lastMaxDV, nerr))
		data := map[string]any{
			"ok": false, "steps": opt.MaxSteps,
			"last_max_dv": jsonFinite(lastMaxDV), "err": nerr.Error(),
		}
		if snapPath != "" {
			data["snapshot"] = snapPath
		}
		telemetry.EmitEvent(telemetry.EvTransientSettle, jid, data)
	}
	return 0, nerr
}
