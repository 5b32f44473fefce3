package circuit

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/linalg/linalgtest"
)

// Failure injection: a pathologically non-linear device must trip the
// Newton divergence guard instead of looping or returning garbage, and the
// error must carry the diagnostics payload through the errors.Is/As chain.
func TestNewtonDivergenceDetected(t *testing.T) {
	dev := device.RRAM()
	// Steep enough that Newton oscillates forever, mild enough that each
	// inner CG solve still converges — a true Newton divergence, not a
	// linear-solver failure.
	dev.NonlinearVc = 2e-3
	c := &Crossbar{M: 2, N: 2, R: uniformR(2, 2, 100e3), WireR: 1, RSense: 1500, Dev: dev}
	_, err := c.Solve([]float64{0.3, 0.3}, SolveOptions{MaxNewton: 5})
	if err == nil {
		t.Fatal("pathological device converged")
	}
	if !errors.Is(err, ErrNewtonDiverged) {
		t.Fatalf("errors.Is(err, ErrNewtonDiverged) false for %v", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("errors.As *DivergenceError false for %T", err)
	}
	if de.Iters != 5 {
		t.Errorf("DivergenceError.Iters = %d, want 5", de.Iters)
	}
	if de.FinalResidual <= 0 {
		t.Errorf("DivergenceError.FinalResidual = %v, want > 0", de.FinalResidual)
	}
	if de.Diag == nil {
		t.Fatal("DivergenceError.Diag nil")
	}
	if len(de.Diag.Residuals) != 5 || len(de.Diag.CGIters) != 5 {
		t.Errorf("trajectory lengths %d/%d, want 5/5", len(de.Diag.Residuals), len(de.Diag.CGIters))
	}
	if de.Diag.Path != "newton-cg" {
		t.Errorf("Diag.Path = %q", de.Diag.Path)
	}
	if de.Diag.CondEstimate <= 0 {
		t.Errorf("Diag.CondEstimate = %v, want > 0 on divergence", de.Diag.CondEstimate)
	}
	if last := de.Diag.Residuals[len(de.Diag.Residuals)-1]; last != de.FinalResidual {
		t.Errorf("FinalResidual %v disagrees with trajectory tail %v", de.FinalResidual, last)
	}
}

// An exhausted linear-solver budget surfaces as linalg.ErrNoConvergence.
func TestCGBudgetExhaustion(t *testing.T) {
	// Larger grids cannot hit machine-precision tolerance in one iteration.
	m, err := linalgtest.NewCSR(3, []linalgtest.Coord{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 4}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = linalg.SolveCG(m, []float64{1, 2, 3}, nil, linalg.CGOptions{Tol: 1e-16, MaxIter: 1})
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

// The zero-wire fast path handles the non-linear device too.
func TestZeroWireNonlinear(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 200e3), WireR: 0, RSense: 1500, Dev: dev}
	vin := []float64{0.3, 0.3, 0.3, 0.3}
	res, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// KCL check at each column: cell currents balance the sense current.
	for n := 0; n < 4; n++ {
		sum := 0.0
		for m := 0; m < 4; m++ {
			sum += dev.Current(vin[m]-res.VOut[n], 200e3)
		}
		if diff := sum - res.VOut[n]/1500; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("column %d KCL residual %v", n, diff)
		}
	}
	// Power bookkeeping holds on the fast path too.
	diss := c.DissipatedPower(res, vin)
	if rel := (res.Power - diss) / res.Power; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("power mismatch: source %v vs dissipated %v", res.Power, diss)
	}
}

// Solving twice must not corrupt shared state (the assembly is rebuilt).
func TestSolveReentrant(t *testing.T) {
	dev := device.RRAM()
	c := &Crossbar{M: 4, N: 4, R: uniformR(4, 4, 150e3), WireR: 0.5, RSense: 1500, Dev: dev}
	vin := []float64{0.3, 0.2, 0.1, 0.3}
	a, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Solve(vin, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range a.VOut {
		if a.VOut[n] != b.VOut[n] {
			t.Fatalf("column %d differs between runs", n)
		}
	}
}

// TestNonFiniteInputsRejected: a NaN or infinite drive, cell resistance,
// wire resistance or sense resistance is an error naming the bad value on
// both solver paths (zero-wire bisection and Newton–CG) and in SettleTime,
// and a non-finite drive is one in IdealOut — never a nil error with a NaN
// or infinite result, and never a misleading CG-breakdown or
// preconditioner-pivot failure.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		edit      func(c *Crossbar, vin []float64)
		wantInErr string
	}{
		{"NaN drive", func(c *Crossbar, vin []float64) { vin[1] = nan }, "non-finite input NaN at index 1"},
		{"+Inf drive", func(c *Crossbar, vin []float64) { vin[0] = inf }, "non-finite input +Inf at index 0"},
		{"-Inf drive", func(c *Crossbar, vin []float64) { vin[2] = -inf }, "non-finite input -Inf at index 2"},
		{"NaN cell", func(c *Crossbar, vin []float64) { c.R[1][2] = nan }, "resistance NaN at (1,2)"},
		{"+Inf cell", func(c *Crossbar, vin []float64) { c.R[0][0] = inf }, "resistance +Inf at (0,0)"},
		{"NaN sense", func(c *Crossbar, vin []float64) { c.RSense = nan }, "sense resistance NaN"},
		{"+Inf sense", func(c *Crossbar, vin []float64) { c.RSense = inf }, "sense resistance +Inf"},
	}
	for _, wireR := range []float64{0, 2.5} {
		for _, linear := range []bool{true, false} {
			for _, tc := range cases {
				c := &Crossbar{M: 3, N: 3, R: uniformR(3, 3, 100e3), WireR: wireR, RSense: 1500, Dev: device.RRAM(), Linear: linear}
				vin := []float64{0.3, -0.2, 0.1}
				tc.edit(c, vin)
				res, err := c.Solve(vin, SolveOptions{})
				if err == nil {
					t.Errorf("wire %g linear %v %s: nil error (result %+v)", wireR, linear, tc.name, res)
					continue
				}
				if !strings.Contains(err.Error(), tc.wantInErr) {
					t.Errorf("wire %g linear %v %s: err %q, want it to contain %q", wireR, linear, tc.name, err, tc.wantInErr)
				}
			}
		}
	}
	for _, tc := range cases {
		c := &Crossbar{M: 3, N: 3, R: uniformR(3, 3, 100e3), WireR: 2.5, RSense: 1500, Dev: device.RRAM()}
		vin := []float64{0.3, -0.2, 0.1}
		tc.edit(c, vin)
		if _, err := c.SettleTime(vin, TransientOptions{NodeCap: 1e-15}); err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("SettleTime %s: err %v, want it to contain %q", tc.name, err, tc.wantInErr)
		}
	}
	for _, tc := range cases[:3] { // the drive cases
		c := &Crossbar{M: 3, N: 3, R: uniformR(3, 3, 100e3), WireR: 2.5, RSense: 1500, Linear: true}
		vin := []float64{0.3, -0.2, 0.1}
		tc.edit(c, vin)
		if _, err := c.IdealOut(vin); err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("IdealOut %s: err %v, want it to contain %q", tc.name, err, tc.wantInErr)
		}
	}
	for _, wireR := range []float64{nan, inf, -inf} {
		c := &Crossbar{M: 3, N: 3, R: uniformR(3, 3, 100e3), WireR: wireR, RSense: 1500, Dev: device.RRAM()}
		if _, err := c.Solve([]float64{0.3, -0.2, 0.1}, SolveOptions{}); err == nil || !strings.Contains(err.Error(), "wire resistance") {
			t.Errorf("wire resistance %v: err %v, want a wire-resistance error", wireR, err)
		}
	}
}
