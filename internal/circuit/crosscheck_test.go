package circuit

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/linalg"
	"mnsim/internal/linalg/linalgtest"
)

// denseMNA builds the linear crossbar's MNA system independently of the
// solver, as a dense matrix and right-hand side.
func denseMNA(c *Crossbar, vin []float64) (*linalgtest.Dense, []float64) {
	n2 := 2 * c.M * c.N
	row := func(m, n int) int { return m*c.N + n }
	col := func(m, n int) int { return c.M*c.N + m*c.N + n }
	a := linalgtest.NewDense(n2, n2)
	b := make([]float64, n2)
	gw := 1 / c.WireR
	stamp := func(i, j int, g float64) {
		a.Add(i, i, g)
		a.Add(j, j, g)
		a.Add(i, j, -g)
		a.Add(j, i, -g)
	}
	for m := 0; m < c.M; m++ {
		first := row(m, 0)
		a.Add(first, first, gw)
		b[first] += gw * vin[m]
		for n := 0; n+1 < c.N; n++ {
			stamp(row(m, n), row(m, n+1), gw)
		}
	}
	gs := 1 / c.RSense
	for n := 0; n < c.N; n++ {
		for m := 0; m+1 < c.M; m++ {
			stamp(col(m, n), col(m+1, n), gw)
		}
		last := col(c.M-1, n)
		a.Add(last, last, gs)
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			stamp(row(m, n), col(m, n), 1/c.R[m][n])
		}
	}
	return a, b
}

// denseSolve solves the same linear crossbar with the independently built
// dense MNA system (direct LU, no stencil, no CG) — a from-scratch
// cross-check of the solver's stamping, including rectangular shapes.
func denseSolve(t *testing.T, c *Crossbar, vin []float64) []float64 {
	t.Helper()
	a, b := denseMNA(c, vin)
	x, err := linalgtest.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, c.N)
	for n := range out {
		out[n] = x[c.M*c.N+(c.M-1)*c.N+n]
	}
	return out
}

// Rectangular crossbars (M≠N in both directions) must match the
// independent dense solution element for element.
func TestSparseSolverMatchesDenseMNA(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dev := device.RRAM()
	for _, shape := range [][2]int{{3, 7}, {7, 3}, {5, 5}, {1, 6}, {6, 1}, {12, 4}} {
		m, n := shape[0], shape[1]
		c := &Crossbar{M: m, N: n, R: randomR(m, n, dev, rng), WireR: 0.8, RSense: 1500, Linear: true}
		vin := make([]float64, m)
		for i := range vin {
			vin[i] = 0.05 + 0.25*rng.Float64()
		}
		res, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		want := denseSolve(t, c, vin)
		for j := range want {
			// The sparse path stops at CG's relative-residual tolerance,
			// so match to 1e-6 of the output scale.
			if math.Abs(res.VOut[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
				t.Fatalf("%dx%d col %d: sparse %v vs dense %v", m, n, j, res.VOut[j], want[j])
			}
		}
	}
}

// FuzzSolve drives small crossbars — up to 6×6, wire resistance 0 (the
// bisection path) or 1 mΩ to 1 MΩ, linear and sinh devices, mixed-sign and
// all-negative drives — through Solve and holds every successful result to
// physics: finite outputs and power, agreement with the dense-LU MNA
// oracle for linear cells (to 1e-6 of the drive scale, which bounds every
// node voltage), and source power equal to the power the network
// dissipates (to 1e-9 relative).
//
// Both comparisons also allow what CG's stopping rule admits: CG stops at
// a KCL residual ‖r‖ < CGTol·‖rhs‖, where the right-hand side is the
// source injection gw·vin plus the Newton companion currents. That moves
// the node voltages by at most ‖A⁻¹‖·‖r‖ and, by Tellegen's theorem, the
// power balance by v·r. At small wire resistance or small cell currents
// these allowances exceed the fixed tolerances.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(4), uint8(4), int64(1), 2.5, true, false)
	f.Add(uint8(6), uint8(3), int64(2), 0.0, false, true)
	f.Add(uint8(1), uint8(6), int64(3), 1e6, true, true)
	f.Add(uint8(5), uint8(5), int64(4), 1e-3, false, false)
	f.Add(uint8(0), uint8(1), int64(192), 2.5, false, false)
	f.Fuzz(func(t *testing.T, m, n uint8, seed int64, wireR float64, linear, allNegative bool) {
		wireR = math.Abs(wireR)
		if math.IsNaN(wireR) || wireR > 1e6 || (wireR > 0 && wireR < 1e-3) {
			return
		}
		M, N := 1+int(m%6), 1+int(n%6)
		dev := device.RRAM()
		rng := rand.New(rand.NewSource(seed))
		c := &Crossbar{M: M, N: N, R: randomR(M, N, dev, rng), WireR: wireR, RSense: 1500, Dev: dev, Linear: linear}
		vin := make([]float64, M)
		vmax := 0.0
		for i := range vin {
			vin[i] = 2 * dev.ReadVoltage * (2*rng.Float64() - 1)
			if allNegative {
				vin[i] = -math.Abs(vin[i])
			}
			vmax = math.Max(vmax, math.Abs(vin[i]))
		}
		res, err := c.Solve(vin, SolveOptions{})
		if err != nil {
			return
		}
		for j, v := range res.VOut {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("nil error with VOut[%d] = %v", j, v)
			}
		}
		if math.IsNaN(res.Power) || math.IsInf(res.Power, 0) {
			t.Fatalf("nil error with Power = %v", res.Power)
		}
		if linear {
			want, err := c.IdealOut(vin)
			if err != nil {
				t.Fatal(err)
			}
			allow := 1e-6 * vmax
			if wireR > 0 {
				want = denseSolve(t, c, vin)
				allow += 1e-10 * cgErrorGain(t, c, vin)
			}
			for j := range want {
				if d := math.Abs(res.VOut[j] - want[j]); d > allow {
					t.Fatalf("%dx%d wire %g: VOut[%d] = %v, dense oracle %v (|Δ| %.3g, allowed %.3g)", M, N, wireR, j, res.VOut[j], want[j], d, allow)
				}
			}
		}
		allow := 1e-9 * math.Abs(res.Power)
		if wireR > 0 {
			allow += 1e-10 * linalg.Norm2(res.NodeV) * rhsNorm(c, vin, res.NodeV)
		}
		if diss := c.DissipatedPower(res, vin); math.Abs(res.Power-diss) > allow {
			t.Fatalf("%dx%d wire %g linear %v: source power %v, dissipated %v (|Δ| %.3g, allowed %.3g)", M, N, wireR, linear, res.Power, diss, math.Abs(res.Power-diss), allow)
		}
	})
}

// cgErrorGain is ‖A⁻¹‖_F·‖b‖ for the linear crossbar's MNA system: the
// largest node-voltage error a relative CG residual of 1 could leave.
func cgErrorGain(t *testing.T, c *Crossbar, vin []float64) float64 {
	t.Helper()
	a, b := denseMNA(c, vin)
	f, err := linalgtest.FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	e := make([]float64, len(b))
	for i := range e {
		e[i] = 1
		col, err := f.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[i] = 0
		for _, x := range col {
			sum += x * x
		}
	}
	return math.Sqrt(sum) * linalg.Norm2(b)
}

// rhsNorm is ‖rhs‖ of the MNA system linearised at node voltages v: the
// source injection gw·vin at each row's first node plus, for sinh cells,
// the Newton companion current I(vd) − g(vd)·vd at both cell nodes.
func rhsNorm(c *Crossbar, vin, v []float64) float64 {
	rhs := make([]float64, len(v))
	for m := 0; m < c.M; m++ {
		rhs[c.rowNode(m, 0)] = vin[m] / c.WireR
	}
	if !c.Linear {
		for m := 0; m < c.M; m++ {
			for n := 0; n < c.N; n++ {
				i, j := c.rowNode(m, n), c.colNode(m, n)
				vd := v[i] - v[j]
				cur, g := c.Dev.CurrentAndConductance(vd, c.R[m][n])
				rhs[i] -= cur - g*vd
				rhs[j] += cur - g*vd
			}
		}
	}
	return linalg.Norm2(rhs)
}
