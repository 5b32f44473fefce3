package circuit

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

// BenchmarkSolve times one non-linear crossbar solve and reports the
// Newton and CG iteration counts alongside ns/op, so an iteration-count
// regression (a solver that still converges but works harder for it)
// shows up in the bench trajectory even when wall time hides it behind
// machine noise.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []int{16, 32, 64, 256} {
		b.Run(benchName(size), func(b *testing.B) {
			dev := device.RRAM()
			rng := rand.New(rand.NewSource(1))
			c := &Crossbar{
				M: size, N: size,
				R:      randomR(size, size, dev, rng),
				WireR:  2.5,
				RSense: 1e3,
				Dev:    dev,
			}
			vin := make([]float64, size)
			for i := range vin {
				vin[i] = 2 * dev.ReadVoltage * rng.Float64()
			}
			// One untimed solve first: the tracer's first aggregate for the
			// circuit.solve span allocates once per process, which would
			// otherwise land in the first timed run's allocs/op.
			if _, err := c.Solve(vin, SolveOptions{}); err != nil {
				b.Fatal(err)
			}
			var newton, cg, flops, refreshes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				newton += int64(res.NewtonIters)
				cg += int64(res.CGIters)
				flops += res.Diag.Cost.Total().Flops
				refreshes += int64(res.Diag.PrecondRefreshes)
			}
			b.ReportMetric(float64(newton)/float64(b.N), "newton-iters/op")
			b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
			b.ReportMetric(float64(flops)/float64(b.N), "flops/op")
			b.ReportMetric(float64(refreshes)/float64(b.N), "precond-refreshes/op")
		})
	}
}

// BenchmarkSolveWarm times the warm-start path: one SolverState threaded
// through a stream of solves whose inputs drift deterministically, the
// shape of a DSE candidate evaluation or Monte-Carlo trial sequence. The
// interesting metric is cg-iters/op relative to the cold BenchmarkSolve.
func BenchmarkSolveWarm(b *testing.B) {
	const size = 64
	dev := device.RRAM()
	rng := rand.New(rand.NewSource(1))
	c := &Crossbar{
		M: size, N: size,
		R:      randomR(size, size, dev, rng),
		WireR:  2.5,
		RSense: 1e3,
		Dev:    dev,
	}
	base := make([]float64, size)
	for i := range base {
		base[i] = 2 * dev.ReadVoltage * rng.Float64()
	}
	vin := make([]float64, size)
	st := NewSolverState()
	// One warm-up solve outside the timer so the state's scratch buffers
	// (CG work vectors, preconditioner factors, warm vector) are already
	// grown: the timed region then measures the steady state, which is
	// what the allocs/op gate pins to ~0 solver-side allocations.
	copy(vin, base)
	if _, err := c.Solve(vin, SolveOptions{State: st}); err != nil {
		b.Fatal(err)
	}
	var cg, refreshes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Deterministic per-iteration drift (no mid-loop rand), starting
		// at the first timed iteration: no solve repeats the warm-up input
		// or its predecessor, so the memo never answers and the warm start
		// does real work.
		scale := 1 + 1e-3*float64(1+i%7)
		for m := range vin {
			vin[m] = base[m] * scale
		}
		res, err := c.Solve(vin, SolveOptions{State: st})
		if err != nil {
			b.Fatal(err)
		}
		if res.Diag.CacheHit {
			b.Fatalf("iteration %d answered from the result memo", i)
		}
		cg += int64(res.CGIters)
		refreshes += int64(res.Diag.PrecondRefreshes)
	}
	b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
	b.ReportMetric(float64(refreshes)/float64(b.N), "precond-refreshes/op")
}

// BenchmarkSolveTelemetry bounds what the optional telemetry costs a solve
// at 64x64: "on" records the flight-recorder journal ring (solve, Newton
// and span events, plus the per-phase sub-spans it turns on) and runs the
// runtime/metrics resource sampler at its default 1s cadence; "off" is the
// plain solve, which pays one atomic load per span for the journal check.
// Cost accounting is always on, so both sides carry it. The acceptance
// budget is 5% on ns/op. Bit-identity with telemetry on is asserted
// separately in TestTracingNumericallyNeutral and
// TestResourceSamplingNumericallyNeutral.
func BenchmarkSolveTelemetry(b *testing.B) {
	const size = 64
	for _, bc := range []struct {
		name string
		on   bool
	}{
		{"on", true},
		{"off", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.on {
				j := telemetry.DefaultJournal()
				j.EnableRing()
				b.Cleanup(func() {
					j.Close()
					j.Reset()
				})
				// The benchmark body re-runs during iteration-count
				// calibration; the sampler from the previous invocation is
				// still up then, so an already-running error is expected and
				// fine — the registered Stop is idempotent either way.
				s := telemetry.DefaultResourceSampler()
				if err := s.Start(context.Background(), telemetry.ResourceConfig{}); err == nil {
					b.Cleanup(s.Stop)
				}
			}
			dev := device.RRAM()
			rng := rand.New(rand.NewSource(1))
			c := &Crossbar{
				M: size, N: size,
				R:      randomR(size, size, dev, rng),
				WireR:  2.5,
				RSense: 1e3,
				Dev:    dev,
			}
			vin := make([]float64, size)
			for i := range vin {
				vin[i] = 2 * dev.ReadVoltage * rng.Float64()
			}
			var cg int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(vin, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cg += int64(res.CGIters)
			}
			b.ReportMetric(float64(cg)/float64(b.N), "cg-iters/op")
		})
	}
}

func benchName(size int) string {
	return fmt.Sprintf("%dx%d", size, size)
}
