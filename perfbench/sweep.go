package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mnsim/internal/accuracy"
	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/pool"
	"mnsim/internal/tech"
)

var (
	fig5Sizes   = []int{8, 16, 32, 64, 128}
	fig5Nodes   = []int{90, 45, 28, 18}
	table3Sizes = []int{16, 32, 64, 128, 256}
)

const (
	// sweepPool is how many Table III crossbar sets set-up draws; rounds
	// cycle through them.
	sweepPool = 8
	// fig5RMSEBound is the paper's bound on the Fig 5 fit.
	fig5RMSEBound = 0.01
)

// point is one cold solve of the sweep with the model-side inputs.
type point struct {
	fig5 bool
	p    crossbar.Params
	c    *circuit.Crossbar
	vin  []float64
}

// sweep is the sweep-cold workload: one round solves the Fig 5 grid and
// one set of Table III random crossbars, every point cold (no
// SolverState) on pool.Run with one worker per CPU. Each point also
// evaluates the behaviour model and the ideal output.
type sweep struct {
	workers int
	fig5    []point
	table3  [][]point

	fig5Model, fig5Circuit []float64
}

func (w *sweep) setup(seed int64, workers int) error {
	w.workers = workers
	dev := device.RRAM()
	w.fig5 = w.fig5[:0]
	for _, node := range fig5Nodes {
		wire, err := tech.Interconnect(node)
		if err != nil {
			return err
		}
		for _, size := range fig5Sizes {
			p := crossbar.New(size, size, dev, wire)
			r := make([][]float64, size)
			for i := range r {
				r[i] = make([]float64, size)
				for j := range r[i] {
					r[i][j] = dev.RMin
				}
			}
			w.fig5 = append(w.fig5, point{fig5: true, p: p, vin: filled(size, p.VDrive),
				c: &circuit.Crossbar{M: size, N: size, R: r, WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	wire := tech.MustInterconnect(45)
	w.table3 = make([][]point, sweepPool)
	for k := range w.table3 {
		for _, size := range table3Sizes {
			p := crossbar.New(size, size, dev, wire)
			vin := make([]float64, size)
			for i := range vin {
				vin[i] = p.VDrive * rng.Float64()
			}
			w.table3[k] = append(w.table3[k], point{p: p, vin: vin,
				c: &circuit.Crossbar{M: size, N: size, R: randomResistances(size, size, dev, rng), WireR: wire.SegmentR, RSense: p.RSense, Dev: dev}})
		}
	}
	return nil
}

func filled(n int, v float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

func (w *sweep) phaseStart(context.Context, *recorder) error { return nil }

func (w *sweep) round(ctx context.Context, rec *recorder, r int) ([]outcome, uint64) {
	points := append(append([]point(nil), w.fig5...), w.table3[r%len(w.table3)]...)
	out := make([]outcome, len(points))
	vout := make([][]float64, len(points))
	model := make([]float64, len(w.fig5))
	meas := make([]float64, len(w.fig5))
	pctx, sp := rec.start(ctx, "pool.run", r, true)
	err := pool.Run(pctx, len(points), w.workers, func(tctx context.Context, i int) error {
		start := time.Now()
		item := r*len(points) + i
		tctx, task := rec.start(tctx, "pool.task", item, false)
		pt := points[i]
		v, m, measured, err := w.solvePoint(tctx, rec, item, pt)
		task.end()
		out[i] = outcome{dur: time.Since(start), err: err}
		vout[i] = v
		if pt.fig5 {
			model[i], meas[i] = m, measured
		}
		return nil
	})
	sp.end()
	dg := newDigest()
	for i := range out {
		if err != nil && out[i].err == nil {
			out[i].err = err
		}
		dg.add(vout[i]...)
	}
	w.fig5Model, w.fig5Circuit = model, meas
	return out, dg.sum()
}

// solvePoint solves one point cold and evaluates its model side: it
// returns the outputs, the model's worst-column error rate and, for a
// Fig 5 point, the measured error rate of the farthest column, which it
// checks is the worst column.
func (w *sweep) solvePoint(ctx context.Context, rec *recorder, item int, pt point) (vout []float64, model, measured float64, err error) {
	res, err := solve(ctx, rec, item, pt.c, pt.vin, circuit.SolveOptions{}, driveCompute, false)
	if err != nil {
		return nil, 0, 0, err
	}
	_, sp := rec.start(ctx, "circuit.ideal", item, false)
	ideal, err := pt.c.IdealOut(pt.vin)
	sp.end()
	if err != nil {
		return nil, 0, 0, err
	}
	_, sp = rec.start(ctx, "accuracy.model", item, false)
	model, err = accuracy.WorstCaseColumn(pt.p)
	sp.end()
	if err != nil {
		return nil, 0, 0, err
	}
	if math.IsNaN(model) || math.IsInf(model, 0) {
		return nil, 0, 0, fmt.Errorf("model error rate %g is not finite", model)
	}
	if !pt.fig5 {
		return res.VOut, model, 0, nil
	}
	worst, at := math.Inf(-1), -1
	for j := range ideal {
		if e := (ideal[j] - res.VOut[j]) / ideal[j]; e > worst {
			worst, at = e, j
		}
	}
	last := pt.c.N - 1
	measured = (ideal[last] - res.VOut[last]) / ideal[last]
	if measured < worst {
		return nil, 0, 0, fmt.Errorf("fig 5 %dx%d: worst column is %d, not the farthest (%d)", pt.c.M, pt.c.N, at, last)
	}
	return res.VOut, model, measured, nil
}

// finish checks the Fig 5 fit of the last round and returns the largest
// model-versus-circuit gap of the worst-column error rate, in percentage
// points.
func (w *sweep) finish() ([]error, float64) {
	if len(w.fig5Model) == 0 {
		return []error{fmt.Errorf("fig 5: no round ran")}, 0
	}
	sumSq, worst := 0.0, 0.0
	for i := range w.fig5Model {
		gap := w.fig5Model[i] - w.fig5Circuit[i]
		sumSq += gap * gap
		worst = math.Max(worst, math.Abs(gap))
	}
	rmse := math.Sqrt(sumSq / float64(len(w.fig5Model)))
	fmt.Printf("fig 5 fit over %d points: RMSE %.5f, worst gap %.3f points\n", len(w.fig5Model), rmse, 100*worst)
	var err error
	if !(rmse < fig5RMSEBound) {
		err = fmt.Errorf("fig 5 RMSE %.4f is not below %g", rmse, fig5RMSEBound)
	}
	return []error{err}, 100 * worst
}
