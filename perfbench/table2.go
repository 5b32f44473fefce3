package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/tech"
)

// Table II at the paper's size: 128×128 RRAM crossbars with 45 nm wires.
const (
	table2Size = 128
	// table2K is the number of compute solves, and of read solves, per
	// weight sample.
	table2K = 4
	// table2Pool is how many weight samples set-up draws; items cycle
	// through them, each with a fresh SolverState and fresh inputs.
	table2Pool = 64
	// table2Bound is the paper's model-versus-circuit bound.
	table2Bound = 0.10
	// latencySeed seeds the crossbar of the latency row.
	latencySeed = 2016
)

// table2 is the table2-warm workload: one item is one weight sample, a
// 128×128 crossbar solved table2K times with every row driven and
// table2K times with one row driven, alternating, through one
// SolverState on one goroutine. Each timed phase starts with one
// transient settle, which gives the latency row.
type table2 struct {
	seed  int64
	p     crossbar.Params
	dev   device.Model
	wire  tech.WireTech
	xbars []*circuit.Crossbar
	lat   *circuit.Crossbar

	compPower, readPower float64
	nComp, nRead         int
	settle               float64
}

func (w *table2) setup(seed int64, _ int) error {
	w.seed = seed
	w.dev = device.RRAM()
	w.wire = tech.MustInterconnect(45)
	w.p = crossbar.New(table2Size, table2Size, w.dev, w.wire)
	rng := rand.New(rand.NewSource(seed))
	w.xbars = make([]*circuit.Crossbar, table2Pool)
	for i := range w.xbars {
		w.xbars[i] = w.randomCrossbar(rng)
	}
	// The latency row compares one settle against a model that does not
	// depend on the weights, so its gap varies only with the settle
	// crossbar. Drawing that crossbar from a fixed stream keeps the row,
	// and model_err_pct with it, comparable across seeds.
	w.lat = w.randomCrossbar(rand.New(rand.NewSource(latencySeed)))
	return nil
}

func (w *table2) randomCrossbar(rng *rand.Rand) *circuit.Crossbar {
	return &circuit.Crossbar{M: table2Size, N: table2Size, R: randomResistances(table2Size, table2Size, w.dev, rng),
		WireR: w.wire.SegmentR, RSense: w.p.RSense, Dev: w.dev}
}

// randomResistances draws every cell's level uniformly.
func randomResistances(rows, cols int, dev device.Model, rng *rand.Rand) [][]float64 {
	r := make([][]float64, rows)
	for i := range r {
		r[i] = make([]float64, cols)
		for j := range r[i] {
			res, err := dev.LevelResistance(rng.Intn(dev.Levels()))
			if err != nil {
				panic(err) // unreachable: the level is in range by construction
			}
			r[i][j] = res
		}
	}
	return r
}

func (w *table2) phaseStart(ctx context.Context, rec *recorder) error {
	vin := make([]float64, table2Size)
	for i := range vin {
		vin[i] = w.p.VDrive
	}
	_, sp := rec.start(ctx, "circuit.settle", -1, false)
	rc, err := w.lat.SettleTime(vin, circuit.TransientOptions{NodeCap: w.wire.SegmentC, CellCap: w.dev.CellCap})
	sp.end()
	if err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	if math.IsNaN(rc) || rc <= 0 {
		return fmt.Errorf("settle time %g s is not positive", rc)
	}
	w.settle = rc + w.dev.SwitchLatency
	return nil
}

func (w *table2) round(ctx context.Context, rec *recorder, r int) ([]outcome, uint64) {
	start := time.Now()
	dg := newDigest()
	err := w.item(ctx, rec, r, dg)
	return []outcome{{dur: time.Since(start), err: err}}, dg.sum()
}

// item runs weight sample r. Its inputs are a pure function of the seed
// and r: the drives of the compute solves are uniform over [0, VDrive],
// and each read solve drives a different row at AvgDriveRMS.
func (w *table2) item(ctx context.Context, rec *recorder, r int, dg *digest) error {
	c := w.xbars[r%len(w.xbars)]
	rng := rand.New(rand.NewSource(mix(w.seed, int64(r))))
	rows := rng.Perm(table2Size)[:table2K]
	st := circuit.NewSolverState()
	var guard vinGuard
	for k := 0; k < table2K; k++ {
		vin := make([]float64, table2Size)
		for i := range vin {
			vin[i] = w.p.VDrive * rng.Float64()
		}
		res, err := w.solveOn(ctx, rec, r, c, st, &guard, vin, driveCompute)
		if err != nil {
			return err
		}
		w.compPower += res.Power
		w.nComp++
		dg.add(res.Power)
		dg.add(res.VOut...)

		vin = make([]float64, table2Size)
		vin[rows[k]] = w.p.AvgDriveRMS()
		if res, err = w.solveOn(ctx, rec, r, c, st, &guard, vin, driveRead); err != nil {
			return err
		}
		w.readPower += res.Power
		w.nRead++
		dg.add(res.Power)
		dg.add(res.VOut...)
	}
	return nil
}

func (w *table2) solveOn(ctx context.Context, rec *recorder, r int, c *circuit.Crossbar, st *circuit.SolverState, guard *vinGuard, vin []float64, drive string) (*circuit.Result, error) {
	if err := guard.admit(vin); err != nil {
		return nil, err
	}
	return solve(ctx, rec, r, c, vin, circuit.SolveOptions{State: st}, drive, true)
}

// finish checks the Table II rows against the paper's 10% bound and
// returns the worst relative gap of the computation-power, read-power
// and latency rows, in percent.
func (w *table2) finish() ([]error, float64) {
	if w.nComp == 0 || w.nRead == 0 {
		return []error{fmt.Errorf("table II: no solves")}, 0
	}
	comp := w.compPower / float64(w.nComp)
	read := w.readPower / float64(w.nRead)
	rows := []struct {
		name           string
		model, circuit float64
	}{
		{"computation power", w.p.ComputePower(), comp},
		{"read power", w.p.ReadPower(), read},
		{"latency", w.p.Latency(), w.settle},
		{"computation energy", w.p.ComputePower() * w.p.Latency(), comp * w.settle},
	}
	var err error
	worst := 0.0
	for i, row := range rows {
		gap := math.Abs(row.model-row.circuit) / row.circuit
		fmt.Printf("table II %-18s model %.4g circuit %.4g gap %.2f%%\n", row.name, row.model, row.circuit, 100*gap)
		if !(gap < table2Bound) && err == nil {
			err = fmt.Errorf("table II %s: model %g vs circuit %g is %.1f%% apart, over the %.0f%% bound",
				row.name, row.model, row.circuit, 100*gap, 100*table2Bound)
		}
		if i < 3 {
			worst = math.Max(worst, gap)
		}
	}
	return []error{err}, 100 * worst
}

// mix derives an independent stream seed from a base seed and an index
// (the splitmix64 finalizer).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
