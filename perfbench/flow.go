package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/funcsim"
	"mnsim/internal/mapper"
	"mnsim/internal/nn"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

const (
	// flowMapSize is the side of the weight matrix the mapper programs.
	flowMapSize = 512
	// flowSamples is the number of funcsim samples per item.
	flowSamples = 32
	// flowTrials is the Monte-Carlo trial count per item.
	flowTrials = 1000
	// flowPool is how many weight matrices, networks and sample sets
	// set-up draws; items cycle through them.
	flowPool = 4
	// flowMinCorrelation is how closely the mapped machine's output must
	// follow the software forward pass.
	flowMinCorrelation = 0.9
)

// flowWidths is the random FC net the functional simulator runs: one
// layer, because the machine and nn.Forward normalise hidden layers
// differently, so beyond one layer their outputs are not comparable.
var flowWidths = []int{512, 128}

// flowInputs is one set of design-flow inputs.
type flowInputs struct {
	weights [][]float64
	net     *nn.FCNet
	samples [][]float64
	// want holds the software forward pass of each sample, the reference
	// the machine's outputs must track.
	want [][]float64
}

// exploreCase is one design-space exploration of the paper.
type exploreCase struct {
	name   string
	base   arch.Design
	layers []arch.LayerDims
	space  dse.Space
	opt    dse.Options
}

// flow is the design-flow workload: one item maps a 512×512 weight
// matrix, builds a functional machine for a random FC net and runs
// samples through it, explores the Table IV and Table VI design spaces,
// selects the Pareto front and the per-objective optima, and runs a
// Monte-Carlo accuracy estimate. It never calls the circuit solver.
type flow struct {
	seed    int64
	workers int
	design  arch.Design
	inputs  []flowInputs
	cases   []exploreCase
	mc      crossbar.Params

	// Round 0's image and weights, for the round-trip check.
	img0 *mapper.Image
	w0   [][]float64
}

// paperDesign is the 45 nm reference design of both case studies.
func paperDesign(weightBits int, neuron periph.NeuronKind) arch.Design {
	return arch.Design{
		CrossbarSize:      128,
		WeightPolarity:    2,
		TwoCrossbarSigned: true,
		WeightBits:        weightBits,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            neuron,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

func (w *flow) setup(seed int64, workers int) error {
	w.seed, w.workers = seed, workers
	w.design = paperDesign(4, periph.NeuronSigmoid)
	rng := rand.New(rand.NewSource(seed))
	w.inputs = make([]flowInputs, flowPool)
	for k := range w.inputs {
		in := &w.inputs[k]
		in.weights = make([][]float64, flowMapSize)
		for r := range in.weights {
			in.weights[r] = make([]float64, flowMapSize)
			for c := range in.weights[r] {
				in.weights[r][c] = rng.Float64()*2 - 1
			}
		}
		net, err := nn.RandomFCNet("design-flow", rng, flowWidths...)
		if err != nil {
			return err
		}
		in.net = net
		in.samples = make([][]float64, flowSamples)
		in.want = make([][]float64, flowSamples)
		for s := range in.samples {
			in.samples[s] = make([]float64, flowWidths[0])
			for i := range in.samples[s] {
				in.samples[s][i] = rng.Float64()
			}
			if in.want[s], err = net.Forward(in.samples[s], nn.ForwardOptions{Act: nn.Sigmoid}); err != nil {
				return err
			}
		}
	}
	vgg, err := nn.VGG16().Dims()
	if err != nil {
		return err
	}
	vggSpace := dse.DefaultSpace()
	vggSpace.WireNodes = append(vggSpace.WireNodes, 90)
	w.cases = []exploreCase{
		{"table IV", paperDesign(4, periph.NeuronSigmoid), []arch.LayerDims{{Rows: 2048, Cols: 1024, Passes: 1}}, dse.DefaultSpace(),
			dse.Options{ErrorLimit: 0.25, Workers: workers}},
		{"table VI", paperDesign(8, periph.NeuronReLU), vgg, vggSpace,
			dse.Options{ErrorLimit: 0.50, Workers: workers}},
	}
	for _, ec := range w.cases {
		// The flow times the exploration itself: synthetic per-candidate
		// work or an injected failure would measure something else.
		if ec.opt.EvalSpin != 0 || ec.opt.FailEval != "" {
			return fmt.Errorf("%s: exploration must not set EvalSpin or FailEval", ec.name)
		}
	}
	w.mc = crossbar.New(64, 64, device.RRAM(), tech.MustInterconnect(45))
	return nil
}

func (w *flow) phaseStart(context.Context, *recorder) error { return nil }

func (w *flow) round(ctx context.Context, rec *recorder, r int) ([]outcome, uint64) {
	start := time.Now()
	dg := newDigest()
	err := w.item(ctx, rec, r, dg)
	return []outcome{{dur: time.Since(start), err: err}}, dg.sum()
}

func (w *flow) item(ctx context.Context, rec *recorder, r int, dg *digest) error {
	in := &w.inputs[r%len(w.inputs)]

	_, sp := rec.start(ctx, "mapper.map", r, false)
	img, err := mapper.Map(&w.design, in.weights)
	sp.end()
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	cells := img.CellCount()
	rec.recordMap(cells)
	dg.add(img.Scale, float64(cells))
	if r == 0 {
		w.img0, w.w0 = img, in.weights
	}

	_, sp = rec.start(ctx, "funcsim.build", r, false)
	m, err := funcsim.NewMachine(&w.design, in.net)
	sp.end()
	if err != nil {
		return fmt.Errorf("funcsim build: %w", err)
	}
	for s, x := range in.samples {
		_, sp = rec.start(ctx, "funcsim.run", r, false)
		hw, err := m.Run(x, funcsim.RunOptions{})
		sp.end()
		if err != nil {
			return fmt.Errorf("funcsim run %d: %w", s, err)
		}
		if err := tracks(hw, in.want[s]); err != nil {
			return fmt.Errorf("funcsim sample %d: %w", s, err)
		}
		dg.add(hw...)
	}

	for _, ec := range w.cases {
		ectx, sp := rec.start(ctx, "dse.explore", r, false)
		cs, err := dse.Explore(ectx, ec.base, ec.layers, ec.space, ec.opt)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s explore: %w", ec.name, err)
		}
		rec.recordExplore(cs)

		_, sp = rec.start(ctx, "dse.select", r, false)
		front := dse.Pareto(cs)
		best := make([]*dse.Candidate, 0, 4)
		for _, obj := range dse.Objectives() {
			best = append(best, dse.Best(cs, obj))
		}
		sp.end()
		if err := checkOptima(ec.name, front, best); err != nil {
			return err
		}
		dg.add(float64(len(cs)), float64(len(front)))
		for _, b := range best {
			dg.add(b.Report.AreaMM2, b.Report.EnergyPerSample, b.Report.PipelineCycle, b.Report.ErrorWorst)
		}
	}

	_, sp = rec.start(ctx, "accuracy.montecarlo", r, false)
	mc, err := accuracy.MonteCarlo(w.mc, accuracy.MCOptions{Trials: flowTrials, Sigma: 0.1, Seed: mix(w.seed, int64(r)), Workers: w.workers})
	sp.end()
	if err != nil {
		return fmt.Errorf("monte-carlo: %w", err)
	}
	if mc.Trials != flowTrials || !(mc.Max >= mc.P99 && mc.P99 >= mc.P50 && mc.P50 >= 0) || math.IsInf(mc.Max, 0) {
		return fmt.Errorf("monte-carlo summary out of order: %+v", mc)
	}
	dg.add(mc.Mean, mc.Std, mc.P50, mc.P95, mc.P99, mc.Max)
	return nil
}

// flowAgg accumulates what the mapper and the exploration report.
type flowAgg struct {
	mappedCells          int
	candidates, feasible int
	// evalTime sums Candidate.EvalTime, the time arch spent evaluating.
	evalTime time.Duration
}

func (r *recorder) recordMap(cells int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flow.mappedCells += cells
	r.mu.Unlock()
}

func (r *recorder) recordExplore(cs []dse.Candidate) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flow.candidates += len(cs)
	for i := range cs {
		r.flow.evalTime += cs[i].EvalTime
		if cs[i].Feasible {
			r.flow.feasible++
		}
	}
}

// checkOptima holds the exploration's selections to the paper's shapes.
// Every objective must have a feasible optimum and the front must be
// non-empty; for Table IV the optima must have the shapes the dse
// package's TestOptimaMatchPaperShapes pins: the area optimum at
// parallelism 1 on a crossbar of at least 128 or at least the latency
// optimum's, the latency optimum at parallelism ≥ 128, and the accuracy
// optimum on a 32–128 crossbar with 45 nm wires.
func checkOptima(name string, front []dse.Candidate, best []*dse.Candidate) error {
	if len(front) == 0 {
		return fmt.Errorf("%s: empty Pareto front", name)
	}
	for i, b := range best {
		if b == nil || !b.Feasible {
			return fmt.Errorf("%s: no feasible optimum for %v", name, dse.Objectives()[i])
		}
	}
	if name != "table IV" {
		return nil
	}
	area, lat, acc := best[0], best[2], best[3]
	switch {
	case area.Parallelism != 1:
		return fmt.Errorf("table IV: area optimum at parallelism %d, want 1", area.Parallelism)
	case area.CrossbarSize < lat.CrossbarSize && area.CrossbarSize < 128:
		return fmt.Errorf("table IV: area optimum crossbar %d unexpectedly small", area.CrossbarSize)
	case lat.Parallelism < 128:
		return fmt.Errorf("table IV: latency optimum at parallelism %d, want ≥ 128", lat.Parallelism)
	case acc.CrossbarSize < 32 || acc.CrossbarSize > 128:
		return fmt.Errorf("table IV: accuracy optimum crossbar %d, want 32–128", acc.CrossbarSize)
	case acc.WireNode != 45:
		return fmt.Errorf("table IV: accuracy optimum wire node %d, want 45", acc.WireNode)
	}
	return nil
}

// tracks checks that the mapped machine's output follows the software
// forward pass of the same network: the two work at different scales, so
// the check is on correlation, as in funcsim's own tests.
func tracks(hw, sw []float64) error {
	if len(sw) != len(hw) {
		return fmt.Errorf("machine gives %d outputs, forward pass %d", len(hw), len(sw))
	}
	if c := pearson(hw, sw); !(c >= flowMinCorrelation) {
		return fmt.Errorf("machine/forward correlation %.3f below %g", c, flowMinCorrelation)
	}
	return nil
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		sab += (a[i] - ma) * (b[i] - mb)
		saa += (a[i] - ma) * (a[i] - ma)
		sbb += (b[i] - mb) * (b[i] - mb)
	}
	return sab / math.Sqrt(saa*sbb)
}

// finish checks that round 0's image reads back within quantization and
// returns the worst read-back error as a percentage of full scale.
func (w *flow) finish() ([]error, float64) {
	if w.img0 == nil {
		return []error{fmt.Errorf("mapper: round 0 did not run")}, 0
	}
	got, err := w.img0.Reconstruct()
	if err != nil {
		return []error{fmt.Errorf("mapper reconstruct: %w", err)}, 0
	}
	// One LSB of the signed magnitude code; cell-level rounding can add up
	// to half an LSB per slice (mapper's own round-trip test).
	lsb := w.img0.Scale / float64(int(1)<<uint(w.design.WeightBits-1)-1)
	worst := 0.0
	for r := range w.w0 {
		for c := range w.w0[r] {
			worst = math.Max(worst, math.Abs(got[r][c]-w.w0[r][c]))
		}
	}
	fmt.Printf("mapper round trip: worst error %.4g (%.2f%% of full scale, bound %.4g)\n", worst, 100*worst/w.img0.Scale, 1.5*lsb)
	if !(worst <= 1.5*lsb) {
		err = fmt.Errorf("mapper round trip: worst error %g over 1.5 LSB (%g)", worst, 1.5*lsb)
	}
	return []error{err}, 100 * worst / w.img0.Scale
}
