// Package funcsim is the functional simulator of a mapped accelerator: it
// executes a fully-connected network exactly the way the hardware does —
// weights decomposed onto crossbars by the mapper, each block computing the
// analog matrix-vector product of Eq. 1–2, the adder tree merging row
// blocks and signed pairs (Eq. 5), the read circuits quantizing to the ADC
// level count, and the neuron modules applying the non-linearity — with the
// behaviour-level accuracy model's deviation optionally injected per block.
//
// It closes the loop between the performance models (package arch) and the
// application: the same Design that produced an area/latency report also
// produces the network's actual outputs and its end-to-end accuracy.
package funcsim

import (
	"fmt"
	"math"
	"math/rand"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/mapper"
	"mnsim/internal/nn"
)

// Machine is a network mapped onto an accelerator design, ready to execute
// samples. NewMachine compiles each layer's image once — the conductances
// of every physical crossbar and each column's conductance sum, plus the
// design's read-circuit constants and error bound — and Run reuses them
// for every sample. Images is therefore read-only after NewMachine:
// changing an image does not change what Run computes.
type Machine struct {
	Design *arch.Design
	Net    *nn.FCNet
	// Images holds one programming image per layer.
	Images []*mapper.Image
	// Accel is the matching performance model (for latency/energy of the
	// executed samples).
	Accel *arch.Accelerator

	exec   executor
	layers []*compiledImage
}

// NewMachine maps every layer of the network onto the design and compiles
// the mapped images for execution.
func NewMachine(d *arch.Design, net *nn.FCNet) (*Machine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(net.Weights) == 0 {
		return nil, fmt.Errorf("funcsim: network %q has no layers", net.Name)
	}
	m := &Machine{Design: d, Net: net, exec: newExecutor(d)}
	var layers []arch.LayerDims
	for l, w := range net.Weights {
		img, err := mapper.Map(d, w)
		if err != nil {
			return nil, fmt.Errorf("funcsim: layer %d: %w", l, err)
		}
		ci, err := m.exec.compile(img)
		if err != nil {
			return nil, fmt.Errorf("funcsim: layer %d: %w", l, err)
		}
		m.Images = append(m.Images, img)
		m.layers = append(m.layers, ci)
		layers = append(layers, arch.LayerDims{Rows: len(w), Cols: len(w[0]), Passes: 1})
	}
	a, err := arch.NewAccelerator(d, layers, [2]int{128, 128})
	if err != nil {
		return nil, err
	}
	m.Accel = a
	return m, nil
}

// RunOptions controls one inference.
type RunOptions struct {
	// InjectError enables the behaviour-level deviation: each block's
	// analog output is perturbed by a uniform relative error within the
	// model's per-crossbar ε (average case), sampled per block.
	InjectError bool
	// Rng drives the error injection; required when InjectError is set.
	Rng *rand.Rand
	// Act is the inter-layer neuron function (Sigmoid if nil).
	Act nn.Activation
}

// Run executes one input sample (values in [0,1]; finite values outside
// are clamped) through the mapped machine and returns the output vector
// (values in [-1,1] scale of the layer outputs). A non-finite value
// reaching any layer is an error naming the layer and its index.
func (m *Machine) Run(input []float64, opt RunOptions) ([]float64, error) {
	if opt.InjectError && opt.Rng == nil {
		return nil, fmt.Errorf("funcsim: error injection needs an RNG")
	}
	act := opt.Act
	if act == nil {
		act = nn.Sigmoid
	}
	cur := input
	sc := m.exec.scratch()
	for l, ci := range m.layers {
		if len(cur) != ci.img.Rows {
			return nil, fmt.Errorf("funcsim: layer %d expects %d inputs, got %d", l, ci.img.Rows, len(cur))
		}
		out, err := m.exec.run(ci, cur, sc, opt)
		if err != nil {
			return nil, fmt.Errorf("funcsim: layer %d: %w", l, err)
		}
		if l < len(m.layers)-1 {
			for j := range out {
				out[j] = act(out[j])
			}
		}
		cur = out
	}
	return cur, nil
}

// executor holds what block execution needs that depends only on the
// design.
type executor struct {
	// s is the crossbar size and logicalCols the logical weight columns
	// one crossbar holds.
	s, logicalCols int
	// nXbar is the physical crossbar count of one unit.
	nXbar int
	// xp is the full-size crossbar the read circuits are sized for.
	xp crossbar.Params
	// fullScale is the ADC reference range, adcLevels its top code.
	fullScale, adcLevels float64
	// eps is the behaviour-level model's per-crossbar ε; epsErr is why it
	// could not be evaluated, reported only when error injection asks
	// for it.
	eps    float64
	epsErr error
}

func newExecutor(d *arch.Design) executor {
	s := d.CrossbarSize
	xp := d.Crossbar(s, s)
	e := executor{
		s:           s,
		logicalCols: s / d.CellsPerWeight(),
		nXbar:       d.CrossbarsPerUnit(),
		xp:          xp,
		fullScale:   xp.OutputFullScale(),
		adcLevels:   float64(int(1)<<uint(d.ADCBits())) - 1,
	}
	ev, err := accuracy.Eval(xp)
	if err != nil {
		e.epsErr = err
	} else {
		e.eps = math.Abs(ev.Avg)
	}
	return e
}

// compiledImage is a mapped image compiled for execution: one MVM
// operator per physical crossbar of every block.
type compiledImage struct {
	img    *mapper.Image
	blocks [][]*crossbar.MVM
}

// compile turns every block's cell resistances into compiled crossbar
// operators.
func (e *executor) compile(img *mapper.Image) (*compiledImage, error) {
	ci := &compiledImage{img: img, blocks: make([][]*crossbar.MVM, len(img.Blocks))}
	for bi := range img.Blocks {
		blk := &img.Blocks[bi]
		ci.blocks[bi] = make([]*crossbar.MVM, len(blk.Cells))
		for x, cells := range blk.Cells {
			g := make([][]float64, blk.Rows)
			for r := range g {
				g[r] = make([]float64, len(cells[r]))
				for c, asg := range cells[r] {
					g[r][c] = 1 / asg.Resistance
				}
			}
			p := e.xp
			p.Rows, p.Cols = blk.Rows, len(cells[0])
			k, err := p.NewMVM(g)
			if err != nil {
				return nil, err
			}
			ci.blocks[bi][x] = k
		}
	}
	return ci, nil
}

// runScratch is the per-call working memory of block execution: the
// drive voltages of one block and the column outputs of each of its
// crossbars.
type runScratch struct {
	vin     []float64
	perXbar [][]float64
}

func (e *executor) scratch() *runScratch {
	buf := make([]float64, (1+e.nXbar)*e.s)
	sc := &runScratch{vin: buf[:e.s], perXbar: make([][]float64, e.nXbar)}
	for x := range sc.perXbar {
		sc.perXbar[x] = buf[(1+x)*e.s : (2+x)*e.s]
	}
	return sc
}

// run executes one compiled image: every block computes its analog MVM,
// the signed pair subtracts, the adder tree sums the row blocks, and the
// result quantizes to the ADC level count. input must be finite.
func (e *executor) run(ci *compiledImage, input []float64, sc *runScratch, opt RunOptions) ([]float64, error) {
	img := ci.img
	d := img.Design
	for i, x := range input {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("non-finite input %v at index %d", x, i)
		}
	}
	if opt.InjectError && e.epsErr != nil {
		return nil, e.epsErr
	}
	out := make([]float64, img.Cols)
	slices := d.BitSlices()
	for bi := range img.Blocks {
		blk := &img.Blocks[bi]
		r0 := blk.RowBlock * e.s
		c0 := blk.ColBlock * e.logicalCols
		vin := sc.vin[:blk.Rows]
		for r := range vin {
			vin[r] = math.Max(0, math.Min(1, input[r0+r])) * e.xp.VDrive
		}
		// One analog MVM per physical crossbar of the unit.
		for x, k := range ci.blocks[bi] {
			v := sc.perXbar[x][:len(blk.Cells[x][0])]
			if err := k.Apply(v, vin); err != nil {
				return nil, err
			}
			if opt.InjectError {
				dev := 1 + e.eps*(2*opt.Rng.Float64()-1)
				for j := range v {
					v[j] *= dev
				}
			}
		}
		// Read circuits: signed merge, normalise, quantize, accumulate into
		// the layer outputs (the adder tree of Eq. 5).
		perXbar := sc.perXbar
		for c := 0; c < blk.LogicalCols; c++ {
			pos, neg := 0.0, 0.0
			switch {
			case d.WeightPolarity == 1:
				pos = sliceValue(perXbar[0], c*slices, slices, d.Dev.LevelBits)
			case d.TwoCrossbarSigned:
				pos = sliceValue(perXbar[0], c*slices, slices, d.Dev.LevelBits)
				neg = sliceValue(perXbar[1], c*slices, slices, d.Dev.LevelBits)
			default:
				pos = sliceValue(perXbar[0], c*2*slices, slices, d.Dev.LevelBits)
				neg = sliceValue(perXbar[0], c*2*slices+slices, slices, d.Dev.LevelBits)
			}
			y := (pos - neg) / e.fullScale
			// ADC quantization of each merged block result.
			y = math.Round(y*e.adcLevels) / e.adcLevels
			out[c0+c] += y
		}
	}
	// Normalise the row-block accumulation like the hardware's fixed-point
	// rescale after the adder tree.
	rowBlocks := (img.Rows + e.s - 1) / e.s
	for j := range out {
		out[j] /= float64(rowBlocks)
	}
	return out, nil
}

// sliceValue merges the bit-sliced column voltages of one logical weight:
// slice 0 is the most significant, each following slice is worth 2^-cellBits
// of the previous (the shifter-and-adder-tree merge of Section III.B.2).
func sliceValue(v []float64, col, slices, cellBits int) float64 {
	total, weight := 0.0, 1.0
	for sl := 0; sl < slices; sl++ {
		total += v[col+sl] * weight
		weight /= float64(int(1) << uint(cellBits))
	}
	return total
}

// Accuracy runs a batch of samples with and without error injection and
// returns the mean relative accuracy — the end-to-end counterpart of the
// behaviour-level model's layer-wise estimate.
func (m *Machine) Accuracy(inputs [][]float64, rng *rand.Rand) (float64, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("funcsim: no input samples")
	}
	sum := 0.0
	for i, in := range inputs {
		ideal, err := m.Run(in, RunOptions{})
		if err != nil {
			return 0, fmt.Errorf("funcsim: sample %d: %w", i, err)
		}
		got, err := m.Run(in, RunOptions{InjectError: true, Rng: rng})
		if err != nil {
			return 0, fmt.Errorf("funcsim: sample %d: %w", i, err)
		}
		acc, err := nn.RelativeAccuracy(ideal, got)
		if err != nil {
			return 0, err
		}
		sum += acc
	}
	return sum / float64(len(inputs)), nil
}
