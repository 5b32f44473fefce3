package funcsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnsim/internal/accuracy"
	"mnsim/internal/arch"
	"mnsim/internal/crossbar"
	"mnsim/internal/mapper"
	"mnsim/internal/nn"
)

// refRunImage executes one mapped image the way the simulator did before
// images were compiled: per block and per sample it rebuilds every
// crossbar's conductances from the image's cells, runs crossbar.IdealMVM,
// and recomputes the design's read-circuit constants and error bound. It
// is the reference compiled execution must match bit for bit.
func refRunImage(d *arch.Design, img *mapper.Image, input []float64, opt RunOptions) ([]float64, error) {
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	out := make([]float64, img.Cols)
	xp := d.Crossbar(s, s)
	var eps float64
	if opt.InjectError {
		e, err := accuracy.Eval(xp)
		if err != nil {
			return nil, err
		}
		eps = math.Abs(e.Avg)
	}
	fullScale := xp.OutputFullScale()
	adcLevels := float64(int(1)<<uint(d.ADCBits())) - 1
	slices := d.BitSlices()
	for bi := range img.Blocks {
		blk := &img.Blocks[bi]
		r0 := blk.RowBlock * s
		c0 := blk.ColBlock * logicalCols
		vin := make([]float64, blk.Rows)
		for r := range vin {
			vin[r] = math.Max(0, math.Min(1, input[r0+r])) * xp.VDrive
		}
		perXbar := make([][]float64, len(blk.Cells))
		for x, cells := range blk.Cells {
			g := make([][]float64, blk.Rows)
			for r := range g {
				g[r] = make([]float64, len(cells[r]))
				for c, asg := range cells[r] {
					g[r][c] = 1 / asg.Resistance
				}
			}
			p := crossbar.Params{Rows: blk.Rows, Cols: len(cells[0]), Dev: d.Dev, Wire: d.Wire, RSense: xp.RSense, VDrive: xp.VDrive}
			v, err := p.IdealMVM(g, vin)
			if err != nil {
				return nil, err
			}
			if opt.InjectError {
				dev := 1 + eps*(2*opt.Rng.Float64()-1)
				for j := range v {
					v[j] *= dev
				}
			}
			perXbar[x] = v
		}
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
			y := (pos - neg) / fullScale
			y = math.Round(y*adcLevels) / adcLevels
			out[c0+c] += y
		}
	}
	rowBlocks := (img.Rows + s - 1) / s
	for j := range out {
		out[j] /= float64(rowBlocks)
	}
	return out, nil
}

// refRun is Machine.Run over refRunImage and the machine's images.
func refRun(m *Machine, input []float64, opt RunOptions) ([]float64, error) {
	cur := input
	for l, img := range m.Images {
		out, err := refRunImage(m.Design, img, cur, opt)
		if err != nil {
			return nil, err
		}
		if l < len(m.Images)-1 {
			for j := range out {
				out[j] = nn.Sigmoid(out[j])
			}
		}
		cur = out
	}
	return cur, nil
}

// sameBits reports the first index where a and b differ in any bit.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values, reference %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d: %v, reference %v", i, a[i], b[i])
		}
	}
	return nil
}

// oracleDesign is one named design of the reference tests.
type oracleDesign struct {
	name string
	d    *arch.Design
}

// oracleDesigns covers every signed mapping, bit-sliced weights and
// multi-block tiling.
func oracleDesigns() []oracleDesign {
	two := refDesign(32)
	paired := refDesign(32)
	paired.TwoCrossbarSigned = false
	sliced := refDesign(64)
	sliced.WeightBits = 8
	sliced.Dev.LevelBits = 3
	unsigned := refDesign(32)
	unsigned.WeightPolarity = 1
	unsigned.TwoCrossbarSigned = false
	return []oracleDesign{{"two-crossbar", two}, {"paired", paired}, {"sliced", sliced}, {"unsigned", unsigned}}
}

// Compiled execution must equal the per-sample IdealMVM reference bit for
// bit, with and without error injection. With injection both sides draw
// from identically seeded RNGs, and the streams must end in the same
// state: the RNG is consumed in the same order and count.
func TestRunMatchesIdealMVMReference(t *testing.T) {
	for _, od := range oracleDesigns() {
		name, d := od.name, od.d
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			net, err := nn.RandomFCNet(name, rng, 80, 45, 12)
			if err != nil {
				t.Fatal(err)
			}
			if d.WeightPolarity == 1 {
				for _, w := range net.Weights {
					for _, row := range w {
						for c := range row {
							row[c] = math.Abs(row[c])
						}
					}
				}
			}
			m, err := NewMachine(d, net)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 4; s++ {
				input := make([]float64, 80)
				for i := range input {
					// Some inputs lie outside [0,1] to exercise the clamp.
					input[i] = 1.2*rng.Float64() - 0.1
				}
				for _, inject := range []bool{false, true} {
					a, b := rand.New(rand.NewSource(int64(s))), rand.New(rand.NewSource(int64(s)))
					got, err := m.Run(input, RunOptions{InjectError: inject, Rng: a})
					if err != nil {
						t.Fatal(err)
					}
					want, err := refRun(m, input, RunOptions{InjectError: inject, Rng: b})
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("sample %d inject=%v: %v", s, inject, err)
					}
					if a.Int63() != b.Int63() {
						t.Fatalf("sample %d inject=%v: RNG streams diverged", s, inject)
					}
				}
			}
		})
	}
}

// Before the ADC rounds them away, the compiled crossbars' column outputs
// equal IdealMVM over conductances rebuilt from each image's cells, and
// the column-outer sums of Eq. 1–2 over those conductances, bit for bit.
func TestCompiledCrossbarsMatchIdealMVM(t *testing.T) {
	for _, od := range oracleDesigns() {
		rng := rand.New(rand.NewSource(47))
		net, err := nn.RandomFCNet(od.name, rng, 80, 12)
		if err != nil {
			t.Fatal(err)
		}
		if od.d.WeightPolarity == 1 {
			for _, row := range net.Weights[0] {
				for c := range row {
					row[c] = math.Abs(row[c])
				}
			}
		}
		m, err := NewMachine(od.d, net)
		if err != nil {
			t.Fatal(err)
		}
		for l, ci := range m.layers {
			for bi, blk := range m.Images[l].Blocks {
				for x, cells := range blk.Cells {
					g := make([][]float64, blk.Rows)
					for r := range g {
						g[r] = make([]float64, len(cells[r]))
						for c, asg := range cells[r] {
							g[r][c] = 1 / asg.Resistance
						}
					}
					vin := make([]float64, blk.Rows)
					for r := range vin {
						vin[r] = rng.Float64() * m.exec.xp.VDrive
					}
					p := m.exec.xp
					p.Rows, p.Cols = blk.Rows, len(cells[0])
					want, err := p.IdealMVM(g, vin)
					if err != nil {
						t.Fatal(err)
					}
					sums := make([]float64, p.Cols)
					for n := range sums {
						num, den := 0.0, 1/p.RSense
						for r := range g {
							num += g[r][n] * vin[r]
							den += g[r][n]
						}
						sums[n] = num / den
					}
					got := make([]float64, len(want))
					if err := ci.blocks[bi][x].Apply(got, vin); err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s layer %d block %d crossbar %d: against IdealMVM: %v", od.name, l, bi, x, err)
					}
					if err := sameBits(got, sums); err != nil {
						t.Fatalf("%s layer %d block %d crossbar %d: against column-outer sums: %v", od.name, l, bi, x, err)
					}
				}
			}
		}
	}
}

func TestRunConvMatchesIdealMVMReference(t *testing.T) {
	for _, od := range oracleDesigns() {
		name, d := od.name, od.d
		if d.WeightPolarity == 1 {
			continue // conv kernels are signed
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			net, err := nn.RandomFCNet(name, rng, 8, 4)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(d, net)
			if err != nil {
				t.Fatal(err)
			}
			// 3·3·5 = 45 kernel rows tile over two row blocks of a 32 crossbar.
			in := randomImage(6, 5, 5, rng)
			k := randomKernels(3, 3, 5, 6, rng)
			for _, inject := range []bool{false, true} {
				a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
				got, err := m.RunConv(in, k, ConvOptions{Stride: 1, Pad: 1, InjectError: inject, Rng: a})
				if err != nil {
					t.Fatal(err)
				}
				img, err := mapper.Map(d, k.Matrix())
				if err != nil {
					t.Fatal(err)
				}
				ref := RunOptions{InjectError: inject, Rng: b}
				want, err := nn.ConvByMVM(in, k, 1, 1, func(_ [][]float64, patch []float64) ([]float64, error) {
					return refRunImage(d, img, patch, ref)
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Fatalf("inject=%v: %v", inject, err)
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("inject=%v: RNG streams diverged", inject)
				}
			}
		})
	}
}

// A non-finite input is an error naming the layer and the index, not a
// NaN output.
func TestRunRejectsNonFiniteInput(t *testing.T) {
	m := machine(t, 64, 8, 6, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		input := make([]float64, 8)
		input[5] = bad
		out, err := m.Run(input, RunOptions{})
		if err == nil {
			t.Fatalf("input %v accepted, outputs %v", bad, out)
		}
		if msg := err.Error(); !strings.Contains(msg, "layer 0") || !strings.Contains(msg, "index 5") {
			t.Errorf("input %v: error %q does not name layer 0 and index 5", bad, msg)
		}
	}
	// A hidden layer fed a non-finite activation is rejected as that layer.
	input := make([]float64, 8)
	_, err := m.Run(input, RunOptions{Act: func(float64) float64 { return math.NaN() }})
	if err == nil || !strings.Contains(err.Error(), "layer 1") || !strings.Contains(err.Error(), "index 0") {
		t.Errorf("NaN activation: error %v, want one naming layer 1 and index 0", err)
	}
}

func TestRunConvRejectsNonFiniteInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := machine(t, 64, 8, 4)
	k := randomKernels(3, 3, 2, 2, rng)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		in := randomImage(4, 4, 2, rng)
		in.Data[9] = bad
		out, err := m.RunConv(in, k, ConvOptions{Stride: 1})
		if err == nil {
			t.Fatalf("input %v accepted, outputs %v", bad, out.Data)
		}
		if msg := err.Error(); !strings.Contains(msg, "conv layer") || !strings.Contains(msg, "index 9") {
			t.Errorf("input %v: error %q does not name the conv layer and index 9", bad, msg)
		}
	}
}
