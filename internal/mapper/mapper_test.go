package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func refDesign(size int, twoXbar bool, weightBits int) *arch.Design {
	return &arch.Design{
		CrossbarSize:      size,
		WeightPolarity:    2,
		TwoCrossbarSigned: twoXbar,
		WeightBits:        weightBits,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

func randomWeights(rows, cols int, rng *rand.Rand) [][]float64 {
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func TestMapBlocksTiling(t *testing.T) {
	d := refDesign(64, true, 4)
	rng := rand.New(rand.NewSource(1))
	w := randomWeights(130, 70, rng)
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	// 130 rows over 64 -> 3 row blocks; 70 cols over 64 logical -> 2.
	if len(img.Blocks) != 6 {
		t.Fatalf("got %d blocks, want 6", len(img.Blocks))
	}
	// The trailing block is partial.
	last := img.Blocks[len(img.Blocks)-1]
	if last.Rows != 130-128 || last.LogicalCols != 70-64 {
		t.Fatalf("last block %dx%d", last.Rows, last.LogicalCols)
	}
	// Two crossbars per unit (signed method 1).
	if len(img.Blocks[0].Cells) != 2 {
		t.Fatalf("crossbars per unit = %d", len(img.Blocks[0].Cells))
	}
}

// The core contract: Map then Reconstruct reproduces the weights within
// the quantization error of WeightBits (plus the cell-level rounding).
func TestMapReconstructRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		twoXbar bool
		bits    int
	}{
		{"two-crossbar-4bit", true, 4},
		{"same-crossbar-4bit", false, 4},
		{"two-crossbar-8bit-sliced", true, 8},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			d := refDesign(64, cfg.twoXbar, cfg.bits)
			rng := rand.New(rand.NewSource(7))
			w := randomWeights(100, 40, rng)
			img, err := Map(d, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := img.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			magBits := cfg.bits - 1
			lsb := img.Scale / float64((int(1)<<uint(magBits))-1)
			// Cell-level rounding can add up to half an LSB per slice.
			tol := lsb * 1.5
			for r := range w {
				for c := range w[r] {
					if math.Abs(got[r][c]-w[r][c]) > tol {
						t.Fatalf("(%d,%d): reconstructed %v vs %v (tol %v)", r, c, got[r][c], w[r][c], tol)
					}
				}
			}
		})
	}
}

// Signed weights land on the correct polarity crossbar.
func TestSignedSplit(t *testing.T) {
	d := refDesign(8, true, 4)
	w := [][]float64{{0.5, -0.5}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	// Weight (0,0) is positive: crossbar 0 carries it, crossbar 1 is zero.
	if blk.Cells[0][0][0].Level == 0 {
		t.Error("positive weight missing from crossbar 0")
	}
	if blk.Cells[1][0][0].Level != 0 {
		t.Error("positive weight leaked onto the negative crossbar")
	}
	// Weight (0,1) is negative: reversed.
	if blk.Cells[1][0][1].Level == 0 {
		t.Error("negative weight missing from crossbar 1")
	}
	if blk.Cells[0][0][1].Level != 0 {
		t.Error("negative weight leaked onto the positive crossbar")
	}
}

func TestSameCrossbarPairedColumns(t *testing.T) {
	d := refDesign(8, false, 4)
	w := [][]float64{{-1}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	if len(blk.Cells) != 1 {
		t.Fatalf("crossbars = %d, want 1", len(blk.Cells))
	}
	// Column 0 = positive part (zero), column 1 = negative part (full).
	if blk.Cells[0][0][0].Level != 0 {
		t.Error("positive column should be zero")
	}
	if blk.Cells[0][0][1].Level != d.Dev.Levels()-1 {
		t.Errorf("negative column level = %d, want full scale", blk.Cells[0][0][1].Level)
	}
}

// 8-bit weights on 7-bit cells use two slices; the high slice carries the
// most-significant bits.
func TestBitSlicing(t *testing.T) {
	d := refDesign(8, true, 8)
	if d.BitSlices() != 2 {
		t.Fatalf("slices = %d", d.BitSlices())
	}
	w := [][]float64{{1.0}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	// 8-bit signed weights carry 7 magnitude bits; on 7-bit cells the low
	// slice holds all of them and the provisioned top slice carries none.
	if blk.Cells[0][0][0].Level != 0 {
		t.Fatalf("top slice level = %d, want 0 (no magnitude bits left)", blk.Cells[0][0][0].Level)
	}
	if blk.Cells[0][0][1].Level != d.Dev.Levels()-1 {
		t.Fatalf("low slice level = %d, want full scale", blk.Cells[0][0][1].Level)
	}
	// On 4-bit cells (the PRIME configuration) both slices are used.
	d2 := refDesign(8, true, 8)
	d2.Dev.LevelBits = 4
	img2, err := Map(d2, w)
	if err != nil {
		t.Fatal(err)
	}
	blk2 := img2.Blocks[0]
	if blk2.Cells[0][0][0].Level != d2.Dev.Levels()-1 || blk2.Cells[0][0][1].Level != d2.Dev.Levels()-1 {
		t.Fatalf("4-bit-cell slices of full-scale weight: %+v", blk2.Cells[0][0][:2])
	}
}

func TestMapErrors(t *testing.T) {
	d := refDesign(64, true, 4)
	if _, err := Map(d, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Map(d, [][]float64{{}}); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := Map(d, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Map(d, [][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	bad := refDesign(64, true, 0)
	if _, err := Map(bad, [][]float64{{1}}); err == nil {
		t.Error("invalid design accepted")
	}
	uns := refDesign(64, true, 4)
	uns.WeightPolarity = 1
	uns.TwoCrossbarSigned = false
	if _, err := Map(uns, [][]float64{{-1}}); err == nil {
		t.Error("negative weight accepted by unsigned design")
	}
}

func TestZeroMatrixScale(t *testing.T) {
	d := refDesign(8, true, 4)
	img, err := Map(d, [][]float64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[0][1] != 0 {
		t.Fatalf("zero matrix reconstructed as %v", got)
	}
}

func TestWriteProgramAndCellCount(t *testing.T) {
	d := refDesign(64, true, 4)
	rng := rand.New(rand.NewSource(3))
	img, err := Map(d, randomWeights(64, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	// 64x64 weights, 1 slice, 2 crossbars -> 2*64*64 cells.
	if got := img.CellCount(); got != 2*64*64 {
		t.Fatalf("cell count = %d", got)
	}
	prog := img.WriteProgram(0)
	if len(prog) != 1 || prog[0].Op != arch.OpWrite || prog[0].Count != img.CellCount() {
		t.Fatalf("program: %+v", prog)
	}
	// The program runs on a matching accelerator.
	a, err := arch.NewAccelerator(d, []arch.LayerDims{{Rows: 64, Cols: 64, Passes: 1}}, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	ctl := arch.Controller{Accel: a}
	if _, err := ctl.Run(prog); err != nil {
		t.Fatal(err)
	}
}

// Property: reconstruction error is bounded for random shapes and designs.
func TestRoundTripRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(100)
		cols := 1 + rng.Intn(100)
		d := refDesign(32, rng.Intn(2) == 0, 4)
		w := randomWeights(rows, cols, rng)
		img, err := Map(d, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := img.Reconstruct()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lsb := img.Scale / 7 // 3 magnitude bits
		for r := range w {
			for c := range w[r] {
				if math.Abs(got[r][c]-w[r][c]) > 1.5*lsb {
					t.Fatalf("trial %d (%d,%d): %v vs %v", trial, r, c, got[r][c], w[r][c])
				}
			}
		}
	}
}

// Property: every logical weight programs exactly CellsPerWeight cells per
// crossbar pair, whatever the shape or mapping, so the total cell count is
// weights × CellsPerWeight × crossbars-per-unit ÷ column sharing — checked
// directly against the per-weight invariant.
func TestCellCountFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		d := refDesign(32, trial%2 == 0, 4)
		rows, cols := 1+rng.Intn(90), 1+rng.Intn(90)
		img, err := Map(d, randomWeights(rows, cols, rng))
		if err != nil {
			t.Fatal(err)
		}
		// Every crossbar of a block allocates LogicalCols × CellsPerWeight
		// physical columns over the block's rows.
		want := 0
		for i := range img.Blocks {
			blk := &img.Blocks[i]
			want += len(blk.Cells) * blk.Rows * blk.LogicalCols * d.CellsPerWeight()
		}
		if got := img.CellCount(); got != want {
			t.Fatalf("trial %d: CellCount %d vs formula %d", trial, got, want)
		}
	}
}

// refMap is the per-cell mapping path Map used before its programming
// tables: for every cell it slices the code, rescales the slice to a level
// with scaleLevel and asks the device for that level's resistance. It is
// kept as the reference the table-driven Map must match exactly.
func refMap(d *arch.Design, weights [][]float64, scale float64) ([]Block, error) {
	rows, cols := len(weights), len(weights[0])
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	var blocks []Block
	for rb := 0; rb < (rows+s-1)/s; rb++ {
		for cb := 0; cb < (cols+logicalCols-1)/logicalCols; cb++ {
			r0, c0 := rb*s, cb*logicalCols
			blk := Block{RowBlock: rb, ColBlock: cb, Rows: minInt(s, rows-r0), LogicalCols: minInt(logicalCols, cols-c0)}
			blk.Cells = make([][][]CellAssignment, d.CrossbarsPerUnit())
			for x := range blk.Cells {
				blk.Cells[x] = make([][]CellAssignment, blk.Rows)
				for r := range blk.Cells[x] {
					blk.Cells[x][r] = make([]CellAssignment, blk.LogicalCols*d.CellsPerWeight())
				}
			}
			for r := 0; r < blk.Rows; r++ {
				for c := 0; c < blk.LogicalCols; c++ {
					w := weights[r0+r][c0+c] / scale
					pos, neg := w, 0.0
					if w < 0 {
						pos, neg = 0, -w
					}
					if err := refProgramWeight(d, &blk, r, c, pos, neg, d.BitSlices(), d.Dev.LevelBits); err != nil {
						return nil, err
					}
				}
			}
			blocks = append(blocks, blk)
		}
	}
	return blocks, nil
}

// refProgramWeight is the closure-per-weight programming path refMap
// builds on.
func refProgramWeight(d *arch.Design, blk *Block, r, c int, pos, neg float64, slices, cellBits int) error {
	magBits := d.WeightBits
	if d.WeightPolarity == 2 {
		magBits--
		if magBits < 1 {
			magBits = 1
		}
	}
	maxCode := (1 << uint(magBits)) - 1
	codePos := int(math.Round(pos * float64(maxCode)))
	codeNeg := int(math.Round(neg * float64(maxCode)))
	write := func(xbar, physCol, code int) error {
		for sl := 0; sl < slices; sl++ {
			shift := uint((slices - 1 - sl) * cellBits)
			cellCode := (code >> shift) & ((1 << uint(cellBits)) - 1)
			lvl := scaleLevel(cellCode, sliceMax(magBits, slices, cellBits, sl), d.Dev.Levels()-1)
			res, err := d.Dev.LevelResistance(lvl)
			if err != nil {
				return err
			}
			blk.Cells[xbar][r][physCol+sl] = CellAssignment{Level: lvl, Resistance: res}
		}
		return nil
	}
	switch {
	case d.WeightPolarity == 1:
		return write(0, c*slices, codePos)
	case d.TwoCrossbarSigned:
		if err := write(0, c*slices, codePos); err != nil {
			return err
		}
		return write(1, c*slices, codeNeg)
	default:
		if err := write(0, c*2*slices, codePos); err != nil {
			return err
		}
		return write(0, c*2*slices+slices, codeNeg)
	}
}

// The table-driven Map must program exactly the cells the per-cell path
// does — same level, same resistance bits — for every signed mapping,
// cell precision, partial top slice and shape.
func TestMapMatchesPerCellReference(t *testing.T) {
	type mapCase struct {
		name               string
		polarity           int
		twoXbar            bool
		levelBits, wBits   int
		size, rows, cols   int
		nonNegativeWeights bool
	}
	cases := []mapCase{
		{name: "polarity-1", polarity: 1, levelBits: 4, wBits: 4, size: 32, rows: 40, cols: 50, nonNegativeWeights: true},
		{name: "polarity-1-sliced", polarity: 1, levelBits: 2, wBits: 7, size: 32, rows: 33, cols: 9, nonNegativeWeights: true},
		{name: "two-crossbar", polarity: 2, twoXbar: true, levelBits: 4, wBits: 4, size: 32, rows: 70, cols: 45},
		{name: "paired-columns", polarity: 2, levelBits: 4, wBits: 4, size: 32, rows: 70, cols: 45},
	}
	// Every cell precision, with weight widths that fill the top slice and
	// ones that leave it partial (or empty) under both signed mappings.
	for _, lb := range []int{1, 2, 4, 7} {
		for _, wb := range []int{2, 4, 5, 6, 8} {
			for _, two := range []bool{true, false} {
				cases = append(cases, mapCase{
					name:     fmt.Sprintf("level%d-weight%d-two%v", lb, wb, two),
					polarity: 2, twoXbar: two, levelBits: lb, wBits: wb,
					size: 64, rows: 20, cols: 11,
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 12; i++ {
		cases = append(cases, mapCase{
			name:     fmt.Sprintf("random-%d", i),
			polarity: 2, twoXbar: rng.Intn(2) == 0,
			levelBits: 1 + rng.Intn(7), wBits: 2 + rng.Intn(7),
			size: 16 << uint(rng.Intn(3)), rows: 1 + rng.Intn(150), cols: 1 + rng.Intn(150),
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := refDesign(tc.size, tc.twoXbar, tc.wBits)
			d.WeightPolarity = tc.polarity
			d.Dev.LevelBits = tc.levelBits
			if d.CrossbarSize/d.CellsPerWeight() < 1 {
				t.Skipf("%d-cell weights do not fit a %d crossbar", d.CellsPerWeight(), d.CrossbarSize)
			}
			w := randomWeights(tc.rows, tc.cols, rng)
			if tc.nonNegativeWeights {
				for _, row := range w {
					for c := range row {
						row[c] = math.Abs(row[c])
					}
				}
			}
			img, err := Map(d, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMap(d, w, img.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if len(img.Blocks) != len(want) {
				t.Fatalf("%d blocks, reference %d", len(img.Blocks), len(want))
			}
			for bi := range want {
				got, ref := &img.Blocks[bi], &want[bi]
				if got.RowBlock != ref.RowBlock || got.ColBlock != ref.ColBlock || got.Rows != ref.Rows || got.LogicalCols != ref.LogicalCols {
					t.Fatalf("block %d: shape %+v, reference %+v", bi, *got, *ref)
				}
				if len(got.Cells) != len(ref.Cells) {
					t.Fatalf("block %d: %d crossbars, reference %d", bi, len(got.Cells), len(ref.Cells))
				}
				for x := range ref.Cells {
					if len(got.Cells[x]) != len(ref.Cells[x]) {
						t.Fatalf("block %d crossbar %d: %d rows, reference %d", bi, x, len(got.Cells[x]), len(ref.Cells[x]))
					}
					for r := range ref.Cells[x] {
						if len(got.Cells[x][r]) != len(ref.Cells[x][r]) {
							t.Fatalf("block %d crossbar %d row %d: %d cells, reference %d", bi, x, r, len(got.Cells[x][r]), len(ref.Cells[x][r]))
						}
						for c, a := range ref.Cells[x][r] {
							g := got.Cells[x][r][c]
							if g.Level != a.Level || math.Float64bits(g.Resistance) != math.Float64bits(a.Resistance) {
								t.Fatalf("block %d crossbar %d cell (%d,%d): %+v, reference %+v", bi, x, r, c, g, a)
							}
						}
					}
				}
			}
		})
	}
}
