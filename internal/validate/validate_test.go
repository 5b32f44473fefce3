package validate

import (
	"math"
	"testing"
)

// The Table II validation contract: every behaviour-level estimate lands
// within 10% of the circuit-level measurement (the paper reports all rows
// under 10%), and the accuracy-model error stays under 1%.
func TestTableIIWithinTenPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level validation is slow")
	}
	// A reduced sample count keeps the test fast; the cmd tool and bench
	// run the paper's full 20×100 sampling.
	rows, err := TableII(TableIIOptions{WeightSamples: 3, InputSamples: 9, Size: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Model <= 0 || r.Circuit <= 0 {
			t.Errorf("%s: non-positive values %v / %v", r.Metric, r.Model, r.Circuit)
		}
		limit := 0.10
		if r.Metric == "Average Relative Accuracy" {
			limit = 0.01
		}
		if e := math.Abs(r.Error()); e > limit {
			t.Errorf("%s: model %v vs circuit %v (error %.1f%%, limit %.0f%%)",
				r.Metric, r.Model, r.Circuit, e*100, limit*100)
		}
	}
}

// The paper's headline result, pinned: Table II at the mnsim-validate
// -table2 configuration reproduces the EXPERIMENTS.md errors to within
// 0.05 percentage points, so a solver change cannot quietly move them.
func TestTableIIPinnedErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size circuit-level validation is slow")
	}
	rows, err := TableII(TableIIOptions{WeightSamples: 20, InputSamples: 100, Size: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		metric string
		pct    float64
	}{
		{"Computation Power (W)", +3.38},
		{"Read Power (W)", +4.46},
		{"Computation Energy (J, 3-layer ANN)", -3.81},
		{"Latency (s)", -6.96},
		{"Average Relative Accuracy", -0.33},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Metric != w.metric {
			t.Errorf("row %d is %q, want %q", i, r.Metric, w.metric)
			continue
		}
		if got := r.Error() * 100; math.Abs(got-w.pct) > 0.05 {
			t.Errorf("%s: error %+.3f%%, pinned at %+.2f%% ± 0.05", r.Metric, got, w.pct)
		}
	}
}

// Fig. 5 at the mnsim-validate -fig5 grid (sizes 8–128 × five wire
// nodes): the fit RMSE is pinned at the EXPERIMENTS.md 0.0047 ± 0.0001.
func TestFig5PinnedRMSE(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level sweep is slow")
	}
	pts, err := Fig5([]int{8, 16, 32, 64, 128}, []int{90, 45, 28, 22, 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("got %d points, want 25", len(pts))
	}
	var sumSq float64
	for _, p := range pts {
		d := p.Model - p.Circuit
		sumSq += d * d
	}
	if rmse := math.Sqrt(sumSq / float64(len(pts))); math.Abs(rmse-0.0047) > 0.0001 {
		t.Fatalf("fit RMSE %.5f, pinned at 0.0047 ± 0.0001", rmse)
	}
}

func TestRowError(t *testing.T) {
	r := Row{Metric: "x", Model: 11, Circuit: 10}
	if math.Abs(r.Error()-0.1) > 1e-12 {
		t.Fatalf("Error = %v", r.Error())
	}
	zero := Row{Metric: "z", Model: 1, Circuit: 0}
	if zero.Error() != 0 {
		t.Fatal("zero circuit should yield zero error")
	}
}

// Table III: the behaviour-level model must beat the circuit solver by
// orders of magnitude, and the gap must widen with crossbar size.
func TestTableIIISpeedUp(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level timing is slow")
	}
	rows, err := TableIII([]int{16, 32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedUp < 100 {
			t.Errorf("size %d: speed-up %.0fx below 100x", r.Size, r.SpeedUp)
		}
	}
	if rows[2].CircuitTime <= rows[0].CircuitTime {
		t.Error("circuit time should grow with size")
	}
}

// Fig. 5: the model curve tracks the circuit scatter with RMSE < 0.01 and
// both grow with wire resistance.
func TestFig5Fit(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit-level sweep is slow")
	}
	pts, err := Fig5([]int{16, 32, 64}, []int{45, 22})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	var sumSq float64
	for _, p := range pts {
		d := p.Model - p.Circuit
		sumSq += d * d
	}
	rmse := math.Sqrt(sumSq / float64(len(pts)))
	if rmse >= 0.01 {
		t.Fatalf("RMSE %.4f, want < 0.01", rmse)
	}
	// At fixed size, the thinner 22nm wires must hurt more.
	byNode := map[int]float64{}
	for _, p := range pts {
		if p.Size == 64 {
			byNode[p.WireNode] = p.Circuit
		}
	}
	if byNode[22] <= byNode[45] {
		t.Errorf("22nm error %v should exceed 45nm %v", byNode[22], byNode[45])
	}
}

func TestFig5UnknownNode(t *testing.T) {
	if _, err := Fig5([]int{8}, []int{77}); err == nil {
		t.Fatal("unknown node accepted")
	}
}
