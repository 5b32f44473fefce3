package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"mnsim/internal/circuit"
	"mnsim/internal/crossbar"
	"mnsim/internal/device"
	"mnsim/internal/dse"
	"mnsim/internal/tech"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 57, 100, 1000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			// Reverse order, so tail must sort.
			ds[i] = time.Duration(n-i) * time.Millisecond
		}
		got, q := tail(ds)
		beyond := 0
		for _, d := range ds {
			if d > got {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, got, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); math.Abs(q-want) > 1e-12 {
			t.Errorf("n=%d: percentile %v, want %v", n, q, want)
		}
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if got, q := tail(ds); got != 90*time.Millisecond || math.Abs(q-90) > 1e-12 {
		t.Errorf("1..100 ms: tail %v at p%v, want 90ms at p90", got, q)
	}
	// Too few samples: the maximum, reported as p100.
	if got, q := tail(ds[:10]); got != 10*time.Millisecond || math.Abs(q-100) > 1e-12 {
		t.Errorf("10 samples: tail %v at p%v, want the maximum at p100", got, q)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	at := func(id, parent int, start, end time.Duration) span {
		return span{id: id, parent: parent, name: "s", start: start, end: end}
	}
	spans := []span{
		at(1, 0, 0, 100),
		// Two children overlap, as parallel pool tasks do: the union
		// [10,50] covers 40, not 20+30.
		at(2, 1, 10, 30),
		at(3, 1, 20, 50),
		at(4, 1, 60, 70),
		// A child reaching past its parent counts only inside it.
		at(5, 1, 90, 120),
		// A grandchild is subtracted from its own parent only.
		at(6, 3, 25, 45),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 20, 3: 10, 4: 10, 5: 30, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestAttributedCountsTopLevelLayerSpans(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench.phase", start: 0, end: 100},
		{id: 2, parent: 1, name: "bench.round", start: 0, end: 50},
		{id: 3, parent: 2, name: "circuit.solve", start: 5, end: 45},
		{id: 4, parent: 3, name: "inner", start: 10, end: 20},
		{id: 5, parent: 1, name: "circuit.settle", start: 60, end: 90},
	}
	if got := attributed(spans); got != 70 {
		t.Errorf("attributed %v, want 70 (40 solve + 30 settle, inner not counted twice)", got)
	}
}

// fakeWorkload is a workload whose failures and determinism a test sets.
type fakeWorkload struct {
	failItem  bool
	failCheck bool
	drift     bool
	calls     int
}

func (f *fakeWorkload) setup(int64, int) error                      { return nil }
func (f *fakeWorkload) phaseStart(context.Context, *recorder) error { return nil }

func (f *fakeWorkload) round(ctx context.Context, rec *recorder, r int) ([]outcome, uint64) {
	f.calls++
	_, sp := rec.start(ctx, "layer.work", r, false)
	time.Sleep(time.Millisecond)
	sp.end()
	outs := []outcome{{dur: time.Millisecond}, {dur: 2 * time.Millisecond}}
	if f.failItem {
		outs[1].err = errors.New("bad output")
	}
	dg := uint64(r)
	if f.drift {
		dg += uint64(f.calls)
	}
	return outs, dg
}

func (f *fakeWorkload) finish() ([]error, float64) {
	if f.failCheck {
		return []error{errors.New("bound exceeded")}, 1
	}
	return []error{nil}, 1
}

func runFake(t *testing.T, f *fakeWorkload, traced bool) *result {
	t.Helper()
	res, err := bench(func() workload { return f }, config{workload: "fake", seed: 1, seconds: 0.02, traced: traced}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestErrorFracCountsFailedItemsAndChecks(t *testing.T) {
	ok := runFake(t, &fakeWorkload{}, false)
	if !ok.Correct || ok.Failed != 0 || ok.Attempted < 4 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d", ok.Correct, ok.Attempted, ok.Failed)
	}

	// Every round has two items and one fails. An untraced run adds three
	// checks: the phase start, the round 0 digest and finish.
	bad := runFake(t, &fakeWorkload{failItem: true}, false)
	if bad.Correct {
		t.Fatal("run with failing items reported correct")
	}
	items := bad.Attempted - 3
	if items%2 != 0 || bad.Failed != items/2 {
		t.Errorf("attempted=%d failed=%d, want half of the %d items failed", bad.Attempted, bad.Failed, items)
	}

	check := runFake(t, &fakeWorkload{failCheck: true}, false)
	if check.Correct || check.Failed != 1 {
		t.Errorf("failing run-level check: correct=%v failed=%d, want one failure", check.Correct, check.Failed)
	}

	drift := runFake(t, &fakeWorkload{drift: true}, false)
	if drift.Correct || drift.Failed != 1 {
		t.Errorf("non-deterministic round 0: correct=%v failed=%d, want one failure", drift.Correct, drift.Failed)
	}

	traced := runFake(t, &fakeWorkload{failItem: true}, true)
	m, ok2 := traced.Metrics["bench.error_frac"]
	if !ok2 {
		t.Fatal("traced run reports no bench.error_frac")
	}
	if want := float64(traced.Failed) / float64(traced.Attempted); math.Abs(m.Value-want) > 1e-12 || traced.Failed == 0 {
		t.Errorf("bench.error_frac %v, want %d/%d", m.Value, traced.Failed, traced.Attempted)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res := runFake(t, &fakeWorkload{}, true)
	for _, name := range []string{"bench.unattributed_frac", "bench.trace_overhead_frac", "pool.idle_frac", "dse.explore.overhead_frac", "circuit.solve.memo_hit_frac"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if _, ok := res.Metrics["items_per_s"]; ok {
		t.Error("traced run reports end-to-end metrics")
	}
}

// solved returns a small solved crossbar for the correctness checks.
func solved(t *testing.T) (*circuit.Crossbar, []float64, *circuit.Result) {
	t.Helper()
	dev := device.RRAM()
	p := crossbar.New(4, 4, dev, tech.MustInterconnect(45))
	r := make([][]float64, 4)
	for i := range r {
		r[i] = []float64{dev.RMin, dev.RMax, dev.RMin, dev.RMax}
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: r, WireR: p.Wire.SegmentR, RSense: p.RSense, Dev: dev}
	vin := []float64{p.VDrive, 0.5 * p.VDrive, 0, 0.25 * p.VDrive}
	res, err := c.Solve(vin, circuit.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, vin, res
}

func TestCheckSolveAcceptsARealSolve(t *testing.T) {
	c, vin, res := solved(t)
	if err := checkSolve(c, vin, res); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbedVOutTripsTheCheck(t *testing.T) {
	c, vin, res := solved(t)
	perturb := map[string]func(v []float64){
		"NaN":             func(v []float64) { v[1] = math.NaN() },
		"above the drive": func(v []float64) { v[2] = 1.5 * vin[0] },
		"negative":        func(v []float64) { v[0] = -0.01 },
		"scaled up":       func(v []float64) { scaleToExceedPower(c, res, v) },
	}
	for name, f := range perturb {
		fake := *res
		fake.VOut = append([]float64(nil), res.VOut...)
		f(fake.VOut)
		err := checkSolve(c, vin, &fake)
		if err == nil {
			t.Errorf("%s VOut %v passed the check", name, fake.VOut)
		}
		if name == "scaled up" && !strings.Contains(fmt.Sprint(err), "sense resistors") {
			t.Errorf("scaled-up VOut tripped %v, want the power balance", err)
		}
	}
	fake := *res
	fake.Power = -res.Power
	if err := checkSolve(c, vin, &fake); err == nil {
		t.Error("negative power passed the check")
	}
	diag := *res.Diag
	diag.CacheHit = true
	fake = *res
	fake.Diag = &diag
	if err := checkSolve(c, vin, &fake); !errors.Is(err, errMemoHit) {
		t.Errorf("memo hit: got %v, want errMemoHit", err)
	}
}

// scaleToExceedPower raises every output, staying inside the drive
// range, until the sense resistors would dissipate more than the sources
// deliver.
func scaleToExceedPower(c *circuit.Crossbar, res *circuit.Result, v []float64) {
	for j := range v {
		v[j] = math.Sqrt(res.Power*c.RSense/float64(len(v))) * 1.01
	}
}

func TestVinGuardRefusesRepeats(t *testing.T) {
	var g vinGuard
	if err := g.admit([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.admit([]float64{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.admit([]float64{1, 0, 0}); err == nil {
		t.Fatal("a repeated input passed the guard")
	}
	// Negative zero differs from zero bitwise, so it is a new input.
	if err := g.admit([]float64{1, math.Copysign(0, -1), 0}); err != nil {
		t.Fatal(err)
	}
}

func TestTableIICheckTripsOverTheBound(t *testing.T) {
	var w table2
	if err := w.setup(1, 1); err != nil {
		t.Fatal(err)
	}
	w.compPower, w.nComp = w.p.ComputePower(), 1
	w.readPower, w.nRead = w.p.ReadPower(), 1
	w.settle = w.p.Latency()
	if errs, gap := w.finish(); errs[0] != nil || gap > 1e-9 {
		t.Fatalf("model equal to circuit: %v, gap %v%%", errs[0], gap)
	}
	w.readPower = 1.2 * w.p.ReadPower()
	errs, gap := w.finish()
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "read power") {
		t.Fatalf("20%% read power gap passed: %v", errs[0])
	}
	if want := 100 * (1 - 1/1.2); math.Abs(gap-want) > 1e-9 {
		t.Errorf("model_err_pct %v, want %v", gap, want)
	}
}

func TestFlowNeverSpinsOrInjectsFailures(t *testing.T) {
	var w flow
	if err := w.setup(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, ec := range w.cases {
		if ec.opt.EvalSpin != 0 || ec.opt.FailEval != "" {
			t.Errorf("%s: EvalSpin=%d FailEval=%q", ec.name, ec.opt.EvalSpin, ec.opt.FailEval)
		}
	}
}

func TestCheckOptimaPinsTableIVShapes(t *testing.T) {
	good := func() []*dse.Candidate {
		return []*dse.Candidate{
			{CrossbarSize: 256, Parallelism: 1, WireNode: 18, Feasible: true},
			{CrossbarSize: 128, Parallelism: 1, WireNode: 18, Feasible: true},
			{CrossbarSize: 64, Parallelism: 256, WireNode: 18, Feasible: true},
			{CrossbarSize: 64, Parallelism: 1, WireNode: 45, Feasible: true},
		}
	}
	front := []dse.Candidate{{}}
	if err := checkOptima("table IV", front, good()); err != nil {
		t.Fatal(err)
	}
	bad := good()
	bad[3].WireNode = 18
	if err := checkOptima("table IV", front, bad); err == nil {
		t.Error("accuracy optimum on 18 nm wires passed")
	}
	bad = good()
	bad[2] = nil
	if err := checkOptima("table VI", front, bad); err == nil {
		t.Error("missing optimum passed")
	}
	if err := checkOptima("table VI", nil, good()); err == nil {
		t.Error("empty front passed")
	}
}
