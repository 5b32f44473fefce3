package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnsim/internal/bench"
)

const sampleOutput = `goos: linux
goarch: amd64
BenchmarkSolve/64x64-8	1	100000000 ns/op	1000 cg-iters/op
BenchmarkSolve/64x64-8	1	 95000000 ns/op	1000 cg-iters/op
BenchmarkSolve/64x64-8	1	120000000 ns/op	1000 cg-iters/op
PASS
`

func writeBaseline(t *testing.T, path, text string) {
	t.Helper()
	doc, err := bench.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJSONSubcommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"json", "-out", out}, strings.NewReader(sampleOutput), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := bench.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Find("BenchmarkSolve/64x64")
	if b == nil || b.NsStat == nil || b.NsStat.Min != 95e6 {
		t.Fatalf("json output lost stats: %+v", b)
	}
}

// multiPkgOutput spans two packages, repeats one benchmark three times and
// leaves another without custom metrics.
const multiPkgOutput = `goos: linux
goarch: amd64
pkg: mnsim/internal/circuit
cpu: Test CPU @ 2.00GHz
BenchmarkSolve/16x16-8         	       1	  1200000 ns/op	        12.00 newton-iters/op	       345.0 cg-iters/op
BenchmarkSolve/16x16-8         	       1	  1100000 ns/op	        12.00 newton-iters/op	       340.0 cg-iters/op
BenchmarkSolve/16x16-8         	       1	  1300000 ns/op	        12.00 newton-iters/op	       350.0 cg-iters/op
BenchmarkSolve/64x64-8         	       1	  9000000 ns/op	        14.00 newton-iters/op	       900.0 cg-iters/op
PASS
ok  	mnsim/internal/circuit	0.123s
pkg: mnsim/internal/dse
BenchmarkExplore/workers=4-8   	       1	  5000000 ns/op
PASS
ok  	mnsim/internal/dse	0.456s
`

func TestJSONAggregatesMedian(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"json"}, strings.NewReader(multiPkgOutput), &sb); err != nil {
		t.Fatal(err)
	}
	var doc bench.Doc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkSolve/16x16" {
		t.Errorf("name %q: GOMAXPROCS suffix should be stripped", b.Name)
	}
	if b.Runs != 3 {
		t.Errorf("runs = %d, want 3", b.Runs)
	}
	if b.NsPerOp != 1.2e6 {
		t.Errorf("ns/op median = %g, want 1.2e6", b.NsPerOp)
	}
	if got := b.Metrics["newton-iters/op"]; got != 12 {
		t.Errorf("newton-iters/op = %g, want 12", got)
	}
	if got := b.Metrics["cg-iters/op"]; got != 345 {
		t.Errorf("cg-iters/op median = %g, want 345", got)
	}
	// Single-run benchmark without custom metrics.
	e := doc.Benchmarks[2]
	if e.Name != "BenchmarkExplore/workers=4" || e.Runs != 1 || e.NsPerOp != 5e6 {
		t.Errorf("explore bench parsed wrong: %+v", e)
	}
	if e.Metrics != nil {
		t.Errorf("explore bench has unexpected metrics: %v", e.Metrics)
	}
}

func TestJSONRejectsEmptyInput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"json"}, strings.NewReader("PASS\nok  pkg 0.1s\n"), &sb); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}

func TestJSONWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"json", "-out", out}, strings.NewReader(multiPkgOutput), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc bench.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	if doc.GoOS == "" || doc.GoArch == "" || len(doc.Benchmarks) != 3 {
		t.Fatalf("round-trip lost fields: %+v", doc)
	}
}

func TestGateSubcommandPassAndFail(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_base.json")
	writeBaseline(t, baseline, sampleOutput)

	// Same run through stdin: passes.
	var sb strings.Builder
	if err := run([]string{"gate", "-baseline", baseline}, strings.NewReader(sampleOutput), &sb); err != nil {
		t.Fatalf("clean gate failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "checks passed") {
		t.Fatalf("gate report:\n%s", sb.String())
	}

	// Injected synthetic regression: 3x wall time and +10% cg iterations.
	slow := strings.NewReader(`BenchmarkSolve/64x64-8	1	300000000 ns/op	1100 cg-iters/op` + "\n")
	sb.Reset()
	err := run([]string{"gate", "-baseline", baseline}, slow, &sb)
	if err == nil {
		t.Fatalf("regressed run passed the gate:\n%s", sb.String())
	}
	if !errors.Is(err, errRegression) {
		t.Fatalf("gate failed with the wrong error: %v", err)
	}
	if !strings.Contains(sb.String(), "FAIL BenchmarkSolve/64x64 ns/op") ||
		!strings.Contains(sb.String(), "FAIL BenchmarkSolve/64x64 cg-iters/op") {
		t.Fatalf("gate report misses the regressions:\n%s", sb.String())
	}

	// The same slow run passes with an explicit generous tolerance.
	slow2 := strings.NewReader(`BenchmarkSolve/64x64-8	1	300000000 ns/op	1100 cg-iters/op` + "\n")
	sb.Reset()
	if err := run([]string{"gate", "-baseline", baseline, "-tol", "3.0", "-metric-tol", "0.2"}, slow2, &sb); err != nil {
		t.Fatalf("wide tolerances still failed: %v\n%s", err, sb.String())
	}
}

func TestTrendSubcommand(t *testing.T) {
	dir := t.TempDir()
	b4 := filepath.Join(dir, "BENCH_pr4.json")
	b6 := filepath.Join(dir, "BENCH_pr6.json")
	writeBaseline(t, b4, "BenchmarkSolve/64x64-8\t1\t100000000 ns/op\n")
	writeBaseline(t, b6, "BenchmarkSolve/64x64-8\t1\t90000000 ns/op\n")
	out := filepath.Join(dir, "trend.json")
	if err := run([]string{"trend", "-out", out, b6, b4}, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var td bench.TrendDoc
	if err := json.Unmarshal(data, &td); err != nil {
		t.Fatalf("trend output not JSON: %v\n%s", err, data)
	}
	if len(td.Labels) != 2 || td.Labels[0] != "pr4" || td.Labels[1] != "pr6" {
		t.Fatalf("labels = %v, want [pr4 pr6]", td.Labels)
	}
	if len(td.Series) != 1 || len(td.Series[0].Points) != 2 {
		t.Fatalf("series = %+v", td.Series)
	}
}

func TestBadInvocations(t *testing.T) {
	if err := run(nil, nil, nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, nil, nil); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"gate"}, strings.NewReader(""), nil); err == nil {
		t.Error("gate without -baseline accepted")
	}
	if err := run([]string{"trend"}, nil, nil); err == nil {
		t.Error("trend without files accepted")
	}
}
