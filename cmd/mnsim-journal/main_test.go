package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/device"
	"mnsim/internal/telemetry"
)

// writeTracedJournal produces a real journal the way a traced DSE run would:
// a root span, a keyed candidate span, one journaled solve under it, and the
// candidate_eval event stamped with the candidate span's IDs.
func writeTracedJournal(t *testing.T) (path, candidate string) {
	t.Helper()
	j := telemetry.DefaultJournal()
	path = filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	telemetry.SetTraceSeed(7)
	t.Cleanup(func() {
		j.Close()
		j.Reset()
		telemetry.DefaultTracer().Reset()
	})

	candidate = "cand-4x4@45"
	ctx, root := telemetry.StartSpan(context.Background(), "run")
	cctx, cs := telemetry.StartSpanKeyed(ctx, "candidate", candidate)
	dev := device.RRAM()
	r := make([][]float64, 4)
	for i := range r {
		r[i] = make([]float64, 4)
		for k := range r[i] {
			r[i][k] = 150e3
		}
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: r, WireR: 0.5, RSense: 1500, Dev: dev}
	if _, err := c.SolveContext(cctx, []float64{0.3, 0.2, 0.1, 0.3}, circuit.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	telemetry.EmitEventCtx(cctx, telemetry.EvCandidateEval, candidate,
		map[string]any{"outcome": "ok", "eval_us": 12.0})
	cs.End()
	root.End()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, candidate
}

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, args); err != nil {
		t.Fatalf("mnsim-journal %v: %v\noutput:\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestSummarize(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "summarize", path)
	for _, want := range []string{
		"schema v2",
		"span",                        // event-type table includes span events
		"run/candidate/circuit.solve", // span-phase aggregate path
		"Solves: 1 total, 1 ok",
		"Candidates: 1 ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summarize output missing %q:\n%s", want, out)
		}
	}
}

func TestSlowest(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "slowest", "-n", "3", path)
	if !strings.Contains(out, "Slowest 1 of 1 solves") {
		t.Fatalf("slowest header wrong:\n%s", out)
	}
	// The cost-model breakdown columns must be populated (cg_loop dominates
	// any real solve, so at least one percentage column is non-dash).
	if strings.Count(out, "-") >= 5 && !strings.Contains(out, "CG%") {
		t.Fatalf("cost breakdown missing:\n%s", out)
	}
}

// writeResourceJournal produces a journal carrying resource_sample events
// bracketing a journaled solve, plus one mem_pressure event — the shape a
// run with -resource-interval and the since-retired soft memory watermark
// left behind.
func writeResourceJournal(t *testing.T) string {
	t.Helper()
	j := telemetry.DefaultJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		j.Close()
		j.Reset()
	})
	sample := func(heap, allocB, allocO, cycles uint64, gor int64) {
		telemetry.EmitEvent(telemetry.EvResourceSample, "", map[string]any{
			"heap_live_bytes":      heap,
			"heap_goal_bytes":      heap * 2,
			"total_alloc_bytes":    allocB,
			"total_alloc_objects":  allocO,
			"goroutines":           gor,
			"gc_cycles":            cycles,
			"gc_pause_total_ns":    int64(cycles) * 50_000,
			"gc_cpu_fraction":      0.01,
			"sched_latency_p99_us": 120.0,
		})
	}
	sample(10<<20, 100<<20, 1000, 3, 4)
	dev := device.RRAM()
	r := make([][]float64, 4)
	for i := range r {
		r[i] = make([]float64, 4)
		for k := range r[i] {
			r[i][k] = 150e3
		}
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: r, WireR: 0.5, RSense: 1500, Dev: dev}
	if _, err := c.Solve([]float64{0.3, 0.2, 0.1, 0.3}, circuit.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sample(48<<20, 180<<20, 2500, 7, 9)
	telemetry.EmitEvent("mem_pressure", "", map[string]any{
		"heap_live_bytes": uint64(48 << 20),
		"limit_bytes":     uint64(32 << 20),
		"heap_profile":    "heap-pressure-1.pprof",
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResources(t *testing.T) {
	path := writeResourceJournal(t)
	out := runCmd(t, "resources", "-n", "2", path)
	for _, want := range []string{
		"Resource samples",
		"Peak live heap",
		"48.0 MiB",                // peak of the two samples
		"80.0 MiB (1500 objects)", // run-scoped alloc delta
		"GC CPU fraction (process)",
		"Slowest 1 solves vs runtime state",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("resources output missing %q:\n%s", want, out)
		}
	}
	// The correlation row must attribute the in-window GC cycles (7-3=4)
	// and peak heap to the solve.
	if !strings.Contains(out, "4") {
		t.Fatalf("correlation table missing GC delta:\n%s", out)
	}
}

// A schema-v2 journal written before the soft memory watermark was retired
// still reads: ReadJournalFile carries its mem_pressure event through
// untouched, and resources and summarize both succeed on it and report the
// peak heap of its resource_sample events.
func TestReadsRetiredMemPressureJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	fixture := `{"seq":1,"t_ns":1000000000,"type":"journal","data":{"pid":4242,"schema_version":2}}
{"seq":2,"t_ns":1010000000,"type":"resource_sample","data":{"gc_cpu_fraction":0.01,"gc_cycles":3,"gc_pause_total_ns":150000,"goroutines":4,"heap_goal_bytes":20971520,"heap_live_bytes":10485760,"sched_latency_p99_us":120,"total_alloc_bytes":104857600,"total_alloc_objects":1000}}
{"seq":3,"t_ns":1020000000,"type":"resource_sample","data":{"gc_cpu_fraction":0.02,"gc_cycles":7,"gc_pause_total_ns":350000,"goroutines":9,"heap_goal_bytes":100663296,"heap_live_bytes":50331648,"sched_latency_p99_us":140,"total_alloc_bytes":188743680,"total_alloc_objects":2500}}
{"seq":4,"t_ns":1020000500,"type":"mem_pressure","data":{"heap_live_bytes":50331648,"heap_profile":"heap-pressure-001.pprof","limit_bytes":33554432}}
{"seq":5,"t_ns":1030000000,"type":"resource_sample","data":{"gc_cpu_fraction":0.02,"gc_cycles":8,"gc_pause_total_ns":400000,"goroutines":5,"heap_goal_bytes":41943040,"heap_live_bytes":20971520,"sched_latency_p99_us":140,"total_alloc_bytes":209715200,"total_alloc_objects":2800}}
`
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("read %d events, want 5", len(events))
	}
	mp := events[3]
	if mp.Type != "mem_pressure" || mp.Seq != 4 || mp.TNS != 1020000500 ||
		mp.Data["heap_profile"] != "heap-pressure-001.pprof" ||
		mp.Data["limit_bytes"] != 33554432.0 || mp.Data["heap_live_bytes"] != 50331648.0 {
		t.Fatalf("mem_pressure event not carried through untouched: %+v", mp)
	}
	// The peak of the fixture's three samples is the middle one, 48 MiB.
	const peak = "48.0 MiB"
	if out := runCmd(t, "resources", path); !strings.Contains(out, "Peak live heap") || !strings.Contains(out, peak) {
		t.Fatalf("resources does not report the %s peak:\n%s", peak, out)
	}
	if out := runCmd(t, "summarize", path); !strings.Contains(out, "mem_pressure") ||
		!strings.Contains(out, "Resources: 3 samples, peak live heap "+peak) {
		t.Fatalf("summarize does not report the %s peak:\n%s", peak, out)
	}
}

func TestResourcesNoSamples(t *testing.T) {
	path, _ := writeTracedJournal(t)
	var sb strings.Builder
	err := run(&sb, []string{"resources", path})
	if err == nil || !strings.Contains(err.Error(), "no resource_sample events") {
		t.Fatalf("want no-samples error, got %v", err)
	}
}

func TestOutliersHealthyRun(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := runCmd(t, "outliers", path)
	if !strings.Contains(out, "no outliers") {
		t.Fatalf("healthy run should report no outliers:\n%s", out)
	}
}

func TestTimeline(t *testing.T) {
	path, cand := writeTracedJournal(t)
	out := runCmd(t, "timeline", cand, path)
	for _, want := range []string{
		"candidate " + cand,
		"[span] circuit.solve",
		"[span] newton",
		"solve_end",
		"candidate_eval " + cand,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineUnknownCandidate(t *testing.T) {
	path, cand := writeTracedJournal(t)
	var sb strings.Builder
	err := run(&sb, []string{"timeline", "no-such-candidate", path})
	if err == nil || !strings.Contains(err.Error(), cand) {
		t.Fatalf("unknown candidate should list known ones, got %v", err)
	}
}

func TestExport(t *testing.T) {
	path, _ := writeTracedJournal(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	runCmd(t, "export", "-o", out, path)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 3 {
		t.Fatalf("expected run/candidate/solve spans at least, got %d events", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		if ev.Args["trace_id"] == "" {
			t.Fatalf("event %q missing trace_id arg", ev.Name)
		}
	}
}

func TestRefusesNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	line := `{"seq":0,"t_ns":1,"type":"journal","id":"","data":{"schema_version":99,"tool":"mnsim-future"}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range [][]string{
		{"summarize", path},
		{"slowest", path},
		{"outliers", path},
		{"timeline", "x", path},
		{"export", "-o", filepath.Join(t.TempDir(), "t.json"), path},
	} {
		var sb strings.Builder
		err := run(&sb, sub)
		if err == nil {
			t.Fatalf("%v accepted a schema-99 journal", sub)
		}
		if !strings.Contains(err.Error(), "schema version 99") {
			t.Fatalf("%v error not schema-version-specific: %v", sub, err)
		}
	}
}

func TestUsage(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, nil); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("no-args should print usage, got %v", err)
	}
	if err := run(&sb, []string{"bogus"}); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("unknown subcommand should print usage, got %v", err)
	}
}

// One journaled run, two derived views: the per-path span counts that
// summarize rebuilds from the journal equal the phases of the run manifest
// the same run wrote, so the journal alone answers "where did the time go".
func TestSummarizeSpanCountsMatchManifest(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	manifest := filepath.Join(dir, "run.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := telemetry.AddFlags(fs)
	if err := fs.Parse([]string{"-journal", journal, "-run-out", manifest}); err != nil {
		t.Fatal(err)
	}
	telemetry.DefaultTracer().Reset()
	t.Cleanup(func() {
		telemetry.DefaultJournal().Reset()
		telemetry.DefaultTracer().Reset()
	})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	c := &circuit.Crossbar{M: 4, N: 4, R: make([][]float64, 4), WireR: 0.5, RSense: 1500, Dev: device.RRAM()}
	for i := range c.R {
		c.R[i] = []float64{150e3, 120e3, 90e3, 60e3}
	}
	ctx, root := telemetry.StartSpan(context.Background(), "run")
	for k := 0; k < 3; k++ {
		cctx, cs := telemetry.StartSpanKeyed(ctx, "candidate", fmt.Sprintf("cand-%d", k))
		if _, err := c.SolveContext(cctx, []float64{0.3, 0.2, 0.1, 0.1 * float64(k)}, circuit.SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		cs.End()
	}
	root.End()
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}

	m, err := telemetry.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	summarized := map[string]string{}
	for _, line := range strings.Split(runCmd(t, "summarize", journal), "\n") {
		if fields := strings.Fields(line); len(fields) == 5 && strings.HasPrefix(fields[0], "run") {
			summarized[fields[0]] = fields[1]
		}
	}
	if len(m.Phases) == 0 || len(summarized) != len(m.Phases) {
		t.Fatalf("summarize lists %d span paths, manifest %d phases: %v vs %+v",
			len(summarized), len(m.Phases), summarized, m.Phases)
	}
	for _, p := range m.Phases {
		if got := summarized[p.Name]; got != fmt.Sprint(p.Count) {
			t.Errorf("%s: summarize count %q, manifest count %d", p.Name, got, p.Count)
		}
	}
	if summarized["run/candidate/circuit.solve/newton"] != "3" {
		t.Errorf("per-phase solve spans missing from the journal: %v", summarized)
	}
}
