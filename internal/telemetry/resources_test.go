package telemetry

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestSampler starts the default sampler with the given config and
// guarantees it is stopped at test end.
func startTestSampler(t *testing.T, cfg ResourceConfig) {
	t.Helper()
	if err := defaultResources.Start(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(defaultResources.Stop)
}

// waitFor polls until cond holds or the deadline passes — the sampler is
// timing-driven, so assertions poll instead of sleeping fixed amounts.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// journalSamples parses the resource_sample events among evs, in order.
func journalSamples(evs []Event) []ResourceSample {
	var out []ResourceSample
	for _, ev := range evs {
		if smp, ok := ResourceSampleFromEvent(ev); ok {
			out = append(out, smp)
		}
	}
	return out
}

// Every tick lands in the journal as one resource_sample event, and the
// rollup folds exactly the events emitted.
func TestResourceSamplerSamples(t *testing.T) {
	j, _ := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{Interval: 5 * time.Millisecond})
	waitFor(t, 5*time.Second, "two samples", func() bool {
		return len(journalSamples(j.Events())) >= 2
	})
	defaultResources.Stop()
	samples := journalSamples(j.Events())
	last := samples[len(samples)-1]
	if last.HeapLiveBytes == 0 || last.HeapGoalBytes == 0 {
		t.Fatalf("empty heap stats: %+v", last)
	}
	if last.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", last.Goroutines)
	}
	if last.TotalAllocBytes == 0 {
		t.Fatalf("no allocation total: %+v", last)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TNS < samples[i-1].TNS {
			t.Fatalf("samples out of order at %d", i)
		}
		if samples[i].TotalAllocBytes < samples[i-1].TotalAllocBytes {
			t.Fatalf("cumulative alloc total went backwards at %d", i)
		}
	}
	r := defaultResources.Rollup()
	if r == nil {
		t.Fatal("nil rollup after a sampled run")
	}
	if r.Samples != int64(len(samples)) || r.PeakHeapLiveBytes == 0 || r.MaxGoroutines <= 0 {
		t.Fatalf("rollup of %d journaled samples not filled: %+v", len(samples), r)
	}
}

// A non-sample event parses to nothing; a sample from a journal file (every
// number a float64) parses field for field, a negative count reads as zero.
func TestResourceSampleFromEvent(t *testing.T) {
	if _, ok := ResourceSampleFromEvent(Event{Type: EvWatchdogStall}); ok {
		t.Fatal("watchdog_stall parsed as a resource sample")
	}
	got, ok := ResourceSampleFromEvent(Event{TNS: 42, Type: EvResourceSample, Data: map[string]any{
		"heap_live_bytes": 1024.0, "heap_goal_bytes": 2048.0,
		"total_alloc_bytes": 4096.0, "total_alloc_objects": 8.0,
		"goroutines": 3.0, "gc_cycles": 2.0, "gc_pause_total_ns": -5.0,
		"gc_cpu_fraction": 0.25, "sched_latency_p99_us": 7.5,
	}})
	want := ResourceSample{TNS: 42, HeapLiveBytes: 1024, HeapGoalBytes: 2048,
		TotalAllocBytes: 4096, TotalAllocObjects: 8, Goroutines: 3, GCCycles: 2,
		GCCPUFraction: 0.25, SchedLatencyP99US: 7.5}
	if !ok || got != want {
		t.Fatalf("parsed %+v, %v; want %+v", got, ok, want)
	}
}

// The fold: peaks over every sample, totals as last minus first, the GC
// CPU fraction as the last sample's.
func TestResourceRollupAdd(t *testing.T) {
	samples := []ResourceSample{
		{HeapLiveBytes: 10, Goroutines: 4, TotalAllocBytes: 100, TotalAllocObjects: 5,
			GCCycles: 3, GCPauseTotalNS: 50, GCCPUFraction: 0.1},
		{HeapLiveBytes: 30, Goroutines: 2, TotalAllocBytes: 160, TotalAllocObjects: 9,
			GCCycles: 4, GCPauseTotalNS: 70, GCCPUFraction: 0.2},
		{HeapLiveBytes: 20, Goroutines: 3, TotalAllocBytes: 400, TotalAllocObjects: 20,
			GCCycles: 7, GCPauseTotalNS: 90, GCCPUFraction: 0.15},
	}
	var r ResourceRollup
	for _, smp := range samples {
		r.Add(smp)
	}
	want := ResourceRollup{Samples: 3, PeakHeapLiveBytes: 30, MaxGoroutines: 4,
		TotalAllocBytes: 300, TotalAllocObjects: 15, GCCycles: 4, GCPauseTotalNS: 40,
		GCCPUFraction: 0.15, first: samples[0]}
	if r != want {
		t.Fatalf("rollup %+v, want %+v", r, want)
	}
}

// Stop must flush one final sample even when the interval never elapsed —
// the clean-shutdown contract.
func TestResourceSamplerFinalFlush(t *testing.T) {
	j, path := newTestJournal(t, 64)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{Interval: time.Hour})
	defaultResources.Stop()
	if n := defaultResources.Rollup().Samples; n != 1 {
		t.Fatalf("got %d samples, want exactly the final flush", n)
	}
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var saw bool
	for _, ev := range events {
		if ev.Type == EvResourceSample {
			saw = true
			if ev.Data["heap_live_bytes"].(float64) <= 0 {
				t.Fatalf("resource_sample without heap data: %v", ev.Data)
			}
		}
	}
	if !saw {
		t.Fatal("no resource_sample event journaled on shutdown")
	}
}

// The sampler and its watchdogs must leave no goroutines behind after
// Stop, across repeated start/stop cycles and context cancellation.
func TestResourceSamplerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := defaultResources.Start(context.Background(), ResourceConfig{Interval: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		defaultResources.Stop()
	}
	// Cancellation path: the loop must exit on ctx alone.
	ctx, cancel := context.WithCancel(context.Background())
	if err := defaultResources.Start(ctx, ResourceConfig{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()
	waitFor(t, 5*time.Second, "loop exit on cancel", func() bool {
		defaultResources.mu.Lock()
		defer defaultResources.mu.Unlock()
		return !defaultResources.running
	})
	waitFor(t, 5*time.Second, "goroutine count to settle", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// A double start must fail, and Stop on a stopped sampler is a no-op.
func TestResourceSamplerLifecycle(t *testing.T) {
	defaultResources.Stop() // no-op on a stopped sampler
	startTestSampler(t, ResourceConfig{Interval: time.Hour})
	if err := defaultResources.Start(context.Background(), ResourceConfig{Interval: time.Hour}); err == nil {
		t.Fatal("second Start succeeded on a running sampler")
	}
	defaultResources.Stop()
	defaultResources.Stop() // idempotent
}

// With no journal/progress activity the stall watchdog must fire, write a
// goroutine dump next to the journal, and journal watchdog_stall; the
// sampler's own resource_sample events must not count as activity.
func TestResourceSamplerStallWatchdog(t *testing.T) {
	j, path := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{
		Interval:     3 * time.Millisecond,
		StallTimeout: 15 * time.Millisecond,
	})
	waitFor(t, 5*time.Second, "stall to fire", func() bool {
		return defaultResources.Rollup().WatchdogStalls >= 1
	})
	defaultResources.Stop()
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for i := range events {
		if events[i].Type == EvWatchdogStall {
			ev = &events[i]
			break
		}
	}
	if ev == nil {
		t.Fatal("no watchdog_stall event journaled")
	}
	if q, ok := ev.Data["quiet_ms"].(float64); !ok || q < 10 {
		t.Fatalf("watchdog_stall quiet_ms = %v", ev.Data["quiet_ms"])
	}
	prof, _ := ev.Data["goroutine_profile"].(string)
	if prof == "" {
		t.Fatal("watchdog_stall carries no goroutine profile path")
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "goroutine") {
		t.Fatalf("goroutine profile %s does not look like a dump", prof)
	}
}

// Without a journal file the stall watchdog still fires and counts, but
// writes no goroutine dump and records no artifact.
func TestResourceSamplerStallWithoutJournalFile(t *testing.T) {
	old := defaultJournal
	defaultJournal = NewJournal(16)
	t.Cleanup(func() { defaultJournal = old })

	var mu sync.Mutex
	var arts []string
	startTestSampler(t, ResourceConfig{
		Interval:     3 * time.Millisecond,
		StallTimeout: 15 * time.Millisecond,
		Artifact: func(kind, path string) {
			mu.Lock()
			arts = append(arts, kind+"="+path)
			mu.Unlock()
		},
	})
	waitFor(t, 5*time.Second, "stall to fire", func() bool {
		return defaultResources.Rollup().WatchdogStalls >= 1
	})
	defaultResources.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(arts) != 0 {
		t.Fatalf("watchdog wrote %v with no journal file", arts)
	}
}

// Activity (journal or progress traffic) must hold the stall watchdog off.
func TestResourceSamplerStallSuppressedByActivity(t *testing.T) {
	j, _ := newTestJournal(t, 256)
	old := defaultJournal
	defaultJournal = j
	t.Cleanup(func() { defaultJournal = old })

	startTestSampler(t, ResourceConfig{
		Interval:     2 * time.Millisecond,
		StallTimeout: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		j.Emit(EvPhase, "busy", nil) // keeps the activity counter moving
		time.Sleep(2 * time.Millisecond)
	}
	defaultResources.Stop()
	if n := defaultResources.Rollup().WatchdogStalls; n != 0 {
		t.Fatalf("watchdog fired %d times despite continuous activity", n)
	}
}

// The flag layer end to end: resource flags start the sampler, Finish
// stops it and lands the rollup in the manifest.
func TestFlagsResourceRollupInManifest(t *testing.T) {
	dir := t.TempDir()
	runOut := filepath.Join(dir, "run.json")
	f := &Flags{
		RunOut:           runOut,
		ResourceInterval: 3 * time.Millisecond,
		Run:              NewRunInfo(),
	}
	f.Run.SetTool("resources-test")
	if err := f.StartContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "samples", func() bool {
		return defaultResources.Rollup().Samples >= 2
	})
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(runOut)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resources == nil {
		t.Fatal("manifest has no resources rollup")
	}
	if m.Resources.Samples < 2 || m.Resources.PeakHeapLiveBytes == 0 || m.Resources.MaxGoroutines <= 0 {
		t.Fatalf("rollup not populated: %+v", m.Resources)
	}
}

// The manifest's resources block is what the journal says: a Flags-driven
// sampled run writes a manifest whose rollup equals, field for field, the
// fold of its own journal file through ResourceSampleFromEvent and Add.
func TestFlagsManifestRollupMatchesJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	runOut := filepath.Join(dir, "run.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-journal", journal, "-resource-interval", "2ms", "-run-out", runOut}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(defaultJournal.Reset)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// Allocate between ticks so the run-scoped totals are not all zero.
	var held [][]byte
	waitFor(t, 5*time.Second, "samples", func() bool {
		held = append(held, make([]byte, 64<<10))
		return defaultResources.Rollup().Samples >= 3
	})
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(held)

	m, err := LoadManifest(runOut)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resources == nil {
		t.Fatal("manifest has no resources block")
	}
	events, err := ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var want ResourceRollup
	for _, ev := range events {
		if smp, ok := ResourceSampleFromEvent(ev); ok {
			want.Add(smp)
		} else if ev.Type == EvWatchdogStall {
			want.WatchdogStalls++
		}
	}
	if want.Samples < 3 || want.TotalAllocBytes == 0 {
		t.Fatalf("journal fold too thin to compare: %+v", want)
	}
	got, wantV := reflect.ValueOf(*m.Resources), reflect.ValueOf(want)
	for i := 0; i < got.NumField(); i++ {
		field := got.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		if g, w := got.Field(i).Interface(), wantV.Field(i).Interface(); g != w {
			t.Errorf("resources.%s: manifest %v, journal fold %v", field.Name, g, w)
		}
	}
}

func TestFormatByteSize(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{512, "512 B"},
		{64 << 20, "64.0 MiB"},
		{1 << 30, "1.0 GiB"},
		{1536, "1.5 KiB"},
	}
	for _, c := range cases {
		if got := FormatByteSize(c.in); got != c.want {
			t.Errorf("FormatByteSize(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The histogram helpers against a hand-built runtime/metrics histogram,
// including the open-ended edge buckets.
func TestRuntimeHistogramHelpers(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{2, 6, 2},
		Buckets: []float64{0, 10, 20, 30},
	}
	// midpoints 5, 15, 25 → 2·5 + 6·15 + 2·25 = 150
	if got := histogramSum(h); got != 150 {
		t.Fatalf("histogramSum = %v, want 150", got)
	}
	// p50: target = 5 of 10 → bucket [10,20), 3 of 6 into it → 15.
	if got := histogramQuantile(h, 0.5); got != 15 {
		t.Fatalf("p50 = %v, want 15", got)
	}
	inf := math.Inf(1)
	edge := &metrics.Float64Histogram{
		Counts:  []uint64{1, 1},
		Buckets: []float64{-inf, 5, inf},
	}
	// -Inf bucket contributes its finite edge (5), +Inf likewise (5).
	if got := histogramSum(edge); got != 10 {
		t.Fatalf("edge sum = %v, want 10", got)
	}
	if got := histogramQuantile(edge, 0.99); got != 5 {
		t.Fatalf("edge p99 = %v, want 5", got)
	}
	if got := histogramQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

// Every runtime/metrics series the sampler reads must exist on the current
// toolchain — a rename in a future Go release should fail loudly here, not
// silently sample zeros.
func TestResourceMetricNamesSupported(t *testing.T) {
	known := map[string]bool{}
	for _, d := range metrics.All() {
		known[d.Name] = true
	}
	for _, name := range resourceMetricNames {
		if !known[name] {
			t.Errorf("runtime/metrics series %q not supported by this toolchain", name)
		}
	}
}
