package telemetry

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The resource sampler: a ticker over Go's runtime/metrics that turns the
// process's physical footprint — heap, GC, goroutines, scheduler latency —
// into one resource_sample journal event per tick. The journal is the only
// place a sample goes; every other view derives from it. The sampler folds
// each event it emits with the same parser (ResourceSampleFromEvent) and
// fold (ResourceRollup.Add) that mnsim-journal resources runs over a
// journal file, so the run manifest's resources block is, by construction,
// what the journal says. The stall watchdog rides on the same tick.
// Everything here is observational: enabling the sampler never changes a
// computed float, and a disabled sampler costs nothing on the solve hot
// path (no goroutine, no atomics beyond the watchdog activity counter the
// journal already pays for).

// resourceMetricNames are the runtime/metrics series one sample reads, in
// the order the sampler's metrics.Sample buffer holds them.
var resourceMetricNames = []string{
	// Heap in use is /memory/classes/heap/objects (the HeapAlloc
	// equivalent), not /gc/heap/live: the latter reads zero until the
	// first GC cycle completes, which would hide a run's whole ramp-up.
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// Indices into resourceMetricNames / the sample buffer.
const (
	rmHeapLive = iota
	rmHeapGoal
	rmAllocBytes
	rmAllocObjects
	rmGoroutines
	rmGCCycles
	rmGCPauses
	rmGCCPU
	rmTotalCPU
	rmSchedLat
)

// ResourceSample is one resource_sample event, typed. Totals (alloc
// bytes/objects, GC cycles/pause) are process-lifetime cumulative, matching
// the runtime/metrics semantics; deltas belong to the reader.
type ResourceSample struct {
	// TNS is the event wall-clock time in Unix nanoseconds.
	TNS int64
	// HeapLiveBytes is the heap occupied by objects (live plus
	// dead-not-yet-swept — the runtime's HeapAlloc); HeapGoalBytes is the
	// pacer's current target.
	HeapLiveBytes uint64
	HeapGoalBytes uint64
	// TotalAllocBytes / TotalAllocObjects are cumulative allocation totals.
	TotalAllocBytes   uint64
	TotalAllocObjects uint64
	Goroutines        int64
	GCCycles          uint64
	// GCPauseTotalNS approximates cumulative stop-the-world pause time from
	// the runtime's pause histogram (bucket-midpoint sum).
	GCPauseTotalNS int64
	// GCCPUFraction is the cumulative fraction of available CPU time spent
	// in the garbage collector since process start.
	GCCPUFraction float64
	// SchedLatencyP99US is the p99 (µs) of the goroutine run-queue wait
	// distribution, cumulative since process start.
	SchedLatencyP99US float64
}

// ResourceSampleFromEvent decodes a resource_sample event; ok is false for
// any other event type. The sampler emits every number as a float64, the
// form a journal file decodes to, so ring events and file events parse
// alike; a missing or negative count reads as zero.
func ResourceSampleFromEvent(ev Event) (ResourceSample, bool) {
	if ev.Type != EvResourceSample {
		return ResourceSample{}, false
	}
	f := func(key string) float64 {
		v, _ := ev.Data[key].(float64)
		return v
	}
	u := func(key string) uint64 { return uint64(math.Max(f(key), 0)) }
	return ResourceSample{
		TNS:               ev.TNS,
		HeapLiveBytes:     u("heap_live_bytes"),
		HeapGoalBytes:     u("heap_goal_bytes"),
		TotalAllocBytes:   u("total_alloc_bytes"),
		TotalAllocObjects: u("total_alloc_objects"),
		Goroutines:        int64(u("goroutines")),
		GCCycles:          u("gc_cycles"),
		GCPauseTotalNS:    int64(u("gc_pause_total_ns")),
		GCCPUFraction:     f("gc_cpu_fraction"),
		SchedLatencyP99US: f("sched_latency_p99_us"),
	}, true
}

// ResourceRollup is the run-level fold of resource_sample events: peaks,
// and run-scoped totals (deltas between the first and last sample, so a
// manifest answers "what did *this run* allocate", not "what has this
// process ever allocated").
type ResourceRollup struct {
	Samples           int64  `json:"samples"`
	PeakHeapLiveBytes uint64 `json:"peak_heap_live_bytes"`
	MaxGoroutines     int64  `json:"max_goroutines"`
	TotalAllocBytes   uint64 `json:"total_alloc_bytes"`
	TotalAllocObjects uint64 `json:"total_alloc_objects"`
	GCCycles          uint64 `json:"gc_cycles"`
	GCPauseTotalNS    int64  `json:"gc_pause_total_ns"`
	// GCCPUFraction is the last sample's GC share of CPU time. It is the
	// runtime's process-lifetime cumulative fraction, not a run-scoped
	// total like the fields above.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	// WatchdogStalls counts watchdog_stall events; Add leaves it to the
	// caller, which sees those events.
	WatchdogStalls int64 `json:"watchdog_stalls,omitempty"`

	first ResourceSample // baseline for the run-scoped totals
}

// Add folds one sample into the rollup. Samples must arrive in emission
// order: the first one is the baseline of every run-scoped total.
func (r *ResourceRollup) Add(s ResourceSample) {
	if r.Samples == 0 {
		r.first = s
	}
	r.Samples++
	if s.HeapLiveBytes > r.PeakHeapLiveBytes {
		r.PeakHeapLiveBytes = s.HeapLiveBytes
	}
	if s.Goroutines > r.MaxGoroutines {
		r.MaxGoroutines = s.Goroutines
	}
	r.TotalAllocBytes = s.TotalAllocBytes - r.first.TotalAllocBytes
	r.TotalAllocObjects = s.TotalAllocObjects - r.first.TotalAllocObjects
	r.GCCycles = s.GCCycles - r.first.GCCycles
	r.GCPauseTotalNS = s.GCPauseTotalNS - r.first.GCPauseTotalNS
	r.GCCPUFraction = s.GCCPUFraction
}

// ResourceConfig tunes ResourceSampler.Start.
type ResourceConfig struct {
	// Interval is the sampling cadence; <= 0 selects
	// DefaultResourceInterval.
	Interval time.Duration
	// StallTimeout, when > 0, arms the stall watchdog: no journal/progress
	// activity for this long journals watchdog_stall and writes a goroutine
	// dump next to the journal file; it re-arms on the next activity.
	StallTimeout time.Duration
	// Artifact, when non-nil, is called for every goroutine dump the
	// watchdog writes so the run manifest can index it; wired to
	// RunInfo.SetArtifact by the flag layer.
	Artifact func(kind, path string)
}

// DefaultResourceInterval is the sampling cadence for a zero Interval.
const DefaultResourceInterval = 1 * time.Second

// activityCounter counts externally visible liveness: journal events and
// progress bumps. The stall watchdog watches it; a counter that stops
// moving means the process stopped doing observable work.
var activityCounter atomic.Int64

// noteActivity records one unit of observable liveness. Called from the
// journal emit and progress add paths — one atomic add, cheap enough for
// both.
func noteActivity() { activityCounter.Add(1) }

// ResourceSampler owns the sampling goroutine and the rollup of what it
// emitted. The zero value is a stopped sampler; the package-level default
// instance backs the flag layer.
type ResourceSampler struct {
	mu      sync.Mutex
	cfg     ResourceConfig
	rollup  ResourceRollup
	ran     bool
	running bool
	stop    chan struct{}
	done    chan struct{}

	// Sampling and watchdog state, owned by the loop goroutine while
	// running.
	buf          []metrics.Sample
	lastActivity int64
	lastChangeNS int64
	stallArmed   bool
	dumps        int
}

var defaultResources = &ResourceSampler{}

// DefaultResourceSampler returns the process-wide sampler instance — the
// one the telemetry flags start.
func DefaultResourceSampler() *ResourceSampler { return defaultResources }

// Start launches the sampling loop; it runs until Stop or ctx
// cancellation, whichever comes first, and flushes one final sample on the
// way out. Starting a running sampler is an error.
func (s *ResourceSampler) Start(ctx context.Context, cfg ResourceConfig) error {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultResourceInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return fmt.Errorf("telemetry: resource sampler already running")
	}
	s.cfg = cfg
	s.rollup = ResourceRollup{}
	s.ran = true
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.buf = make([]metrics.Sample, len(resourceMetricNames))
	for i, name := range resourceMetricNames {
		s.buf[i].Name = name
	}
	s.stallArmed = cfg.StallTimeout > 0
	s.lastActivity = activityCounter.Load()
	s.lastChangeNS = time.Now().UnixNano()
	s.dumps = 0
	// Sampling goroutine. Termination edges: loop selects on s.stop
	// (closed by Stop, which then joins on s.done) and on ctx.Done, so
	// cancelling the run context or stopping the sampler both end it.
	go s.loop(ctx)
	return nil
}

// Stop ends the sampling loop and waits for it to flush its final sample
// and exit; safe to call on a stopped (or never-started) sampler.
func (s *ResourceSampler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// loop is the sampling goroutine: one ticker drives sampling and the stall
// watchdog, so stopping the sampler stops both and leaves no goroutines
// behind.
func (s *ResourceSampler) loop(ctx context.Context) {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.finish()
			return
		case <-ctx.Done():
			s.finish()
			return
		case <-tick.C:
			s.tick(time.Now())
		}
	}
}

// finish takes the final sample and marks the sampler stopped — the
// clean-shutdown flush the journal contract promises.
func (s *ResourceSampler) finish() {
	s.tick(time.Now())
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
}

// tick reads runtime/metrics, emits one resource_sample event, folds that
// event into the rollup, and runs the stall watchdog.
func (s *ResourceSampler) tick(now time.Time) {
	metrics.Read(s.buf)
	var pauseNS, gcFraction, schedP99 float64
	if h := s.buf[rmGCPauses].Value.Float64Histogram(); h != nil {
		pauseNS = float64(int64(histogramSum(h) * 1e9))
	}
	if total := s.buf[rmTotalCPU].Value.Float64(); total > 0 {
		gcFraction = s.buf[rmGCCPU].Value.Float64() / total
	}
	if h := s.buf[rmSchedLat].Value.Float64Histogram(); h != nil {
		schedP99 = histogramQuantile(h, 0.99) * 1e6
	}
	ev := Event{TNS: now.UnixNano(), Type: EvResourceSample, Data: map[string]any{
		"heap_live_bytes":      float64(s.buf[rmHeapLive].Value.Uint64()),
		"heap_goal_bytes":      float64(s.buf[rmHeapGoal].Value.Uint64()),
		"total_alloc_bytes":    float64(s.buf[rmAllocBytes].Value.Uint64()),
		"total_alloc_objects":  float64(s.buf[rmAllocObjects].Value.Uint64()),
		"goroutines":           float64(s.buf[rmGoroutines].Value.Uint64()),
		"gc_cycles":            float64(s.buf[rmGCCycles].Value.Uint64()),
		"gc_pause_total_ns":    pauseNS,
		"gc_cpu_fraction":      jsonFiniteF(gcFraction),
		"sched_latency_p99_us": jsonFiniteF(schedP99),
	}}
	EmitEvent(ev.Type, "", ev.Data)
	smp, _ := ResourceSampleFromEvent(ev)
	s.mu.Lock()
	s.rollup.Add(smp)
	s.mu.Unlock()
	s.checkStall(now, smp)
}

// checkStall fires the stall watchdog: when the activity counter has not
// moved for StallTimeout, write a goroutine dump and journal
// watchdog_stall; re-arm on the next activity.
func (s *ResourceSampler) checkStall(now time.Time, smp ResourceSample) {
	if s.cfg.StallTimeout <= 0 {
		return
	}
	act := activityCounter.Load()
	if act != s.lastActivity {
		s.lastActivity = act
		s.lastChangeNS = now.UnixNano()
		s.stallArmed = true
		return
	}
	quiet := now.UnixNano() - s.lastChangeNS
	if !s.stallArmed || quiet < int64(s.cfg.StallTimeout) {
		return
	}
	s.stallArmed = false
	s.mu.Lock()
	s.rollup.WatchdogStalls++
	s.mu.Unlock()
	path := s.writeGoroutineDump()
	Log().Warn("stall watchdog fired: no journal/progress activity",
		"quiet", time.Duration(quiet), "goroutines", smp.Goroutines, "goroutine_profile", path)
	EmitEvent(EvWatchdogStall, "", map[string]any{
		"quiet_ms":          quiet / 1e6,
		"goroutines":        smp.Goroutines,
		"goroutine_profile": path,
	})
}

// writeGoroutineDump writes a textual goroutine dump (pprof debug=1) next
// to the journal file and records it as an artifact. Returns the path, or
// "" when there is no journal file or the write failed.
func (s *ResourceSampler) writeGoroutineDump() string {
	jp := defaultJournal.Path()
	if jp == "" {
		return ""
	}
	s.dumps++
	path := filepath.Join(filepath.Dir(jp), fmt.Sprintf("goroutine-stall-%03d.pprof", s.dumps))
	f, err := os.Create(path)
	if err != nil {
		Log().Warn("goroutine profile create failed", "path", path, "err", err)
		return ""
	}
	err = pprof.Lookup("goroutine").WriteTo(f, 1)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		Log().Warn("goroutine profile write failed", "path", path, "err", err)
		return ""
	}
	if s.cfg.Artifact != nil {
		s.cfg.Artifact("watchdog_goroutine_profile", path)
	}
	return path
}

// Rollup returns the fold of every sample the last run emitted, or nil
// when the sampler never ran — the manifest omits the resources block
// entirely for unsampled runs.
func (s *ResourceSampler) Rollup() *ResourceRollup {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ran {
		return nil
	}
	r := s.rollup
	return &r
}

// histogramSum approximates the total of a runtime/metrics histogram by
// summing count × bucket midpoint; the open-ended edge buckets use their
// finite boundary. Good to a bucket width — plenty for pause-time totals.
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, +1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(count) * mid
	}
	return sum
}

// histogramQuantile returns the q-quantile of a runtime/metrics histogram
// by linear interpolation within the containing bucket.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, +1) {
				return lo
			}
			frac := (target - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	// Fell off the end (rounding); return the highest finite edge.
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if !math.IsInf(h.Buckets[i], +1) {
			return h.Buckets[i]
		}
	}
	return 0
}

// jsonFiniteF clamps non-finite floats for JSON payloads (encoding/json
// rejects NaN/Inf inside map[string]any).
func jsonFiniteF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FormatByteSize renders bytes human-readably (binary units), for tables.
func FormatByteSize(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
