package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded call into a layer (or one harness step): its name,
// interval relative to the recorder's epoch, the span that caused it, and
// the item it belongs to. allocBytes is the process-wide heap allocation
// during the span, or -1 when the span did not measure it.
type span struct {
	id, parent int
	name       string
	item       int
	start, end time.Duration
	allocBytes int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the timed code is the
// same in both modes apart from one nil test per call.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
	solve  solveAgg
	flow   flowAgg
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// open is an in-flight span; close it with end.
type open struct {
	r            *recorder
	s            span
	measureAlloc bool
	heap         uint64
}

// start opens a span named name for item under the span carried by ctx
// and returns a context carrying the new span. measureAlloc also records
// the process-wide heap allocation between start and end, which is exact
// only when nothing else allocates concurrently.
func (r *recorder) start(ctx context.Context, name string, item int, measureAlloc bool) (context.Context, *open) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	o := &open{r: r, s: span{id: id, parent: parent, name: name, item: item, allocBytes: -1}, measureAlloc: measureAlloc}
	if measureAlloc {
		o.heap = heapAllocBytes()
	}
	o.s.start = time.Since(r.epoch)
	return context.WithValue(ctx, spanKey{}, id), o
}

// end closes the span and stores it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.s.end = time.Since(o.r.epoch)
	if o.measureAlloc {
		o.s.allocBytes = int64(heapAllocBytes() - o.heap)
	}
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// isBench reports whether a span belongs to the harness rather than to a
// layer of the program.
func isBench(name string) bool { return strings.HasPrefix(name, "bench.") }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children running in parallel count once: the
// covered time is the length of the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls     int
	busy      time.Duration
	self      time.Duration
	durations []time.Duration
	alloc     int64
}

// layerStats groups spans by name.
func layerStats(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.calls++
		st.busy += s.dur()
		st.self += self[s.id]
		st.durations = append(st.durations, s.dur())
		if s.allocBytes >= 0 {
			st.alloc += s.allocBytes
		}
	}
	return out
}

// attributed sums the durations of the layer spans that a harness span
// opened directly: the part of the wall time spent inside the program.
func attributed(spans []span) time.Duration {
	bench := map[int]bool{}
	for _, s := range spans {
		if isBench(s.name) {
			bench[s.id] = true
		}
	}
	var t time.Duration
	for _, s := range spans {
		if !isBench(s.name) && (s.parent == 0 || bench[s.parent]) {
			t += s.dur()
		}
	}
	return t
}
