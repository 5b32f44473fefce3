package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// tail returns the latency at the highest percentile that has at least
// tailBeyond samples beyond it, with that percentile. With n samples that
// is the (n−tailBeyond)-th smallest, the nearest-rank percentile
// 100·(n−tailBeyond)/n. With too few samples it falls back to the maximum
// and reports percentile 100.
func tail(ds []time.Duration) (time.Duration, float64) {
	n := len(ds)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(ds)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := n - tailBeyond
	return s[k-1], 100 * float64(k) / float64(n)
}

// median returns the middle sample (the mean of the two middle ones for
// an even count).
func median[T ~int64 | ~float64](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy[T ~int64 | ~float64](xs []T) []T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeStats is a snapshot of the Go runtime counters read around a
// timed phase.
type runtimeStats struct {
	allocBytes  uint64
	gcCycles    uint64
	gcPauseSec  float64
	gcCPUSec    float64
	totalCPUSec float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		rs.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		rs.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		rs.gcPauseSec = histSum(s[2].Value.Float64Histogram())
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPUSec = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPUSec = s[4].Value.Float64()
	}
	return rs
}

// histSum estimates the sum of a runtime histogram's samples from bucket
// midpoints (the runtime keeps no exact sum of GC pauses).
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// delta returns the counters accumulated between two snapshots.
func (rs runtimeStats) delta(before runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:  rs.allocBytes - before.allocBytes,
		gcCycles:    rs.gcCycles - before.gcCycles,
		gcPauseSec:  rs.gcPauseSec - before.gcPauseSec,
		gcCPUSec:    rs.gcCPUSec - before.gcCPUSec,
		totalCPUSec: rs.totalCPUSec - before.totalCPUSec,
	}
}
