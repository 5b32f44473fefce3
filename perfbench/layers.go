package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// layerMetrics fills m with the per-layer metrics of a traced phase.
// Totals are given per item of the phase, so they do not grow with the
// number of rounds a faster program fits in; per-call statistics and
// fractions are given as they are.
func layerMetrics(m map[string]metric, rec *recorder, ph phase, workers int, overhead, unattributed float64) {
	ls := layerStats(rec.spans)
	get := func(name string) *layerStat {
		if s := ls[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	items := float64(max(len(ph.items), 1))
	perItem := func(d time.Duration) float64 { return d.Seconds() / items }
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	a := &rec.solve
	solves := float64(max(a.solves, 1))
	perSolve := func(n int64) float64 { return float64(n) / solves }
	sp50 := median(a.durations)
	stail, _ := tail(a.durations)
	put("circuit.solve.calls", float64(a.solves), "count")
	put("circuit.solve.busy_s", perItem(get("circuit.solve").busy), "s/item")
	put("circuit.solve.p50_ms", ms(sp50), "ms")
	put("circuit.solve.tail_ms", ms(stail), "ms")
	put("circuit.solve.errors", float64(a.errors), "count")
	put("circuit.solve.warm.busy_s", perItem(a.warmBusy), "s/item")
	put("circuit.solve.read.busy_s", perItem(a.readBusy), "s/item")
	put("circuit.solve.newton_iters", perSolve(a.newton), "1/solve")
	put("circuit.solve.cg_iters", perSolve(a.cg), "1/solve")
	put("circuit.solve.setup_cg_iters", perSolve(a.setupCG), "1/solve")
	put("circuit.solve.precond_refreshes", perSolve(a.refreshes), "1/solve")
	put("circuit.solve.warm_frac", ratio(float64(a.warm), float64(a.viaState)), "ratio")
	put("circuit.solve.memo_hit_frac", ratio(float64(a.memoHit), float64(a.solves)), "ratio")
	allocBytes, allocSolves := a.allocBytes, a.allocSolves
	if allocSolves == 0 && a.solves > 0 {
		// Solves ran on pool workers: take the allocation of the whole
		// pool.Run calls that held them.
		allocBytes, allocSolves = get("pool.run").alloc, a.solves
	}
	put("circuit.solve.alloc_mb", ratio(float64(allocBytes), float64(allocSolves))/1e6, "MB/solve")
	put("circuit.assembly.flops", perSolve(a.assemblyFlops), "flop/solve")
	put("circuit.assembly.bytes", perSolve(a.assemblyBytes), "B-computed/solve")
	put("circuit.newton_update.flops", perSolve(a.newtonUpdateFlops), "flop/solve")
	put("circuit.settle.calls", float64(get("circuit.settle").calls), "count")
	put("circuit.settle.busy_s", perItem(get("circuit.settle").busy), "s/item")
	put("circuit.ideal.busy_s", perItem(get("circuit.ideal").busy), "s/item")

	put("linalg.cg.flops", perSolve(a.cgFlops), "flop/solve")
	put("linalg.cg.spmvs", perSolve(a.cgSpMVs), "1/solve")
	put("linalg.cg.bytes", perSolve(a.cgBytes), "B-computed/solve")
	put("linalg.precond.flops", perSolve(a.precondFlops), "flop/solve")
	put("linalg.precond.band_factorizations", perSolve(a.bandFactors), "1/solve")
	put("linalg.precond.applies", perSolve(a.precondApplies), "1/solve")

	put("accuracy.model.calls", float64(get("accuracy.model").calls), "count")
	put("accuracy.model.busy_s", perItem(get("accuracy.model").busy), "s/item")
	put("accuracy.montecarlo.busy_s", perItem(get("accuracy.montecarlo").busy), "s/item")

	explore, f := get("dse.explore"), &rec.flow
	put("dse.explore.calls", float64(explore.calls), "count")
	put("dse.explore.busy_s", perItem(explore.busy), "s/item")
	put("dse.explore.candidates", float64(f.candidates)/items, "1/item")
	put("dse.explore.feasible_frac", ratio(float64(f.feasible), float64(f.candidates)), "ratio")
	put("arch.evaluate.busy_s", perItem(f.evalTime), "s/item")
	put("dse.explore.overhead_frac", idleFrac(f.evalTime, explore.busy, workers), "ratio")
	put("dse.select.busy_s", perItem(get("dse.select").busy), "s/item")

	put("mapper.map.busy_s", perItem(get("mapper.map").busy), "s/item")
	put("mapper.map.cells", float64(f.mappedCells)/items, "cells/item")
	put("funcsim.build.busy_s", perItem(get("funcsim.build").busy), "s/item")
	run := get("funcsim.run")
	put("funcsim.run.calls", float64(run.calls), "count")
	put("funcsim.run.busy_s", perItem(run.busy), "s/item")
	put("funcsim.run.p50_ms", ms(median(run.durations)), "ms")

	prun, ptask := get("pool.run"), get("pool.task")
	put("pool.run.busy_s", perItem(prun.busy), "s/item")
	put("pool.task.busy_s", perItem(ptask.busy), "s/item")
	put("pool.idle_frac", idleFrac(ptask.busy, prun.busy, workers), "ratio")

	put("runtime.gc.cycles", float64(ph.rt.gcCycles)/items, "1/item")
	put("runtime.gc.pause_s", ph.rt.gcPauseSec/items, "s/item")
	put("runtime.gc.cpu_frac", ratio(ph.rt.gcCPUSec, ph.rt.totalCPUSec), "ratio")
	put("runtime.heap_alloc_mb", float64(ph.rt.allocBytes)/1e6/items, "MB/item")

	put("bench.unattributed_frac", unattributed, "ratio")
	put("bench.trace_overhead_frac", overhead, "ratio")
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// idleFrac is the share of workers × wall that no task used:
// 1 − busy / (workers × wall), or 0 when nothing ran.
func idleFrac(busy, wall time.Duration, workers int) float64 {
	if wall <= 0 {
		return 0
	}
	return 1 - busy.Seconds()/(float64(workers)*wall.Seconds())
}

// printBreakdown prints where the traced phase's wall time went: every
// span name with its calls, busy time and self time, largest self first.
func printBreakdown(w io.Writer, rec *recorder, ph phase) {
	ls := layerStats(rec.spans)
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].self > ls[names[j]].self })
	fmt.Fprintf(w, "traced breakdown over %.3f s wall (self time is busy time minus time covered by child spans):\n", ph.wall.Seconds())
	fmt.Fprintf(w, "  %-22s %8s %10s %10s %8s\n", "span", "calls", "busy_s", "self_s", "self/wall")
	for _, n := range names {
		s := ls[n]
		fmt.Fprintf(w, "  %-22s %8d %10.4f %10.4f %7.1f%%\n", n, s.calls, s.busy.Seconds(), s.self.Seconds(), 100*s.self.Seconds()/ph.wall.Seconds())
	}
}
