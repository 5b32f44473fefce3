// Command perfbench is the repository benchmark. It runs one of three
// workloads drawn from the paper's evaluation, with inputs generated from
// a seed, times every call into the program from outside, checks the
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records a span around each call into a layer and reports the
// per-layer metrics. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload table2-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named benchmark workload. Its inputs are a pure
// function of the seed: round r always does the same work.
type workload interface {
	// setup builds every input; it is timed as setup_s.
	setup(seed int64, workers int) error
	// phaseStart runs once at the start of each timed phase.
	phaseStart(ctx context.Context, rec *recorder) error
	// round runs round r and returns one outcome per item and a digest
	// of the round's outputs.
	round(ctx context.Context, rec *recorder, r int) ([]outcome, uint64)
	// finish runs the run-level checks and returns model_err_pct.
	finish() ([]error, float64)
}

// outcome is one item's latency and correctness.
type outcome struct {
	dur time.Duration
	err error
}

var workloads = map[string]func() workload{
	"table2-warm": func() workload { return &table2{} },
	"sweep-cold":  func() workload { return &sweep{} },
	"design-flow": func() workload { return &flow{} },
}

const (
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 9
	// windows is how many consecutive groups of rounds the timed phase is
	// cut into; items_per_s is the median of their throughputs, so a
	// burst of load from outside the benchmark moves it less.
	windows = 5
	// unattributedBound is the largest share of the traced wall time the
	// harness may spend outside the program's layers.
	unattributedBound = 0.05
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table2-warm, sweep-cold or design-flow")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (table2-warm, sweep-cold, design-flow), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, err := bench(mk, config{*name, *seed, *seconds, *trace == 1, *spansDir}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed items and keeps the first failures.
// Every correctness check outside an item (a phase start, a digest
// comparison, a run-level bound) counts as one item of its own.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(errs ...error) {
	for _, err := range errs {
		t.attempted++
		if err != nil {
			t.failed++
			if len(t.errs) < 5 {
				t.errs = append(t.errs, err)
			}
		}
	}
}

func (t *tally) errorFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// phase is one timed phase's record.
type phase struct {
	items   []time.Duration
	wall    time.Duration
	rt      runtimeStats
	digest0 uint64
	// roundWall and roundItems give each round's wall time and item count.
	roundWall  []time.Duration
	roundItems []int
}

// throughput returns the median items per second over the phase's
// windows of consecutive rounds, and each window's figure.
func (ph phase) throughput() (float64, []float64) {
	k := min(windows, len(ph.roundWall))
	per := make([]float64, 0, k)
	for g := 0; g < k; g++ {
		lo, hi := g*len(ph.roundWall)/k, (g+1)*len(ph.roundWall)/k
		var wall time.Duration
		items := 0
		for r := lo; r < hi; r++ {
			wall += ph.roundWall[r]
			items += ph.roundItems[r]
		}
		per = append(per, float64(items)/wall.Seconds())
	}
	return median(per), per
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spansDir string
}

func bench(mk func() workload, cfg config, stdout io.Writer) (*result, error) {
	workers := runtime.NumCPU()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t workers=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced, workers)
	var w workload
	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		w = mk()
		if err := w.setup(cfg.seed, workers); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start)
	}
	setup := median(setups)
	fmt.Fprintf(stdout, "setup: median %.4f s of %d\n", setup.Seconds(), setupRepeats)

	ctx := context.Background()
	var t tally
	// Round 0 untimed: it warms caches and gives the reference digest.
	outs, digest0 := w.round(ctx, nil, 0)
	for _, o := range outs {
		t.add(o.err)
	}
	fmt.Fprintf(stdout, "digest of round 0: %016x\n", digest0)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	metrics := map[string]metric{}
	var ph phase
	if !cfg.traced {
		ph = timed(ctx, w, nil, budget, 0, &t)
	} else {
		// The untraced half sets the work; the traced half repeats the
		// same rounds, so the wall-time gap is the tracing overhead.
		plain := timed(ctx, w, nil, budget/2, 0, &t)
		rec := newRecorder()
		ph = timed(ctx, w, rec, 0, len(plain.roundWall), &t)
		t.add(sameDigest(plain.digest0, digest0))
		overhead := ph.wall.Seconds()/plain.wall.Seconds() - 1
		unattributed := 1 - attributed(rec.spans).Seconds()/ph.wall.Seconds()
		var err error
		if unattributed > unattributedBound {
			err = fmt.Errorf("%.1f%% of the traced wall time is outside every layer, over the %.0f%% bound", 100*unattributed, 100*unattributedBound)
		}
		t.add(err)
		layerMetrics(metrics, rec, ph, workers, overhead, unattributed)
		printBreakdown(stdout, rec, ph)
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := writeSpans(path, rec.spans); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}
	t.add(sameDigest(ph.digest0, digest0))
	checks, modelErr := w.finish()
	t.add(checks...)

	items := float64(len(ph.items))
	tailD, tailQ := tail(ph.items)
	thr, perWindow := ph.throughput()
	fmt.Fprintf(stdout, "timed: %d items in %d rounds, %.3f s; item_tail_ms is p%.2f of %d items\n",
		len(ph.items), len(ph.roundWall), ph.wall.Seconds(), tailQ, len(ph.items))
	fmt.Fprintf(stdout, "items_per_s is the median of %d windows: %.4g\n", len(perWindow), perWindow)
	if !cfg.traced {
		metrics["setup_s"] = metric{setup.Seconds(), "s"}
		metrics["items_per_s"] = metric{thr, "1/s"}
		metrics["item_p50_ms"] = metric{ms(median(ph.items)), "ms"}
		metrics["item_tail_ms"] = metric{ms(tailD), "ms"}
		metrics["alloc_mb_per_item"] = metric{float64(ph.rt.allocBytes) / 1e6 / items, "MB"}
		metrics["model_err_pct"] = metric{modelErr, "%"}
	} else {
		metrics["bench.error_frac"] = metric{t.errorFrac(), "ratio"}
	}
	for _, err := range t.errs {
		fmt.Fprintf(stdout, "FAILED: %v\n", err)
	}
	fmt.Fprintf(stdout, "error_frac %.4f (%d of %d items failed)\n", t.errorFrac(), t.failed, t.attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// sameDigest checks that a timed phase's round 0 reproduced the warm-up's
// outputs bit for bit.
func sameDigest(got, want uint64) error {
	if got != want {
		return fmt.Errorf("round 0 digest %016x differs from the warm-up's %016x", got, want)
	}
	return nil
}

// timed runs rounds 0, 1, … under rec until budget has passed (budget > 0)
// or exactly rounds rounds have run, and tallies every item.
func timed(ctx context.Context, w workload, rec *recorder, budget time.Duration, rounds int, t *tally) phase {
	runtime.GC()
	var ph phase
	before := readRuntime()
	start := time.Now()
	pctx, sp := rec.start(ctx, "bench.phase", -1, false)
	t.add(w.phaseStart(pctx, rec))
	for r := 0; (budget > 0 && time.Since(start) < budget) || r < rounds; r++ {
		rctx, rsp := rec.start(pctx, "bench.round", r, false)
		rstart := time.Now()
		outs, dg := w.round(rctx, rec, r)
		ph.roundWall = append(ph.roundWall, time.Since(rstart))
		ph.roundItems = append(ph.roundItems, len(outs))
		rsp.end()
		if r == 0 {
			ph.digest0 = dg
		}
		for _, o := range outs {
			ph.items = append(ph.items, o.dur)
			t.add(o.err)
		}
	}
	sp.end()
	ph.wall = time.Since(start)
	ph.rt = readRuntime().delta(before)
	return ph
}

// writeSpans writes one JSON object per span, in the order spans ended.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		rec := struct {
			ID         int    `json:"id"`
			Parent     int    `json:"parent"`
			Name       string `json:"name"`
			Item       int    `json:"item"`
			StartNS    int64  `json:"start_ns"`
			EndNS      int64  `json:"end_ns"`
			AllocBytes int64  `json:"alloc_bytes"`
		}{s.id, s.parent, s.name, s.item, int64(s.start), int64(s.end), s.allocBytes}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
