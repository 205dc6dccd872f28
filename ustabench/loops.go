package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
)

// timedLoop calls fn until budget seconds have passed (and at least
// minIters times), returning each call's wall time and output.
func timedLoop(budget float64, minIters int, fn func() (iterOut, error)) ([]float64, []iterOut, error) {
	var times []float64
	var outs []iterOut
	start := time.Now()
	for len(times) < minIters || time.Since(start).Seconds() < budget {
		t0 := time.Now()
		o, err := fn()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		outs = append(outs, o)
	}
	return times, outs, nil
}

// checkDigests compares every iteration's digest with the reference and
// tallies cells attempted and failed.
func checkDigests(res *Result, out io.Writer, label, ref string, outs []iterOut) {
	for i, o := range outs {
		res.Attempted += o.cells
		res.Failed += o.failed
		if o.digest != ref {
			res.Correct = false
			fmt.Fprintf(out, "MISMATCH: %s iteration %d digest %s, want %s\n", label, i, o.digest, ref)
		}
	}
}

// runSweepWorkload runs table1-cli or population-jump.
func runSweepWorkload(ctx context.Context, o options, out io.Writer) (*Result, error) {
	workers := runtime.NumCPU()
	var (
		setup       []float64
		coldDigests []string
		bench       *sweepBench
		err         error
	)
	for k := 0; k < o.setupReps; k++ {
		if o.workload == "table1-cli" {
			// What one `ustasim -scenario` invocation pays: a cold
			// iteration in a fresh process, every cache empty.
			sec, digest, err := coldIteration(ctx, o.seed)
			if err != nil {
				return nil, fmt.Errorf("cold set-up iteration: %w", err)
			}
			setup = append(setup, sec)
			coldDigests = append(coldDigests, digest)
			continue
		}
		t0 := time.Now()
		if bench, err = newSweepBench(ctx, o.workload, o.seed, untimedStage); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if bench == nil {
		if bench, err = newSweepBench(ctx, o.workload, o.seed, untimedStage); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "setup_s samples %s\n", fmtSecs(setup))

	ref, err := bench.runUntraced(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up iteration: %w", err)
	}
	fmt.Fprintf(out, "sizing: %d cells per iteration, %d workers, GOMAXPROCS %d, engine %v\n",
		ref.cells, workers, runtime.GOMAXPROCS(0), bench.event)
	res := &Result{Correct: ref.failed == 0, Metrics: map[string]Metric{}}
	fmt.Fprintf(out, "digest %s (comfort.csv + deltas.csv bytes, warm-up iteration)\n", ref.digest)
	for i, d := range coldDigests {
		if d != ref.digest {
			res.Correct = false
			fmt.Fprintf(out, "MISMATCH: cold set-up iteration %d digest %s, want %s\n", i, d, ref.digest)
		}
	}
	if bench.table1 {
		fmt.Fprintf(out, "skin_err_c %.4f °C (mean |simulated − published| peak skin over %d cells, reference experiments.PaperTable1)\n",
			ref.skinErr, ref.cells)
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	times, outs, err := timedLoop(budget, o.minIters, func() (iterOut, error) { return bench.runUntraced(ctx) })
	if err != nil {
		return nil, err
	}
	checkDigests(res, out, "untraced", ref.digest, outs)
	tail := tailOf(times)
	fmt.Fprintf(out, "iterations %d, run_s median %.4f s, tail %s = %.4f s\niteration seconds %s\n", len(times), median(times), tail, tail.Value, fmtSecs(times))
	if !o.trace {
		res.Metrics["setup_s"] = Metric{median(setup), "s"}
		res.Metrics["run_s"] = Metric{median(times), "s"}
		// A closed loop with one client: each iteration is due when the
		// previous one ends, so its latency is its run time.
		res.Metrics["latency_p50_s"] = Metric{median(times), "s"}
		res.Metrics["latency_tail_s"] = Metric{tail.Value, "s"}
		res.Metrics["peak_rss_mb"] = Metric{peakRSSMB(), "MB"}
		return res, nil
	}

	tr := NewTracer()
	var setupLS *layerSample
	if bench.pred != nil {
		// population-jump trains in set-up: trace one more training so the
		// predictor-side layers have figures on this workload too.
		ls := layerSample{stage: map[string]float64{}}
		setupID, endSetup := tr.Start("setup", 0)
		_, ls.corpusRecords, err = trainPredictor(ctx, bench.spec, repro.DefaultDeviceConfig(), workers, tracedStage(tr, setupID, ls.stage))
		endSetup()
		if err != nil {
			return nil, err
		}
		setupLS = &ls
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	gc0 := readGCCPU()
	var traced []layerSample
	var tracedTimes, allocMB []float64
	var tracedOuts []iterOut
	start := time.Now()
	for len(traced) < o.minIters || time.Since(start).Seconds() < budget {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		iterID, endIter := tr.Start("iteration", 0)
		it, ls, err := bench.runTraced(ctx, tr, iterID)
		endIter()
		tracedTimes = append(tracedTimes, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms1)
		if err != nil {
			prof.stop()
			return nil, err
		}
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		traced = append(traced, ls)
		tracedOuts = append(tracedOuts, it)
	}
	gc1 := readGCCPU()
	profile := prof.stop()
	checkDigests(res, out, "traced", ref.digest, tracedOuts)

	fr, err := cpuFractions(profile)
	if err != nil {
		return nil, err
	}
	m := sweepLayerMetrics(traced, setupLS, workers)
	for l, v := range fr {
		m[l+".cpu_frac"] = v
	}
	m["runtime.alloc_mb"] = median(allocMB)
	m["runtime.gc_cpu_frac"] = gc1.fracSince(gc0)
	m["trace.overhead_frac"] = median(tracedTimes)/median(times) - 1
	for _, name := range []string{"fleet.net.ack_p50_ms", "fleet.net.ack_tail_ms", "fleet.net.exec_p50_s.baseline",
		"fleet.net.exec_p50_s.usta", "fleet.durable.wal_bytes_per_job", "fleet.wire.bytes_per_cell",
		"fleet.net.redials", "fleet.net.hedges", "obs.scrape_p50_ms", "loadgen.late_max_ms"} {
		m[name] = 0 // service layers: not on a sweep's path
	}
	fillMetrics(res, m)
	fmt.Fprintf(out, "traced iterations %d, traced run_s median %.4f s\n", len(traced), median(tracedTimes))
	if err := writeTrace(out, tr, profile, o.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepLayerMetrics reduces traced iterations to the sweep layers' figures:
// per-iteration medians, cell latencies pooled over all iterations.
func sweepLayerMetrics(traced []layerSample, setup *layerSample, workers int) map[string]float64 {
	per := func(f func(ls layerSample) float64) float64 {
		vs := make([]float64, len(traced))
		for i, ls := range traced {
			vs[i] = f(ls)
		}
		return median(vs)
	}
	// Predictor stages run per iteration (table1-cli) or once in set-up
	// (population-jump).
	predLS := func(f func(ls layerSample) float64) float64 {
		if setup != nil {
			return f(*setup)
		}
		return per(f)
	}
	var cells []float64
	var cellSum, sim float64
	var hits, misses uint64
	for _, ls := range traced {
		cells = append(cells, ls.cellSec...)
		cellSum += ls.cellSumSec
		sim += ls.simSec
		hits += ls.ladderHits
		misses += ls.ladderMisses
	}
	m := map[string]float64{
		"core.corpus_s":         predLS(func(ls layerSample) float64 { return ls.stage["core.corpus"] }),
		"core.corpus_records":   predLS(func(ls layerSample) float64 { return float64(ls.corpusRecords) }),
		"ml.tree.fit_s":         predLS(func(ls layerSample) float64 { return ls.stage["ml.tree.fit"] }),
		"scenario.expand_s":     per(func(ls layerSample) float64 { return ls.stage["scenario.expand"] }),
		"analytics.aggregate_s": per(func(ls layerSample) float64 { return ls.stage["analytics.aggregate"] }),
		"fleet.sweep_s":         per(func(ls layerSample) float64 { return ls.sweepSec }),
		"fleet.cells":           per(func(ls layerSample) float64 { return float64(ls.cells) }),
		"fleet.cell_p50_ms":     median(cells) * 1e3,
		"fleet.cell_tail_ms":    tailOf(cells).Value * 1e3,
		"fleet.worker_idle_frac": per(func(ls layerSample) float64 {
			return 1 - ls.cellSumSec/(float64(workers)*ls.sweepSec)
		}),
		"device.sim_s_per_cell_s":  sim / cellSum,
		"thermal.ladder_hits":      per(func(ls layerSample) float64 { return float64(ls.ladderHits) }),
		"thermal.ladder_misses":    per(func(ls layerSample) float64 { return float64(ls.ladderMisses) }),
		"thermal.ladder_hit_ratio": 0,
		"workload.at_calls":        per(func(ls layerSample) float64 { return float64(ls.at) }),
		"workload.boundary_calls":  per(func(ls layerSample) float64 { return float64(ls.boundary) }),
		"core.usta.acts":           per(func(ls layerSample) float64 { return float64(ls.acts) }),
		"sink.samples":             per(func(ls layerSample) float64 { return float64(ls.samples) }),
	}
	if hits+misses > 0 {
		m["thermal.ladder_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return m
}

// tracedStage returns a stage runner recording each stage as a span under
// parent and summing its seconds into into.
func tracedStage(tr *Tracer, parent int64, into map[string]float64) func(string, func() error) error {
	return func(name string, fn func() error) error {
		t0 := time.Now()
		_, end := tr.Start(name, parent)
		err := fn()
		end()
		into[name] += time.Since(t0).Seconds()
		return err
	}
}

// fillMetrics stores m into res with the units PerLayer assigns.
func fillMetrics(res *Result, m map[string]float64) {
	for _, pl := range PerLayer {
		if v, ok := m[pl.Name]; ok {
			res.Metrics[pl.Name] = Metric{v, pl.Unit}
		}
	}
}

// writeTrace writes the traced run's spans to spansPath and its CPU profile
// beside it (.pprof, readable with go tool pprof), then prints each span
// name's total self time.
func writeTrace(out io.Writer, tr *Tracer, profile []byte, spansPath string) error {
	if err := tr.WriteFile(spansPath); err != nil {
		return err
	}
	profPath := strings.TrimSuffix(spansPath, filepath.Ext(spansPath)) + ".pprof"
	if err := os.WriteFile(profPath, profile, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s, CPU profile to %s\n", spansPath, profPath)
	self := tr.SelfTimes()
	fmt.Fprintln(out, "span self time (s, summed over the traced run):")
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(out, "  %-22s %10.4f\n", k, self[k])
	}
	return nil
}

func fmtSecs(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4f", v)
	}
	return fmt.Sprintf("[%s] s, median %.4f s", b.String(), median(vs))
}

// coldIteration runs one table1-cli iteration in a fresh child process and
// returns its in-process wall time and output digest.
func coldIteration(ctx context.Context, seed int64) (float64, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.CommandContext(ctx, exe, "--seed", fmt.Sprint(seed))
	cmd.Env = append(os.Environ(), childEnv+"=cold-iteration")
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return 0, "", err
	}
	var r struct {
		Seconds float64 `json:"seconds"`
		Digest  string  `json:"digest"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, "", fmt.Errorf("child output %q: %w", data, err)
	}
	return r.Seconds, r.Digest, nil
}

// childMain is the cold-iteration child: one table1-cli iteration, timed,
// its result printed as JSON.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ustabench-child", flag.ContinueOnError)
	seed := fs.Int64("seed", DefaultSeed, "input seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	bench, err := newSweepBench(ctx, "table1-cli", *seed, untimedStage)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustabench child:", err)
		return 1
	}
	t0 := time.Now()
	o, err := bench.runUntraced(ctx)
	sec := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustabench child:", err)
		return 1
	}
	json.NewEncoder(stdout).Encode(map[string]any{"seconds": sec, "digest": o.digest})
	return 0
}

// profiler is a running CPU profile captured in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// gcCPU is a runtime/metrics snapshot of cumulative GC and total CPU time.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

// fracSince is the share of CPU time spent in GC between two snapshots.
func (g gcCPU) fracSince(prev gcCPU) float64 {
	if g.total <= prev.total {
		return 0
	}
	return (g.gc - prev.gc) / (g.total - prev.total)
}
