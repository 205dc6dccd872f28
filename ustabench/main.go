// Command ustabench is the repository's end-to-end benchmark. It runs one
// named workload through the public entry points for a fixed wall-clock
// budget, checks the outputs, and prints every metric by name with its
// unit; the last line of standard output is one JSON result object.
//
//	bash ustabench/run.sh --workload table1-cli --seed 42 --seconds 30 --trace 0
//
// Workloads:
//
//	table1-cli       the paper's Table 1 sweep exactly as `ustasim -scenario`
//	                 runs it (self-trained predictor, fixed-tick engine)
//	population-jump  10 users × 13 workloads × 3 ambients × {baseline, USTA}
//	                 on the jump engine with a shared predictor
//	fleetd-mixed     the ustafleetd job server + one worker daemon over
//	                 loopback, fed a seeded open-loop Poisson job mix
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// runs the workload untraced for half the budget and traced for the other
// half, reports the per-layer metrics (spans and counters recorded around
// each layer's public calls, plus a CPU profile attributed by package),
// and writes the spans to --spans. See ustabench/BENCHMARK.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// EndToEnd lists the end-to-end metrics every untraced run reports, with
// their units (BENCHMARK.json's end_to_end, in order).
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"peak_rss_mb", "MB"},
}

// PerLayer lists the per-layer metrics every traced run reports
// (BENCHMARK.json's per_layer, in order). A layer a workload does not
// exercise from the benchmark's side reports 0.
var PerLayer = perLayerMetrics()

func perLayerMetrics() []struct{ Name, Unit string } {
	m := []struct{ Name, Unit string }{
		{"core.corpus_s", "s"},
		{"core.corpus_records", "count"},
		{"ml.tree.fit_s", "s"},
		{"scenario.expand_s", "s"},
		{"analytics.aggregate_s", "s"},
		{"fleet.sweep_s", "s"},
		{"fleet.cells", "count"},
		{"fleet.cell_p50_ms", "ms"},
		{"fleet.cell_tail_ms", "ms"},
		{"fleet.worker_idle_frac", "ratio"},
		{"device.sim_s_per_cell_s", "s/s"},
		{"thermal.ladder_hits", "count"},
		{"thermal.ladder_misses", "count"},
		{"thermal.ladder_hit_ratio", "ratio"},
		{"workload.at_calls", "count"},
		{"workload.boundary_calls", "count"},
		{"core.usta.acts", "count"},
		{"sink.samples", "count"},
	}
	for _, l := range CPULayerNames() {
		m = append(m, struct{ Name, Unit string }{l + ".cpu_frac", "ratio"})
	}
	return append(m, []struct{ Name, Unit string }{
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"fleet.net.ack_p50_ms", "ms"},
		{"fleet.net.ack_tail_ms", "ms"},
		{"fleet.net.exec_p50_s.baseline", "s"},
		{"fleet.net.exec_p50_s.usta", "s"},
		{"fleet.durable.wal_bytes_per_job", "B"},
		{"fleet.wire.bytes_per_cell", "B"},
		{"fleet.net.redials", "count"},
		{"fleet.net.hedges", "count"},
		{"obs.scrape_p50_ms", "ms"},
		{"loadgen.late_max_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}...)
}

// Workloads names the runnable workloads.
var Workloads = []string{"table1-cli", "population-jump", "fleetd-mixed"}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is where the traced run writes its span file.
	spans string
	// workDir holds the service workload's WAL state dirs.
	workDir string
	// setupReps is how many times set-up is repeated (setup_s is the median).
	setupReps int
	// rate is fleetd-mixed's arrival rate in jobs per second.
	rate float64
	// minIters is the fewest timed iterations a sweep loop makes.
	minIters int
}

// DefaultRate is fleetd-mixed's open-loop arrival rate (jobs/s), about a
// third of the capacity measured on a 2-vCPU host; see BENCHMARK.md.
const DefaultRate = 1.0

// SetupReps is how many times a run sets up; setup_s is their median.
const SetupReps = 3

// childEnv selects a child mode of the binary (table1-cli's cold set-up
// iterations run in fresh processes).
const childEnv = "USTABENCH_CHILD"

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ustabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(Workloads, ", "))
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "input seed (the default reproduces examples/sweep/table1.json)")
	fs.Float64Var(&o.seconds, "seconds", 30, "wall-clock seconds the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "traced run's span file (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case !slices.Contains(Workloads, o.workload):
		fmt.Fprintf(stderr, "ustabench: unknown --workload %q (want one of %s)\n", o.workload, strings.Join(Workloads, ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "ustabench: --trace must be 0 or 1\n")
		return 2
	case !(o.seconds > 0):
		fmt.Fprintf(stderr, "ustabench: --seconds must be positive\n")
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	o.workDir = ".bench_build"
	o.setupReps, o.rate, o.minIters = SetupReps, DefaultRate, 3

	res, err := run(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ustabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run executes one workload and returns its result line.
func run(ctx context.Context, o options, out io.Writer) (*Result, error) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	var (
		res *Result
		err error
	)
	if o.workload == "fleetd-mixed" {
		res, err = runService(ctx, o, out)
	} else {
		res, err = runSweepWorkload(ctx, o, out)
	}
	if err != nil {
		return nil, err
	}
	want := EndToEnd
	if o.trace {
		want = PerLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite: %+v", m.Name, got)
		}
	}
	if o.trace {
		fmt.Fprintln(out, "per-layer metrics:")
	} else {
		fmt.Fprintln(out, "end-to-end metrics:")
	}
	for _, m := range want {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(out, "fail_frac %g ratio (%d failed of %d attempted)\ncorrect %v\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, res.Correct)
	return res, nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
