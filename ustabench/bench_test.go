package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary when
// table1-cli's set-up re-executes itself as a cold-iteration child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// smoke runs a workload at a tiny size and checks that every metric of the
// mode prints with its unit and that the output checks pass.
func smoke(t *testing.T, workload string, trace bool) {
	t.Helper()
	dir := t.TempDir()
	o := options{workload: workload, seed: DefaultSeed, seconds: 0.1, trace: trace,
		spans: filepath.Join(dir, "spans.json"), workDir: dir, setupReps: 1, rate: 4, minIters: 1}
	if workload == "fleetd-mixed" {
		o.seconds = 1
	}
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("checks failed: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	want := EndToEnd
	if trace {
		want = PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want exactly %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got := res.Metrics[m.Name]; got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("metric %s not printed", m.Name)
		}
	}
	if !trace {
		for _, m := range EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
			}
		}
		return
	}
	data, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %v (%d spans)", err, len(doc.Spans))
	}
}

func TestSmokeTable1CLI(t *testing.T) {
	smoke(t, "table1-cli", false)
	smoke(t, "table1-cli", true)
}

func TestSmokePopulationJump(t *testing.T) {
	smoke(t, "population-jump", false)
	smoke(t, "population-jump", true)
}

func TestSmokeFleetdMixed(t *testing.T) {
	smoke(t, "fleetd-mixed", false)
	smoke(t, "fleetd-mixed", true)
}

// TestInputsArePureFunctionsOfSeed pins that the generated specs and the
// arrival schedule depend on the seed alone.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	type inputs struct {
		table1, population *scenario.Spec
		service            []*scenario.Spec
		arrivals           []Arrival
	}
	gen := func(seed int64) inputs {
		in := inputs{table1: Table1Spec(seed), population: PopulationSpec(seed),
			arrivals: Arrivals(seed, DefaultRate, 30)}
		for _, k := range Kinds {
			in.service = append(in.service, ServiceSpec(seed, k))
		}
		return in
	}
	for _, seed := range []int64{DefaultSeed, ConfirmSeed, 1} {
		if a, b := gen(seed), gen(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	a, b := gen(1), gen(2)
	if reflect.DeepEqual(a.table1, b.table1) || reflect.DeepEqual(a.population, b.population) ||
		reflect.DeepEqual(a.service, b.service) || reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Fatal("different seeds generated an identical input")
	}
	arr := Arrivals(3, 2, 10)
	if len(arr) != 20 {
		t.Fatalf("%d arrivals at 2/s over 10 s, want 20", len(arr))
	}
	kinds := map[string]int{}
	for i, x := range arr {
		if x.AtSec < 0 || x.AtSec >= 10 || (i > 0 && x.AtSec < arr[i-1].AtSec) {
			t.Fatalf("arrival %d at %v s: outside [0,10) or out of order", i, x.AtSec)
		}
		kinds[x.Kind]++
	}
	if kinds[KindBaseline] != kinds[KindUSTA] {
		t.Fatalf("job mix %v, want 1:1", kinds)
	}
}

// TestDefaultSeedReproducesTable1Example pins table1-cli's default-seed
// spec to the shipped examples/sweep/table1.json.
func TestDefaultSeedReproducesTable1Example(t *testing.T) {
	want, err := scenario.Load(filepath.Join("..", "examples", "sweep", "table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	want.Description = ""
	if got := Table1Spec(DefaultSeed); !reflect.DeepEqual(got, want) {
		t.Fatalf("Table1Spec(%d) = %+v\nwant %+v", DefaultSeed, got, want)
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's workload and metric
// lists to the ones the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, Workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", b.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", b.PerLayer, PerLayer)
	}
}

func TestTailRule(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i)
	}
	for _, c := range []struct{ n, pct int }{{100, 90}, {30, 66}, {12, 50}} {
		if got := tailOf(vs[:c.n]); got.Pct != c.pct || got.N != c.n {
			t.Errorf("tailOf(%d samples) = %v, want p%d", c.n, got, c.pct)
		}
	}
}

// spin burns CPU in this package so the profile has a known owner.
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	return x
}

func TestCPUFractionsDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	fr, err := cpuFractions(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range CPULayerNames() {
		total += fr[l]
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fractions sum to %v: %v", total, fr)
	}
	if fr["bench"] < 0.5 {
		t.Fatalf("a busy loop in package main got bench.cpu_frac %v: %v", fr["bench"], fr)
	}
	if got := packageOf("repro/internal/thermal.(*Ladder).AdvanceComposite"); got != "repro/internal/thermal" {
		t.Errorf("packageOf = %q", got)
	}
	if got := packageOf("sync/atomic.(*Pointer[repro/internal/x.T]).Load"); got != "sync/atomic" {
		t.Errorf("packageOf generic = %q", got)
	}
}
