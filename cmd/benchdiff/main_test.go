package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, units := parseLine("BenchmarkFleetRun/workers-4-16   \t 1\t  1052000000 ns/op\t       950.3 jobs/sec")
	if name != "BenchmarkFleetRun/workers-4-16" {
		t.Fatalf("name = %q (names are kept verbatim)", name)
	}
	if units["ns/op"] != 1052000000 || units["jobs/sec"] != 950.3 {
		t.Fatalf("units = %v", units)
	}
	if n, _ := parseLine("ok  \trepro\t12.3s"); n != "" {
		t.Fatalf("non-benchmark line parsed as %q", n)
	}
	if n, _ := parseLine("BenchmarkX"); n != "" {
		t.Fatal("truncated line should not parse")
	}
}

// TestMatchNamesSuffixFallback checks both match paths: exact names win
// (workers-1 vs workers-4 must never collapse), and a -GOMAXPROCS-shaped
// suffix difference still lines up when unambiguous.
func TestMatchNamesSuffixFallback(t *testing.T) {
	seed := metrics{
		"BenchmarkFleetRun/workers-1": {"ns/op": 1},
		"BenchmarkFleetRun/workers-4": {"ns/op": 2},
		"BenchmarkTable1":             {"ns/op": 3},
	}
	pr := metrics{
		"BenchmarkFleetRun/workers-1-16": {"ns/op": 1},
		"BenchmarkFleetRun/workers-4-16": {"ns/op": 2},
		"BenchmarkTable1-16":             {"ns/op": 3},
	}
	pairs := matchNames(seed, pr)
	want := map[string]string{
		"BenchmarkFleetRun/workers-1": "BenchmarkFleetRun/workers-1-16",
		"BenchmarkFleetRun/workers-4": "BenchmarkFleetRun/workers-4-16",
		"BenchmarkTable1":             "BenchmarkTable1-16",
	}
	for s, p := range want {
		if pairs[s] != p {
			t.Fatalf("pairs[%q] = %q want %q (all: %v)", s, pairs[s], p, pairs)
		}
	}
	// Same-host comparison: exact names, no cross-talk.
	pairs = matchNames(seed, seed)
	for s := range seed {
		if pairs[s] != s {
			t.Fatalf("self-match broke: %v", pairs)
		}
	}

	// Both sides suffixed with different core counts must still line up.
	seed8 := metrics{
		"BenchmarkFleetRun/workers-1-8": {"ns/op": 1},
		"BenchmarkTable1-8":             {"ns/op": 3},
	}
	pairs = matchNames(seed8, pr)
	if pairs["BenchmarkFleetRun/workers-1-8"] != "BenchmarkFleetRun/workers-1-16" ||
		pairs["BenchmarkTable1-8"] != "BenchmarkTable1-16" {
		t.Fatalf("cross-core-count match failed: %v", pairs)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	seed := metrics{
		"BenchmarkFleetRun/workers-4": {"ns/op": 1e9, "jobs/sec": 950, "peak-C": 38.2},
		"BenchmarkTable1":             {"ns/op": 82e6},
		"BenchmarkOnlyInSeed":         {"ns/op": 1},
	}
	pr := metrics{
		"BenchmarkFleetRun/workers-4": {"ns/op": 1.1e9, "jobs/sec": 500, "peak-C": 45.0},
		"BenchmarkTable1":             {"ns/op": 80e6},
	}
	var out strings.Builder
	n, _ := compare(seed, pr, 0.25, gateSpec{}, &out)
	// jobs/sec fell 47% → regression; ns/op rose only 10% → fine; peak-C
	// is a domain metric and must be ignored entirely.
	if n != 1 {
		t.Fatalf("regressions = %d want 1\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "✗ ") || !strings.Contains(out.String(), "jobs/sec") {
		t.Fatalf("output does not flag the jobs/sec regression:\n%s", out.String())
	}
	if strings.Contains(out.String(), "peak-C") {
		t.Fatalf("domain metric compared:\n%s", out.String())
	}

	// Within threshold: no regressions.
	pr["BenchmarkFleetRun/workers-4"]["jobs/sec"] = 900
	out.Reset()
	if n, _ := compare(seed, pr, 0.25, gateSpec{}, &out); n != 0 {
		t.Fatalf("regressions = %d want 0\n%s", n, out.String())
	}
}

// TestCompareFailOnRegressGate pins the -fail-on-regress hard gate: only
// benchmarks whose names contain the match substring count, the gate's
// threshold is independent of the warn threshold, and improvements or
// within-threshold noise never trip it.
func TestCompareFailOnRegressGate(t *testing.T) {
	seed := metrics{
		"BenchmarkFleetRun/workers-4": {"jobs/sec": 1000, "ns/op": 1e9},
		"BenchmarkTable1":             {"ns/op": 100e6},
	}
	pr := metrics{
		"BenchmarkFleetRun/workers-4": {"jobs/sec": 800, "ns/op": 1.25e9}, // -20% / +25%
		"BenchmarkTable1":             {"ns/op": 150e6},                   // +50%, outside the match
	}
	var out strings.Builder
	_, gated := compare(seed, pr, 0.25, gateSpec{pct: 15, match: "BenchmarkFleetRun"}, &out)
	// jobs/sec fell 20% and ns/op rose 25%, both past the 15% gate; the
	// 50% Table1 regression is outside the match.
	if gated != 2 {
		t.Fatalf("gated = %d want 2\n%s", gated, out.String())
	}
	if !strings.Contains(out.String(), "✗!") {
		t.Fatalf("gate marker missing:\n%s", out.String())
	}

	// A looser gate ignores the 20% drop; zero pct disables the gate.
	out.Reset()
	if _, gated := compare(seed, pr, 0.25, gateSpec{pct: 30, match: "BenchmarkFleetRun"}, &out); gated != 0 {
		t.Fatalf("30%% gate tripped on a 25%% regression: %d\n%s", gated, out.String())
	}
	if _, gated := compare(seed, pr, 0.25, gateSpec{}, &out); gated != 0 {
		t.Fatalf("disabled gate tripped: %d", gated)
	}

	// A comma-separated match list gates every listed substring.
	seed["BenchmarkEventRun/jump"] = map[string]float64{"sim-sec/sec": 4000}
	pr["BenchmarkEventRun/jump"] = map[string]float64{"sim-sec/sec": 3000} // -25%
	out.Reset()
	_, gated = compare(seed, pr, 0.25, gateSpec{pct: 15, match: "BenchmarkFleetRun,BenchmarkEventRun"}, &out)
	// FleetRun's two metrics plus EventRun's rate drop; Table1 still outside.
	if gated != 3 {
		t.Fatalf("list gate = %d want 3\n%s", gated, out.String())
	}

	// Empty match gates everything, improvements stay clean.
	pr["BenchmarkFleetRun/workers-4"] = map[string]float64{"jobs/sec": 1200, "ns/op": 0.8e9}
	delete(seed, "BenchmarkEventRun/jump")
	delete(pr, "BenchmarkEventRun/jump")
	out.Reset()
	_, gated = compare(seed, pr, 0.25, gateSpec{pct: 15}, &out)
	if gated != 1 { // only Table1's +50% remains
		t.Fatalf("empty-match gate = %d want 1\n%s", gated, out.String())
	}
}

// TestCompareReportsNewBenchmarks pins the "new bench" path: a PR-side
// benchmark missing from the seed shows up as an informational line, never
// as a regression — and never errors out, even when nothing matches.
func TestCompareReportsNewBenchmarks(t *testing.T) {
	seed := metrics{
		"BenchmarkFleetRun/workers-1": {"ns/op": 1e9, "jobs/sec": 900},
	}
	pr := metrics{
		"BenchmarkFleetRun/workers-1": {"ns/op": 1e9, "jobs/sec": 905},
		"BenchmarkFleetRun/batched":   {"ns/op": 5e8, "jobs/sec": 1800, "peak-C": 38.0},
	}
	var out strings.Builder
	if n, _ := compare(seed, pr, 0.25, gateSpec{}, &out); n != 0 {
		t.Fatalf("new benchmark counted as regression:\n%s", out.String())
	}
	text := out.String()
	if !strings.Contains(text, "+ BenchmarkFleetRun/batched") || !strings.Contains(text, "new, no baseline") {
		t.Fatalf("new benchmark not reported:\n%s", text)
	}
	if strings.Contains(text, "peak-C") {
		t.Fatalf("domain metric of a new benchmark reported:\n%s", text)
	}

	// Disjoint files: the new-bench lines still print alongside the
	// no-common-benchmarks note instead of erroring out.
	out.Reset()
	if n, _ := compare(metrics{"BenchmarkGone": {"ns/op": 1}}, metrics{"BenchmarkNew": {"ns/op": 2}}, 0.25, gateSpec{}, &out); n != 0 {
		t.Fatalf("disjoint compare flagged regressions:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no common benchmarks") || !strings.Contains(out.String(), "+ BenchmarkNew") {
		t.Fatalf("disjoint compare output wrong:\n%s", out.String())
	}
}

// TestCompareReportsGoneBenchmarks mirrors the new-bench lines: a baseline
// benchmark missing from the PR run (deleted or renamed) prints an
// informational "gone" line per perf metric, never a regression and never
// a gate trip, and a benchmark matched modulo a GOMAXPROCS suffix is not
// reported gone.
func TestCompareReportsGoneBenchmarks(t *testing.T) {
	seed := metrics{
		"BenchmarkFleetRun/workers-1":  {"ns/op": 1e9, "jobs/sec": 900},
		"BenchmarkFleetRun/retired":    {"ns/op": 5e8, "jobs/sec": 1800, "peak-C": 38.0},
		"BenchmarkPropagatorAdvance-8": {"ns/op": 140},
	}
	pr := metrics{
		"BenchmarkFleetRun/workers-1": {"ns/op": 1e9, "jobs/sec": 905},
		"BenchmarkPropagatorAdvance":  {"ns/op": 141},
	}
	var out strings.Builder
	n, gated := compare(seed, pr, 0.25, gateSpec{pct: 15, match: "BenchmarkFleetRun"}, &out)
	if n != 0 || gated != 0 {
		t.Fatalf("gone benchmark counted: %d regressions, %d gated:\n%s", n, gated, out.String())
	}
	text := out.String()
	for _, want := range []string{"- BenchmarkFleetRun/retired", "jobs/sec", "ns/op", "gone, not in this run"} {
		if !strings.Contains(text, want) {
			t.Fatalf("gone benchmark line missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "(gone, not in this run)"); got != 2 {
		t.Fatalf("%d gone lines, want 2 (jobs/sec and ns/op of the retired bench):\n%s", got, text)
	}
	if strings.Contains(text, "peak-C") {
		t.Fatalf("domain metric of a gone benchmark reported:\n%s", text)
	}
	if strings.Contains(text, "- BenchmarkPropagatorAdvance") {
		t.Fatalf("suffix-matched benchmark reported gone:\n%s", text)
	}
}
