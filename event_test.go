package repro_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro"
)

// eventExec runs the reduced Table 1 scenario under the given options and
// returns results plus the telemetry fingerprint.
func eventExec(t *testing.T, label string, traceFree bool, opts ...repro.ScenarioOption) ([]repro.JobResult, *countingSink) {
	t.Helper()
	spec, err := repro.LoadScenario(table1SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceFree = traceFree
	cs := newCountingSink()
	res, err := repro.RunScenario(context.Background(), spec,
		append([]repro.ScenarioOption{
			repro.ScenarioPredictor(scenarioPipeline().Predictor()),
			repro.ScenarioSink(cs),
		}, opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res.Results, cs
}

// requireRunsIdentical asserts byte-identity across two scenario runs:
// every aggregate cell, every trace cell, and the telemetry fingerprint.
func requireRunsIdentical(t *testing.T, label string, got, want []repro.JobResult, gotSink, wantSink *countingSink) {
	t.Helper()
	bits := math.Float64bits
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Result, want[i].Result
		if got[i].SeedUsed != want[i].SeedUsed || got[i].Name != want[i].Name {
			t.Fatalf("%s: job %d identity diverged", label, i)
		}
		cells := [][2]float64{
			{g.MaxSkinC, w.MaxSkinC}, {g.MaxScreenC, w.MaxScreenC},
			{g.MaxDieC, w.MaxDieC}, {g.MaxBatteryC, w.MaxBatteryC},
			{g.AvgFreqMHz, w.AvgFreqMHz}, {g.AvgUtil, w.AvgUtil},
			{g.EnergyJ, w.EnergyJ}, {g.WorkDone, w.WorkDone},
			{g.WorkDemanded, w.WorkDemanded}, {g.StartSoC, w.StartSoC},
			{g.EndSoC, w.EndSoC},
		}
		for ci, c := range cells {
			if bits(c[0]) != bits(c[1]) {
				t.Fatalf("%s: job %d cell %d = %v, reference %v", label, i, ci, c[0], c[1])
			}
		}
		if (g.Trace == nil) != (w.Trace == nil) {
			t.Fatalf("%s: job %d trace presence diverged", label, i)
		}
		if g.Trace != nil {
			if g.Trace.Len() != w.Trace.Len() {
				t.Fatalf("%s: job %d trace rows %d vs %d", label, i, g.Trace.Len(), w.Trace.Len())
			}
			for ti := range g.Trace.TimeSec {
				if bits(g.Trace.TimeSec[ti]) != bits(w.Trace.TimeSec[ti]) {
					t.Fatalf("%s: job %d time axis row %d diverged", label, i, ti)
				}
			}
			for si, gs := range g.Trace.Series {
				ws := w.Trace.Series[si]
				for ri := range gs.Values {
					if bits(gs.Values[ri]) != bits(ws.Values[ri]) {
						t.Fatalf("%s: job %d trace %s row %d = %v, reference %v",
							label, i, gs.Name, ri, gs.Values[ri], ws.Values[ri])
					}
				}
			}
		}
	}
	for i := range want {
		if gotSink.counts[i] != wantSink.counts[i] || gotSink.sums[i] != wantSink.sums[i] {
			t.Fatalf("%s: job %d telemetry diverged: %d samples / sum %v, reference %d / %v",
				label, i, gotSink.counts[i], gotSink.sums[i], wantSink.counts[i], wantSink.sums[i])
		}
		if wantSink.counts[i] == 0 {
			t.Fatalf("job %d delivered no samples", i)
		}
	}
}

// TestEventJumpRunnerInvariance pins the jump engine's determinism
// contract: the mode changes the numbers relative to the fixed-tick
// reference (held-input discretization), but those numbers must not depend on the
// runner shape or parallelism — local at 1 worker, local at GOMAXPROCS
// and sharded all byte-identical.
func TestEventJumpRunnerInvariance(t *testing.T) {
	ref, refSink := eventExec(t, "jump w1", false,
		repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventJump))

	got, gotSink := eventExec(t, "jump wN", false,
		repro.ScenarioWorkers(runtime.GOMAXPROCS(0)), repro.ScenarioEventMode(repro.EventJump))
	requireRunsIdentical(t, "jump wN", got, ref, gotSink, refSink)

	got, gotSink = eventExec(t, "jump sharded", false,
		repro.ScenarioEventMode(repro.EventJump), repro.ScenarioShards(2))
	requireRunsIdentical(t, "jump sharded", got, ref, gotSink, refSink)
}

// TestEventJumpCloseToOracleTable1 bounds the held-input discretization
// on the full grid, controllers included: peak temperatures within a
// small fraction of a kelvin, energy and duty-cycle aggregates within a
// small relative error. USTA runs may legitimately quantize an occasional
// clamp decision differently (the controller reads binned sensor
// records), which is why this plane is a tolerance, not an identity. The
// bands are about twice the measured worst case, rounded up: on the
// reduced grid the largest differences are 0.0436 °C on a peak and 5.0e-4
// relative, both on antutu-cpu-90min under USTA, with or without the
// charging cell folded.
func TestEventJumpCloseToOracleTable1(t *testing.T) {
	ref, _ := eventExec(t, "off", true, repro.ScenarioWorkers(1))
	got, _ := eventExec(t, "jump", true,
		repro.ScenarioWorkers(1), repro.ScenarioEventMode(repro.EventJump))

	const tempTol = 0.1 // °C on peaks
	const relTol = 1e-3 // on energy / frequency / utilization aggregates
	rel := func(a, b float64) float64 {
		d := math.Abs(b)
		if d < 1 {
			d = 1
		}
		return math.Abs(a-b) / d
	}
	for i := range ref {
		g, w := got[i].Result, ref[i].Result
		temps := [][2]float64{
			{g.MaxSkinC, w.MaxSkinC}, {g.MaxScreenC, w.MaxScreenC},
			{g.MaxDieC, w.MaxDieC}, {g.MaxBatteryC, w.MaxBatteryC},
		}
		for ci, c := range temps {
			if d := math.Abs(c[0] - c[1]); d > tempTol {
				t.Errorf("job %d (%s) temp cell %d off by %.4f °C (jump %.4f, off %.4f)",
					i, ref[i].Name, ci, d, c[0], c[1])
			}
		}
		rels := [][2]float64{
			{g.EnergyJ, w.EnergyJ}, {g.AvgFreqMHz, w.AvgFreqMHz},
			{g.AvgUtil, w.AvgUtil}, {g.WorkDone, w.WorkDone}, {g.EndSoC, w.EndSoC},
		}
		for ci, c := range rels {
			if d := rel(c[0], c[1]); d > relTol {
				t.Errorf("job %d (%s) aggregate cell %d rel err %.4f (jump %v, off %v)",
					i, ref[i].Name, ci, d, c[0], c[1])
			}
		}
	}
}
