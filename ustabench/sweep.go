package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// sweepBench is one sweep workload: a fixed spec run on an engine, either
// self-training its predictor every iteration (pred nil, table1-cli) or
// sharing one trained in set-up (population-jump).
type sweepBench struct {
	spec    *scenario.Spec
	event   device.EventMode
	pred    *core.Predictor
	workers int
	// table1 marks the Table 1 grid, whose cells are scored against the
	// paper's published peak skin temperatures.
	table1 bool
}

// iterOut is what one sweep iteration produced.
type iterOut struct {
	digest  string
	cells   int
	failed  int
	skinErr float64 // mean |sim − paper| peak skin over the cells (NaN unless table1)
}

// runUntraced runs one iteration exactly as `ustasim -scenario` does:
// repro.RunScenario, then the comfort and scheme-delta aggregates.
func (b *sweepBench) runUntraced(ctx context.Context) (iterOut, error) {
	opts := []repro.ScenarioOption{repro.ScenarioWorkers(b.workers)}
	if b.pred != nil {
		opts = append(opts, repro.ScenarioPredictor(b.pred))
	}
	if b.event != device.EventOff {
		opts = append(opts, repro.ScenarioEventMode(b.event))
	}
	res, err := repro.RunScenario(ctx, b.spec, opts...)
	if err != nil {
		return iterOut{}, err
	}
	return b.summarize(res.Stats)
}

// layerSample is one traced iteration's per-layer measurements.
type layerSample struct {
	stage                       map[string]float64 // span name → seconds
	corpusRecords               int
	cells                       int
	cellSec                     []float64
	cellSumSec, simSec          float64
	sweepSec                    float64
	at, boundary, acts, samples int64
	ladderHits, ladderMisses    uint64
}

// runTraced runs one iteration through the same stages RunScenario uses,
// calling each layer's public entry point directly so spans and counters
// can sit at the layer boundaries: corpus → REPTree fit → grid expansion →
// fleet sweep → analytics.
func (b *sweepBench) runTraced(ctx context.Context, tr *Tracer, parent int64) (iterOut, layerSample, error) {
	ls := layerSample{stage: map[string]float64{}}
	_, hits0, misses0 := thermal.LadderCacheStats()
	stage := tracedStage(tr, parent, ls.stage)
	devCfg := repro.DefaultDeviceConfig()
	pred := b.pred
	if pred == nil && b.spec.NeedsPredictor() {
		var err error
		if pred, ls.corpusRecords, err = trainPredictor(ctx, b.spec, devCfg, b.workers, stage); err != nil {
			return iterOut{}, ls, err
		}
	}
	var grid *scenario.Grid
	if err := stage("scenario.expand", func() (err error) {
		grid, err = b.spec.Expand(scenario.Env{Device: &devCfg, Predictor: pred})
		return err
	}); err != nil {
		return iterOut{}, ls, err
	}

	probe := newCellProbe(len(grid.Jobs))
	var vs *analytics.ViolationSink
	cfg := fleet.Config{
		Workers: b.workers,
		Seed:    b.spec.Seeds.Base,
		Event:   b.event,
		OnResult: func(r fleet.JobResult) {
			probe.endNS[r.Index] = tr.Now()
		},
	}
	if b.spec.TraceFree {
		vs = analytics.NewViolationSink(grid.Limits())
		cfg.Sink = probe.wrapSink(vs)
	}
	jobs := probe.wrapJobs(tr, grid.Jobs)
	sweepID, endSweep := tr.Start("fleet.sweep", parent)
	t0 := time.Now()
	results := fleet.New(cfg).Run(ctx, jobs)
	ls.sweepSec = time.Since(t0).Seconds()
	endSweep()
	_, hits1, misses1 := thermal.LadderCacheStats()
	ls.ladderHits, ls.ladderMisses = hits1-hits0, misses1-misses0
	ls.stage["fleet.sweep"] += ls.sweepSec

	ls.cells = len(results)
	ls.cellSec = make([]float64, len(results))
	for i, r := range results {
		tr.Add(Span{ID: tr.NewID(), Parent: sweepID, Name: "fleet.cell", StartNS: probe.startNS[i], EndNS: probe.endNS[i]})
		ls.cellSec[i] = float64(probe.endNS[i]-probe.startNS[i]) / 1e9
		ls.cellSumSec += ls.cellSec[i]
		if r.Result != nil {
			ls.simSec += r.Result.DurSec
		}
		jc := &probe.jobs[i]
		ls.at += jc.at
		ls.boundary += jc.boundary
		ls.acts += jc.acts
		ls.samples += jc.samples
	}

	for name, v := range map[string]int64{"workload.at_calls": ls.at, "workload.boundary_calls": ls.boundary,
		"core.usta.acts": ls.acts, "sink.samples": ls.samples, "fleet.cells": int64(ls.cells),
		"thermal.ladder_hits": int64(ls.ladderHits), "thermal.ladder_misses": int64(ls.ladderMisses)} {
		tr.Count(name, float64(v))
	}

	var out iterOut
	err := stage("analytics.aggregate", func() error {
		stats, err := analytics.Flatten(grid, results)
		if err != nil {
			return err
		}
		if vs != nil {
			vs.Apply(stats)
		}
		out, err = b.summarize(stats)
		return err
	})
	return out, ls, err
}

// trainPredictor self-trains the sweep's predictor exactly as RunScenario
// does — the thirteen benchmarks on the stock phone, REPTree on the log —
// timing corpus collection and the fit as separate stages.
func trainPredictor(ctx context.Context, spec *scenario.Spec, devCfg device.Config, workers int,
	stage func(string, func() error) error) (*core.Predictor, int, error) {
	corpusSeed := spec.Predictor.CorpusSeed
	if corpusSeed == 0 {
		corpusSeed = 42
	}
	var corpus []repro.Record
	if err := stage("core.corpus", func() error {
		bs := workload.Benchmarks(corpusSeed)
		loads := make([]workload.Workload, len(bs))
		for i, w := range bs {
			loads[i] = w
		}
		var err error
		corpus, err = core.CollectCorpusContext(ctx, devCfg, loads, spec.Predictor.CorpusPerRunSec, workers)
		return err
	}); err != nil {
		return nil, 0, fmt.Errorf("corpus: %w", err)
	}
	var pred *core.Predictor
	if err := stage("ml.tree.fit", func() (err error) {
		pred, err = core.Train(corpus, nil)
		return err
	}); err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	return pred, len(corpus), nil
}

// untimedStage runs a stage without recording it.
func untimedStage(_ string, fn func() error) error { return fn() }

// summarize digests an iteration's aggregates: the comfort and
// scheme-delta CSV bytes `ustasim -scenario -csv` would write.
func (b *sweepBench) summarize(stats []analytics.JobStat) (iterOut, error) {
	out := iterOut{cells: len(stats), skinErr: math.NaN()}
	for _, st := range stats {
		if st.Err != nil {
			out.failed++
		}
	}
	var buf bytes.Buffer
	if err := analytics.WriteComfortCSV(&buf, analytics.ComfortByUser(stats)); err != nil {
		return out, err
	}
	if s := b.spec.Schemes; len(s) >= 2 {
		deltas, err := analytics.CompareSchemes(stats, s[0].Label(), s[1].Label())
		if err != nil {
			return out, err
		}
		if err := analytics.WriteDeltasCSV(&buf, deltas); err != nil {
			return out, err
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	if b.table1 {
		out.skinErr = table1SkinErr(stats)
	}
	return out, nil
}

// table1SkinErr is the mean |simulated − published| peak skin temperature
// over the Table 1 cells, against experiments.PaperTable1 — the only
// reference data the repository has.
func table1SkinErr(stats []analytics.JobStat) float64 {
	var total float64
	n := 0
	for _, st := range stats {
		base, usta, ok := experiments.PaperTable1(st.Workload)
		if !ok || st.Result == nil {
			continue
		}
		ref := base.MaxSkinC
		if st.Scheme == "usta" {
			ref = usta.MaxSkinC
		}
		total += math.Abs(st.Result.MaxSkinC - ref)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// newSweepBench builds a sweep workload's bench for a seed. For
// population-jump that includes training the shared predictor, which is
// part of its set-up.
func newSweepBench(ctx context.Context, name string, seed int64, stage func(string, func() error) error) (*sweepBench, error) {
	workers := runtime.NumCPU()
	switch name {
	case "table1-cli":
		return &sweepBench{spec: Table1Spec(seed), event: device.EventOff, workers: workers, table1: true}, nil
	case "population-jump":
		spec := PopulationSpec(seed)
		pred, _, err := trainPredictor(ctx, spec, repro.DefaultDeviceConfig(), workers, stage)
		if err != nil {
			return nil, err
		}
		return &sweepBench{spec: spec, event: device.EventJump, pred: pred, workers: workers}, nil
	}
	return nil, fmt.Errorf("not a sweep workload: %q", name)
}
