package main

import (
	"math"
	"math/rand"

	"repro/internal/scenario"
	"repro/internal/users"
)

// DefaultSeed reproduces examples/sweep/table1.json exactly for table1-cli
// (corpus seed 42, workload seed 342, indexed device seeds from base 300).
const DefaultSeed = 42

// ConfirmSeed is reserved for confirming a later performance claim on a
// seed the change was not developed against.
const ConfirmSeed = 7919

// seedsFor derives every scenario seed of a workload from the one benchmark
// seed: the corpus seed is the seed itself, workload construction runs at
// seed+300 and device seeding at base seed+258, the offsets that map the
// default seed onto the Table 1 example file.
func seedsFor(seed int64, policy string) (scenario.Seeds, scenario.PredictorSpec) {
	return scenario.Seeds{Policy: policy, Base: seed + 258, Workload: uint64(seed + 300)},
		scenario.PredictorSpec{CorpusSeed: uint64(seed)}
}

// Table1Spec is the paper's Table 1 grid: thirteen workloads × {baseline,
// USTA@37 °C}, full duration, traced, self-trained predictor.
func Table1Spec(seed int64) *scenario.Spec {
	seeds, pred := seedsFor(seed, "indexed")
	return &scenario.Spec{
		Version:   scenario.Version,
		Name:      "table1",
		Workloads: []string{"all"},
		Schemes: []scenario.Scheme{
			{Name: "baseline"},
			{Name: "usta", Controller: "usta", LimitC: users.DefaultLimitC},
		},
		Seeds:     seeds,
		Predictor: pred,
	}
}

// PopulationAmbientsC is population-jump's ambient axis in °C.
var PopulationAmbientsC = []float64{20, 25, 30}

// PopulationSpec is the population sweep: the ten study users × thirteen
// workloads × three ambients × {baseline, USTA at each user's own limit},
// full duration and trace-free.
func PopulationSpec(seed int64) *scenario.Spec {
	seeds, pred := seedsFor(seed, "derived")
	return &scenario.Spec{
		Version:    scenario.Version,
		Name:       "population-jump",
		Workloads:  []string{"all"},
		Population: []string{"all"},
		AmbientsC:  PopulationAmbientsC,
		Schemes: []scenario.Scheme{
			{Name: "baseline"},
			{Name: "usta", Controller: "usta"},
		},
		Seeds:     seeds,
		Predictor: pred,
		TraceFree: true,
	}
}

// Job kinds of the fleetd-mixed service workload.
const (
	KindBaseline = "baseline"
	KindUSTA     = "usta"
)

// Kinds lists the service job kinds in arrival-alternation order.
var Kinds = []string{KindBaseline, KindUSTA}

// ServiceSpec is the scenario one fleetd-mixed job of the given kind
// submits. Baseline jobs are trace-free what-if sweeps over the ten users
// and four workloads at quarter duration (40 cells, no predictor); USTA jobs
// run skype and game at quarter duration under USTA@37 °C and make the
// server self-train a predictor for every job.
func ServiceSpec(seed int64, kind string) *scenario.Spec {
	seeds, pred := seedsFor(seed, "derived")
	spec := &scenario.Spec{
		Version:   scenario.Version,
		Duration:  scenario.Duration{Scale: 0.25},
		Seeds:     seeds,
		TraceFree: true,
	}
	switch kind {
	case KindBaseline:
		spec.Name = "fleetd-baseline"
		spec.Workloads = []string{"skype", "game", "youtube", "antutu-cpu"}
		spec.Population = []string{"all"}
	case KindUSTA:
		spec.Name = "fleetd-usta"
		spec.Workloads = []string{"skype", "game"}
		spec.Schemes = []scenario.Scheme{{Name: "usta", Controller: "usta", LimitC: users.DefaultLimitC}}
		spec.Predictor = pred
	default:
		panic("ustabench: unknown service job kind " + kind)
	}
	return spec
}

// Arrival is one scheduled service submission.
type Arrival struct {
	// AtSec is when the submission is due, from the start of the timed loop.
	AtSec float64
	// Kind is the job kind (KindBaseline or KindUSTA).
	Kind string
}

// arrivalsPerStratum is how many submissions each stratum of the arrival
// window holds; see Arrivals.
const arrivalsPerStratum = 2

// Arrivals is the open-loop schedule: round(rate·seconds) submissions (at
// least one per kind) over [0, seconds), kinds alternating 1:1 from a
// seed-chosen first kind. The window is cut into equal strata of
// arrivalsPerStratum submissions each,
// and within a stratum the times are a Poisson process conditioned on that
// count (seeded exponential gaps rescaled to the stratum). Every seed thus
// offers the same load, and bursts stay Poisson-like at the scale of a few
// jobs without the minute-scale clumps that made seed-to-seed latency
// spread wider than the benchmark's bound. It is a pure function of its
// arguments.
func Arrivals(seed int64, ratePerSec, seconds float64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(len(Kinds))
	n := max(int(math.Round(ratePerSec*seconds)), len(Kinds)) // at least one job of each kind
	strata := (n + arrivalsPerStratum - 1) / arrivalsPerStratum
	out := make([]Arrival, 0, n)
	for k := 0; k < strata; k++ {
		m := n / strata
		if k < n%strata { // spread the remainder
			m++
		}
		at := make([]float64, m+1)
		var t float64
		for i := range at {
			t += rng.ExpFloat64()
			at[i] = t
		}
		width := seconds / float64(strata)
		for i := 0; i < m; i++ {
			out = append(out, Arrival{AtSec: (float64(k) + at[i]/at[m]) * width,
				Kind: Kinds[(first+len(out))%len(Kinds)]})
		}
	}
	return out
}
