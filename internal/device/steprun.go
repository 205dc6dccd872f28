package device

import (
	"math"

	"repro/internal/trace"
	"repro/internal/workload"
)

// StepRun is one workload execution under tick-by-tick control: the run
// state and per-tick aggregation shared by both stepping engines. The
// fixed-tick loop (RunContext) drives every tick through it, and the event
// engine (EventRun) drives its canonical ticks through the same PreStep /
// PostStep pair, so the two engines' observing ticks cannot drift apart.
//
// The tick protocol per step is PreStep → advance the phone's thermal
// network by the base step → PostStep. Finish closes the run (idempotent)
// and returns the aggregated result.
type StepRun struct {
	p   *Phone
	res *RunResult
	at  func(float64) workload.Sample

	dt         float64
	steps      int
	done       int
	freqSum    float64
	utilSum    float64
	lastRecord float64
	demand     float64
	finished   bool
}

// StartRun opens a tick-controlled run of w for min(dur, workload
// duration) seconds (dur <= 0: the workload's full duration), performing
// exactly RunContext's setup: trace preallocation, aggregate
// initialization from the phone's current state, and the per-run workload
// cursor.
func (p *Phone) StartRun(w workload.Workload, dur float64) *StepRun {
	if dur <= 0 || dur > w.Duration() {
		dur = w.Duration()
	}
	res := &RunResult{
		Workload: w.Name(),
		Governor: p.gov.Name(),
		DurSec:   dur,
	}
	dt := p.cfg.StepSec
	r := &StepRun{
		p:          p,
		res:        res,
		at:         workload.SamplerOf(w),
		dt:         dt,
		steps:      int(math.Round(dur / dt)),
		lastRecord: -math.MaxFloat64,
	}
	if !p.traceFree {
		// Preallocate the row capacity the record period implies, so the
		// hot loop never regrows a column.
		rows := 0
		if p.cfg.RecordPeriodSec > 0 {
			rows = int(dur/p.cfg.RecordPeriodSec) + 2
		}
		res.Trace = trace.NewWithCap(rows,
			"skin_c", "screen_c", "die_c", "battery_c",
			"freq_mhz", "util", "max_level",
		)
	}
	if p.ctrl != nil {
		res.Ctrl = p.ctrl.Name()
	}
	res.MaxSkinC = p.SkinTempC()
	res.MaxScreenC = p.ScreenTempC()
	res.MaxDieC = p.DieTempC()
	res.MaxBatteryC = p.net.Temp(p.nodes.Battery)
	res.StartSoC = p.pack.SoC()
	return r
}

// Steps returns the total tick count of the run.
func (r *StepRun) Steps() int { return r.steps }

// Done returns how many ticks have completed (PreStep+PostStep pairs).
func (r *StepRun) Done() int { return r.done }

// PreStep runs the pre-thermal half of the next tick: workload sampling,
// power injection and touch switching. The caller must advance the
// phone's thermal network by the base step before calling PostStep.
func (r *StepRun) PreStep() {
	r.demand = r.p.stepPre(r.at(r.p.timeSec), r.dt)
}

// PostStep runs the post-thermal half of the tick — clock, sensors,
// governor, controller — and folds the tick into the run aggregates.
func (r *StepRun) PostStep() {
	p := r.p
	res := r.res
	p.stepPost(r.dt)

	freq := p.cpu.FreqMHz()
	r.freqSum += freq
	r.utilSum += p.utilNow
	res.EnergyJ += p.powerNowW * r.dt
	capNow := p.cpu.CapacityMHz()
	res.WorkDemanded += r.demand * r.dt
	served := r.demand
	if capNow < served {
		served = capNow
	}
	res.WorkDone += served * r.dt

	skin := p.net.Temp(p.nodes.CoverMid)
	screen := p.net.Temp(p.nodes.Screen)
	die := p.net.Temp(p.nodes.Die)
	bat := p.net.Temp(p.nodes.Battery)
	if skin > res.MaxSkinC {
		res.MaxSkinC = skin
	}
	if screen > res.MaxScreenC {
		res.MaxScreenC = screen
	}
	if die > res.MaxDieC {
		res.MaxDieC = die
	}
	if bat > res.MaxBatteryC {
		res.MaxBatteryC = bat
	}
	if p.timeSec-r.lastRecord+1e-9 >= p.cfg.RecordPeriodSec {
		if res.Trace != nil {
			res.Trace.Append(p.timeSec,
				skin, screen, die, bat,
				freq, p.utilNow, float64(p.cpu.MaxLevel()),
			)
		}
		r.lastRecord = p.timeSec
		if p.observer != nil {
			p.observer(Sample{
				TimeSec:  p.timeSec,
				SkinC:    skin,
				ScreenC:  screen,
				DieC:     die,
				BatteryC: bat,
				FreqMHz:  freq,
				Util:     p.utilNow,
				MaxLevel: p.cpu.MaxLevel(),
			})
		}
	}
	r.done++
}

// Finish closes the run and returns the aggregated result together with
// err (a context error for cancelled runs, nil otherwise). A run stopped
// before its last tick reports the simulated time it actually covered.
// Finish is idempotent; ticking a finished run is a caller bug.
func (r *StepRun) Finish(err error) (*RunResult, error) {
	if r.finished {
		return r.res, err
	}
	r.finished = true
	p, res := r.p, r.res
	if r.done > 0 {
		res.AvgFreqMHz = r.freqSum / float64(r.done)
		res.AvgUtil = r.utilSum / float64(r.done)
	}
	if r.done < r.steps { // cancelled: report actual simulated time
		res.DurSec = float64(r.done) * r.dt
	}
	if !p.traceFree {
		res.Records = p.logger.Records()
	}
	res.EndSoC = p.pack.SoC()
	return res, err
}
