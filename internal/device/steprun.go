package device

import (
	"math"

	"repro/internal/trace"
	"repro/internal/workload"
)

// stepRun is one workload execution under tick-by-tick control: the run
// state and per-tick aggregation shared by both stepping engines. The
// fixed-tick loop (RunContext) drives every tick through tick, and the jump
// engine (eventRun) runs its first tick through tick and its close-out
// ticks through closeTick, so the two engines' observing ticks share one
// protocol and cannot drift apart.
type stepRun struct {
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
}

// startRun opens a tick-controlled run of w for min(dur, workload
// duration) seconds (dur <= 0: the workload's full duration): trace
// preallocation, aggregate initialization from the phone's current state,
// and the per-run workload cursor.
func (p *Phone) startRun(w workload.Workload, dur float64) *stepRun {
	if dur <= 0 || dur > w.Duration() {
		dur = w.Duration()
	}
	res := &RunResult{
		Workload: w.Name(),
		Governor: p.gov.Name(),
		DurSec:   dur,
	}
	dt := p.cfg.StepSec
	r := &stepRun{
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

// tick advances exactly one fixed tick: workload sampling, power injection
// and touch switching (stepPre), the battery charge or drain over the tick,
// the thermal step, the sensor lags following the new temperatures, then
// closeTick.
func (r *stepRun) tick() {
	p := r.p
	sample := r.at(p.timeSec)
	var load float64
	r.demand, load = p.stepPre(sample)
	p.drainPack(sample.ChargeWatts > 0, load, r.dt)
	p.net.Step(r.dt)
	p.advanceSensors(r.dt)
	r.closeTick()
}

// closeTick is everything in a tick after the physics — clock, logging,
// governor, controller (stepPost) — plus the tick's fold into the run
// aggregates, peak tracking and the trace record. The jump engine calls
// it directly on a segment's close-out tick, once the physics jump has
// landed the network and the sensor lags on that tick.
func (r *stepRun) closeTick() {
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

	skin, screen, die, bat := r.trackPeaks()
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

// trackPeaks folds the network's current ground-truth temperatures into
// the run's peaks and returns them.
func (r *stepRun) trackPeaks() (skin, screen, die, bat float64) {
	p, res := r.p, r.res
	skin = p.net.Temp(p.nodes.CoverMid)
	screen = p.net.Temp(p.nodes.Screen)
	die = p.net.Temp(p.nodes.Die)
	bat = p.net.Temp(p.nodes.Battery)
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
	return skin, screen, die, bat
}

// finish closes the run and returns the aggregated result together with
// err (a context error for cancelled runs, nil otherwise). A run stopped
// before its last tick reports the simulated time it actually covered.
func (r *stepRun) finish(err error) (*RunResult, error) {
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
