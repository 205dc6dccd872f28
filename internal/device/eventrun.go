package device

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/governor"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// EventMode selects the stepping engine for a run.
//
// The fixed-tick loop recomputes every input every 50 ms even though the
// workload sample — the only *external* input — is piecewise-constant
// between its changes (phase boundaries, burst edges, jitter slots, touch
// flips). EventJump exploits that: asking the workload for its next change
// (workload.NextChangeOf), it cuts a run into segments at every point where
// an input may change or an observation must happen (logger emission,
// trace record, controller epoch), freezes the segment's inputs, replays
// the per-tick *scheduling* arithmetic (utilization, governor windows and
// fires, aggregate sums) exactly, and advances the *physics* (thermal
// network + sensor lags) under the frozen drive in O(log ticks) matrix
// jumps.
//
// The contracts, exactly:
//
//   - EventOff is the reference.
//   - EventJump holds each segment's power and battery inputs at their
//     segment-start values (a zero-order hold at event resolution instead
//     of tick resolution). Leakage is exponential in die temperature and
//     the charger heat tapers with state of charge, so both holds are
//     approximations; the pack is charged or drained once per segment at
//     its segment-start rate. Frequency, utilization, governor-level
//     trajectories, work aggregates and record timing/Util/FreqMHz are
//     bit-identical to EventOff for runs whose controller does not read
//     thermal observations. Thermal-plane values (temperatures, energy,
//     state of charge, sensor readings) differ from EventOff by the
//     held-input discretization: within 0.05 °C and 2e-3 relative on the
//     device differential corpus, within 0.0025 °C / 1.5e-4 on an hour of
//     charging (measured 1.2e-3 °C / 6.2e-5), and within 0.1 °C / 1e-3 on
//     the Table 1 grid (measured 0.044 °C / 5e-4, antutu-cpu-90min under
//     USTA), where USTA reads thermal observations and can occasionally
//     clamp one decision differently.
//   - The ladder jump itself is exact up to floating-point summation order:
//     against the same segmentation advanced tick by tick (seqPhysics) it
//     stays within 1e-6 °C and 1e-9 relative.
//   - A workload without a next-change query, or a device running the
//     hotplug policy (whose online-core changes invalidate held capacity),
//     runs on the EventOff loop and is byte-identical to it.
//
// Ticks where draws, emissions or decisions happen — logger emissions,
// trace records, controller epochs — close their segment: the physics
// jump lands exactly on them and they run the fixed-tick loop's closeTick
// from the jumped state, so every sensor-noise draw happens at exactly the
// tick EventOff draws it and the noise streams never desynchronize. A
// close-out may be a segment of one tick (a level change landing just
// before an emission); only the run's first tick runs the full fixed tick.
type EventMode int

const (
	// EventOff is the plain fixed-tick loop: the reference engine.
	EventOff EventMode = 0
	// EventJump folds held-input segments and advances the physics with
	// power-of-two propagator-ladder jumps (thermal.Ladder): O(log gap)
	// matrix applications per segment. Write-ahead logs journal the
	// integer, and logs written under "-event jump" carry 3, so the value
	// is fixed.
	EventJump EventMode = 3
)

// ErrUnknownEventMode is returned by RunEventContext for any mode other
// than EventOff and EventJump.
var ErrUnknownEventMode = errors.New("device: unknown event mode")

// String returns the CLI spelling of the mode.
func (m EventMode) String() string {
	switch m {
	case EventOff:
		return "off"
	case EventJump:
		return "jump"
	}
	return fmt.Sprintf("EventMode(%d)", int(m))
}

// ParseEventMode parses the CLI spelling of an event mode.
func ParseEventMode(s string) (EventMode, error) {
	switch s {
	case "", "off":
		return EventOff, nil
	case "jump":
		return EventJump, nil
	}
	return EventOff, fmt.Errorf("device: unknown event mode %q (want off|jump)", s)
}

// RunEventContext is RunContext on the selected stepping engine, with
// segment-granular cancellation (a segment is at most one record period of
// simulated time). EventOff, workloads without a next-change query and
// hotplug devices run the plain tick loop. A nil workload is an error, not
// a panic, and so is a mode other than EventOff and EventJump
// (ErrUnknownEventMode).
func (p *Phone) RunEventContext(ctx context.Context, w workload.Workload, dur float64, mode EventMode) (*RunResult, error) {
	if isNilWorkload(w) {
		return nil, ErrNilWorkload
	}
	switch mode {
	case EventOff:
		return p.RunContext(ctx, w, dur)
	case EventJump:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownEventMode, mode)
	}
	boundary := workload.NextChangeOf(w)
	if boundary == nil || p.hotplug != nil {
		return p.RunContext(ctx, w, dur)
	}
	return p.newEventRun(w, dur, boundary).run(ctx)
}

// eventRun drives a stepRun segment by segment instead of tick by tick.
type eventRun struct {
	r *stepRun

	// boundary is the workload's next-change query.
	boundary func(float64) float64

	// sequential advances every segment's physics tick by tick
	// (seqPhysics) even when a ladder exists: the reference the device
	// tests pin the ladder against.
	sequential bool

	// taps couple the four sensor lag filters to their thermal nodes for
	// the jump ladder, in the exact order advanceSensors advances them.
	taps   []thermal.Tap
	states []float64
	sc     thermal.LadderScratch

	// Two-slot ladder memo keyed by the network fingerprint: a run
	// alternates between at most the touching / not-touching
	// configurations, and the memo keeps the per-segment lookup off the
	// shared cache's mutex.
	ladSig [2]uint64
	lad    [2]*thermal.Ladder
}

// newEventRun opens a run of w (startRun) on the jump engine; boundary is
// w's next-change query.
func (p *Phone) newEventRun(w workload.Workload, dur float64, boundary func(float64) float64) *eventRun {
	r := p.startRun(w, dur)
	e := &eventRun{r: r, boundary: boundary}
	e.taps = []thermal.Tap{
		{Node: p.nodes.Die, Alpha: p.cpuSensor.Alpha(r.dt)},
		{Node: p.nodes.Battery, Alpha: p.batSensor.Alpha(r.dt)},
		{Node: p.nodes.CoverMid, Alpha: p.skinTherm.Alpha(r.dt)},
		{Node: p.nodes.Screen, Alpha: p.screenTherm.Alpha(r.dt)},
	}
	e.states = make([]float64, len(e.taps))
	return e
}

// run advances segment by segment to the end of the run, checking ctx
// between segments.
func (e *eventRun) run(ctx context.Context) (*RunResult, error) {
	r := e.r
	for r.done < r.steps {
		if err := ctx.Err(); err != nil {
			return r.finish(err)
		}
		e.segment()
	}
	return r.finish(nil)
}

// segment advances the run by one unit: a full fixed tick for the run's
// first tick, otherwise one held-input segment of up to a record period's
// worth of folded ticks, closed by the next observing/deciding tick.
// Charging ticks fold too, with the charger heat held per segment.
func (e *eventRun) segment() {
	r := e.r
	// The first tick primes the sensor lags, opens the logger window and
	// emits the initial record, exactly like the fixed-tick loop.
	if r.done == 0 {
		r.tick()
		return
	}
	e.runHeld(r.at(r.p.timeSec))
}

// runHeld folds one held-input segment starting with sample: inputs
// frozen at segment start, per-tick scheduling arithmetic replayed
// exactly, physics advanced under the frozen drive at the end.
func (e *eventRun) runHeld(sample workload.Sample) {
	r := e.r
	p := r.p
	res := r.res
	dt := r.dt
	nextChange := e.boundary(p.timeSec)

	// Freeze the segment inputs: stepPre peeks the battery heat rate (the
	// charge or drain happens once, below, when the segment length is
	// known).
	demand, load := p.stepPre(sample)
	util := p.utilNow
	r.demand = demand

	// Fold ticks while the frozen inputs stay truthful: stop at the
	// workload's next change, at a governor level change, or at the run's
	// end. An observing/deciding tick (logger emission, trace record,
	// controller epoch) that is still covered by the frozen inputs does
	// not end the fold — it becomes the segment's close-out tick: the
	// physics jump lands exactly on it and it runs closeTick from the
	// jumped state below. The loop body replays closeTick's scheduling
	// arithmetic (logger accumulation BEFORE the governor block, aggregate
	// frequency AFTER it) add for add, so every accumulator sees the
	// identical float sequence the fixed-tick loop would produce.
	// Per-tick constants and accumulators hoisted to locals: the governor
	// interface call inside the loop could alias anything as far as the
	// compiler knows, so field-resident accumulators would be reloaded
	// and re-stored every tick. The products powerNowW·dt and demand·dt
	// are bitwise the same every tick, so computing them once preserves
	// the exact add sequence.
	level := p.cpu.Level()
	maxSteps := r.steps - r.done
	powerDt := p.powerNowW * dt
	demandDt := demand * dt
	govPeriod := p.cfg.GovernorPeriodSec
	recPeriod := p.cfg.RecordPeriodSec
	lastRec := r.lastRecord
	hasCtrl := p.ctrl != nil
	var ctrlPeriod, lastCtrl float64
	if hasCtrl {
		ctrlPeriod = p.ctrl.PeriodSec()
		lastCtrl = p.lastCtrlSec
	}
	timeSec := p.timeSec
	lastGov := p.lastGovSec
	govUtil := p.govWinUtil
	govN := p.govWinSamples
	freqSum := r.freqSum
	utilSum := r.utilSum
	energy := res.EnergyJ
	workDem := res.WorkDemanded
	workDone := res.WorkDone
	k := 0 // folded ticks, scheduling replayed below
	closeOut := false
	for {
		if k > 0 {
			if k >= maxSteps || timeSec >= nextChange || p.cpu.Level() != level {
				break
			}
		}
		t1 := timeSec + dt
		if p.logger.WouldEmit(t1) || t1-lastRec+1e-9 >= recPeriod ||
			(hasCtrl && t1-lastCtrl+1e-9 >= ctrlPeriod) {
			// The tick is within the frozen inputs' validity (checked
			// above for k > 0; at k == 0 the freeze just happened), so it
			// joins the physics jump; its closeTick runs post-jump,
			// because emission samples the sensors at the jumped state. A
			// segment can therefore be a single close-out tick — e.g.
			// when a governor level change lands right before an emission.
			closeOut = true
			break
		}
		timeSec += dt
		p.logger.ObserveHeld(timeSec, util, p.cpu.FreqMHz())
		govUtil += util
		govN++
		if timeSec-lastGov+1e-9 >= govPeriod {
			avg := govUtil / float64(govN)
			lvl := p.gov.NextLevel(governor.State{
				TimeSec:      timeSec,
				Util:         avg,
				CurrentLevel: p.cpu.Level(),
			})
			p.cpu.SetLevel(lvl)
			govUtil, govN = 0, 0
			lastGov = timeSec
		}
		freqSum += p.cpu.FreqMHz()
		utilSum += util
		energy += powerDt
		capNow := p.cpu.CapacityMHz()
		workDem += demandDt
		if capNow < demand {
			workDone += capNow * dt
		} else {
			workDone += demandDt
		}
		k++
	}
	p.timeSec = timeSec
	p.lastGovSec = lastGov
	p.govWinUtil = govUtil
	p.govWinSamples = govN
	r.freqSum = freqSum
	r.utilSum = utilSum
	res.EnergyJ = energy
	res.WorkDemanded = workDem
	res.WorkDone = workDone
	r.done += k

	// Physics for every tick of the segment, the close-out included. One
	// charge or drain for the whole segment at the segment-start rates:
	// the heat rate matches the peek above (same load, same segment-start
	// SoC), so the injected battery heat was consistent with it.
	n := k
	if closeOut {
		n++
	}
	p.drainPack(sample.ChargeWatts > 0, load, float64(n)*dt)
	e.physics(n)

	// The close-out tick finishes as a fixed tick. Otherwise only the
	// peaks see the segment-end state: between two records the fixed-tick
	// loop checks every tick, but under monotone intra-segment transients
	// (the common case — segments are sub-second) the end state is the
	// extremum, and the record ticks closing each segment run closeTick
	// either way. The differential suite bounds the residual.
	if closeOut {
		r.closeTick()
	} else {
		r.trackPeaks()
	}
}

// physics advances the network and the sensor lags k ticks under the
// already-injected frozen drive: one composite ladder jump, or seqPhysics
// when no ladder is available (RK4-forced networks) or the run is the
// sequential reference.
func (e *eventRun) physics(k int) {
	p := e.r.p
	var l *thermal.Ladder
	if !e.sequential {
		l = e.ladderFor(e.r.dt)
	}
	if l == nil {
		e.seqPhysics(k)
		return
	}
	e.states[0] = p.cpuSensor.LagState()
	e.states[1] = p.batSensor.LagState()
	e.states[2] = p.skinTherm.LagState()
	e.states[3] = p.screenTherm.LagState()
	l.AdvanceComposite(p.net, e.states, k, &e.sc)
	p.cpuSensor.SetLagState(e.states[0])
	p.batSensor.SetLagState(e.states[1])
	p.skinTherm.SetLagState(e.states[2])
	p.screenTherm.SetLagState(e.states[3])
}

// seqPhysics advances the physics k ticks under the already-injected
// frozen drive: the fixed-tick loop's propagator step plus sensor lag
// recurrence, with held inputs.
func (e *eventRun) seqPhysics(k int) {
	p := e.r.p
	dt := e.r.dt
	for i := 0; i < k; i++ {
		p.net.Step(dt)
		p.advanceSensors(dt)
	}
}

// ladderFor returns the jump ladder for the network's current
// configuration through the run's two-slot memo (touching / not).
func (e *eventRun) ladderFor(dt float64) *thermal.Ladder {
	sig := e.r.p.net.Fingerprint()
	if e.lad[0] != nil && e.ladSig[0] == sig {
		return e.lad[0]
	}
	if e.lad[1] != nil && e.ladSig[1] == sig {
		e.lad[0], e.lad[1] = e.lad[1], e.lad[0]
		e.ladSig[0], e.ladSig[1] = e.ladSig[1], e.ladSig[0]
		return e.lad[0]
	}
	l := e.r.p.net.LadderFor(dt, e.taps)
	if l != nil {
		e.lad[1], e.ladSig[1] = e.lad[0], e.ladSig[0]
		e.lad[0], e.ladSig[0] = l, sig
	}
	return l
}
