// Package device assembles the simulated handset: the SoC model, the phone
// thermal network, the sensor/logging chain, a cpufreq governor, and an
// optional thermal controller (USTA) that manipulates the maximum-frequency
// clamp. It advances everything on a fixed-step engine with per-component
// periods that mirror the paper's setup: 50 ms thermal integration, 100 ms
// governor sampling, 1 s logging, and a controller period of the caller's
// choosing (USTA uses 3 s).
package device

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/battery"
	"repro/internal/governor"
	"repro/internal/sensors"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrNilWorkload is returned by the run entry points when handed a nil
// workload (e.g. the result of looking up an unknown workload name).
var ErrNilWorkload = errors.New("device: run with nil workload")

// isNilWorkload reports a nil workload, including a nil *workload.Program
// stored in the interface (workload.ByName returns one for unknown names).
func isNilWorkload(w workload.Workload) bool {
	p, ok := w.(*workload.Program)
	return w == nil || ok && p == nil
}

// Controller is a thermal-management hook driven at its own period. USTA
// (package core) implements it; a nil controller reproduces the stock
// phone.
type Controller interface {
	// Name identifies the controller in reports.
	Name() string
	// PeriodSec is how often Act runs (USTA: every 3 s).
	PeriodSec() float64
	// Act observes the phone and may adjust the CPU's max-level clamp.
	Act(p *Phone)
	// Reset clears controller state between runs.
	Reset()
}

// Config parameterizes a Phone.
type Config struct {
	Thermal thermal.PhoneConfig
	SoC     soc.Config

	// StepSec is the base simulation step (thermal integration). The
	// governor and logger periods must be multiples of it.
	StepSec float64
	// GovernorPeriodSec is the cpufreq sampling period.
	GovernorPeriodSec float64
	// LoggerPeriodSec is the logging-app period.
	LoggerPeriodSec float64
	// RecordPeriodSec is how often a row is appended to the run trace.
	RecordPeriodSec float64
	// DisplayMaxWatts is display power at full brightness.
	DisplayMaxWatts float64
	// Battery parameterizes the pack model.
	Battery battery.Config
	// InitialSoC is the battery state of charge at power-on.
	InitialSoC float64
	// EnableHotplug runs an mpdecision-like core-hotplug policy alongside
	// the frequency governor (off by default; the paper's experiments pin
	// all four cores online).
	EnableHotplug bool
	// Seed drives every stochastic element (sensor noise).
	Seed int64
	// NoiseVersion selects the sensor noise stream implementation
	// (sensors.NoiseVersionLegacy keeps the math/rand stream every
	// committed golden was generated with; sensors.NoiseVersionCounter is
	// the counter-based stream with O(1) reseed and position seeking).
	// The zero value is the legacy stream, so existing configurations and
	// goldens are unaffected.
	NoiseVersion int
}

// DefaultConfig returns the calibrated Nexus-4-like device configuration.
func DefaultConfig() Config {
	return Config{
		Thermal:           thermal.DefaultPhoneConfig(),
		SoC:               soc.Nexus4Config(),
		StepSec:           0.05,
		GovernorPeriodSec: 0.1,
		LoggerPeriodSec:   1.0,
		RecordPeriodSec:   1.0,
		DisplayMaxWatts:   0.55,
		Battery:           battery.Nexus4Config(),
		InitialSoC:        0.6,
		Seed:              1,
	}
}

// Phone is the assembled simulated handset.
type Phone struct {
	cfg     Config
	net     *thermal.Network
	nodes   thermal.PhoneNodes
	cpu     *soc.CPU
	gov     governor.Governor
	ctrl    Controller
	pack    *battery.Pack
	hotplug *governor.Hotplug

	cpuSensor   *sensors.Sensor
	batSensor   *sensors.Sensor
	skinTherm   *sensors.Sensor
	screenTherm *sensors.Sensor
	logger      *sensors.Logger
	observer    func(Sample)

	timeSec   float64
	touching  bool
	traceFree bool

	// governor window accumulation
	govWinUtil    float64
	govWinSamples int
	lastGovSec    float64
	lastCtrlSec   float64

	// instantaneous observables
	utilNow   float64
	powerNowW float64 // total dissipation set by the last step
}

// New creates a phone with the given configuration and governor. The
// governor may be nil, in which case ondemand is used. A NaN or infinite
// step, period, display power, initial state of charge or pack setting is
// an error.
func New(cfg Config, gov governor.Governor) (*Phone, error) {
	for _, v := range []float64{cfg.StepSec, cfg.GovernorPeriodSec, cfg.LoggerPeriodSec, cfg.RecordPeriodSec, cfg.DisplayMaxWatts, cfg.InitialSoC} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("device: step, periods, display power and initial SoC must be finite, got %v", v)
		}
	}
	if cfg.StepSec <= 0 {
		return nil, fmt.Errorf("device: StepSec must be positive, got %v", cfg.StepSec)
	}
	if cfg.GovernorPeriodSec < cfg.StepSec {
		return nil, fmt.Errorf("device: governor period %v below step %v", cfg.GovernorPeriodSec, cfg.StepSec)
	}
	cpu, err := soc.New(cfg.SoC)
	if err != nil {
		return nil, err
	}
	pack, err := battery.New(cfg.Battery, cfg.InitialSoC)
	if err != nil {
		return nil, err
	}
	net, nodes := thermal.NewPhone(cfg.Thermal)
	if gov == nil {
		gov = governor.NewOndemand(freqTable(cfg.SoC))
	}
	p := &Phone{
		cfg:         cfg,
		net:         net,
		nodes:       nodes,
		cpu:         cpu,
		gov:         gov,
		pack:        pack,
		cpuSensor:   sensors.BuiltinTempSensorV(cfg.Seed+11, cfg.NoiseVersion),
		batSensor:   sensors.BuiltinTempSensorV(cfg.Seed+13, cfg.NoiseVersion),
		skinTherm:   sensors.ThermistorV(cfg.Seed+17, cfg.NoiseVersion),
		screenTherm: sensors.ThermistorV(cfg.Seed+19, cfg.NoiseVersion),
		logger:      sensors.NewLogger(cfg.LoggerPeriodSec),
	}
	if cfg.EnableHotplug {
		p.hotplug = governor.NewHotplug(cfg.SoC.NumCores)
	}
	return p, nil
}

// Reset returns the phone to its power-on state under its existing
// configuration, with a new device seed and governor, reusing every
// allocation: thermal nodes back at the ambient, battery at the initial
// state of charge, CPU at the lowest OPP with no clamp, sensors reseeded
// (seed+11/13/17/19, exactly like New), logs cleared, controller and
// observer detached, trace retention back on. A reset phone is
// behaviorally byte-identical to device.New with the same configuration
// and seed — the fleet's phone pool relies on that equivalence, and the
// device tests pin it. A nil governor selects stock ondemand, like New.
func (p *Phone) Reset(gov governor.Governor, seed int64) {
	p.cfg.Seed = seed
	if gov == nil {
		gov = governor.NewOndemand(freqTable(p.cfg.SoC))
	}
	p.gov = gov
	p.ctrl = nil
	p.observer = nil
	p.cpu.Reset()
	p.pack.Reset(p.cfg.InitialSoC)
	p.net.ResetState()
	p.touching = false
	thermal.ApplyTouch(p.net, p.nodes, p.cfg.Thermal, false)
	p.cpuSensor.Reseed(seed + 11)
	p.batSensor.Reseed(seed + 13)
	p.skinTherm.Reseed(seed + 17)
	p.screenTherm.Reseed(seed + 19)
	p.logger.Reset()
	p.logger.SetRetainLatestOnly(false)
	p.traceFree = false
	if p.hotplug != nil {
		p.hotplug = governor.NewHotplug(p.cfg.SoC.NumCores)
	}
	p.timeSec = 0
	p.govWinUtil, p.govWinSamples = 0, 0
	p.lastGovSec, p.lastCtrlSec = 0, 0
	p.utilNow, p.powerNowW = 0, 0
}

// MustNew is New that panics on error; for hard-coded configurations.
func MustNew(cfg Config, gov governor.Governor) *Phone {
	p, err := New(cfg, gov)
	if err != nil {
		panic(err)
	}
	return p
}

func freqTable(cfg soc.Config) []float64 {
	fs := make([]float64, len(cfg.OPPs))
	for i, o := range cfg.OPPs {
		fs[i] = o.FreqMHz
	}
	return fs
}

// SetController installs (or clears, with nil) the thermal controller.
func (p *Phone) SetController(c Controller) {
	p.ctrl = c
	p.lastCtrlSec = p.timeSec
}

// Sample is one telemetry point streamed to a run observer. It carries the
// same columns as the run trace, so callers can consume live what they would
// otherwise read back from RunResult.Trace.
type Sample struct {
	// TimeSec is the simulation time of the sample.
	TimeSec float64
	// SkinC / ScreenC / DieC / BatteryC are the ground-truth temperatures.
	SkinC, ScreenC, DieC, BatteryC float64
	// FreqMHz is the current effective CPU frequency.
	FreqMHz float64
	// Util is the instantaneous CPU utilization in [0,1].
	Util float64
	// MaxLevel is the DVFS clamp currently imposed (by USTA or thermal
	// engine); the table's top index when unclamped.
	MaxLevel int
}

// SetObserver installs (or clears, with nil) a per-sample telemetry hook.
// The observer fires once per trace row (every RecordPeriodSec of simulated
// time) from the goroutine executing Run; it must not retain the Sample
// beyond the call if it needs to stay allocation-free.
func (p *Phone) SetObserver(fn func(Sample)) { p.observer = fn }

// SetTraceFree toggles trace-free runs: RunResult.Trace and
// RunResult.Records stay nil and the logger retains only its latest record
// (the run-time predictor still works), while every aggregate — peak
// temperatures, averages, energy, work — is computed exactly as before.
// Observers still fire, so callers can stream instead of buffering. This is
// the memory diet for fleet-scale population sweeps.
//
// Controllers that read only LatestRecord (USTA) behave identically;
// controllers that consume the full Records history — e.g. the
// recalibrating wrapper, which needs minutes of log to refit — never see
// enough history in trace-free mode and effectively stay dormant, so keep
// such runs traced.
func (p *Phone) SetTraceFree(on bool) {
	p.traceFree = on
	p.logger.SetRetainLatestOnly(on)
}

// Governor returns the active cpufreq governor.
func (p *Phone) Governor() governor.Governor { return p.gov }

// CPU exposes the SoC model (the controller uses SetMaxLevel on it).
func (p *Phone) CPU() *soc.CPU { return p.cpu }

// Battery exposes the pack model.
func (p *Phone) Battery() *battery.Pack { return p.pack }

// Network exposes the thermal network (read-mostly; tests use it).
func (p *Phone) Network() *thermal.Network { return p.net }

// Nodes returns the thermal node handles.
func (p *Phone) Nodes() thermal.PhoneNodes { return p.nodes }

// Time returns the current simulation time in seconds.
func (p *Phone) Time() float64 { return p.timeSec }

// LatestRecord returns the most recent logger record, if any. This is the
// only observable interface the run-time predictor is allowed to use — it
// contains exactly the paper's feature tuple.
func (p *Phone) LatestRecord() (sensors.Record, bool) { return p.logger.Latest() }

// Records returns the full log collected so far.
func (p *Phone) Records() []sensors.Record { return p.logger.Records() }

// SkinTempC returns the physical back-cover-midsection temperature. Ground
// truth — for evaluation only, never for control.
func (p *Phone) SkinTempC() float64 { return p.net.Temp(p.nodes.CoverMid) }

// ScreenTempC returns the physical mid-screen temperature (ground truth).
func (p *Phone) ScreenTempC() float64 { return p.net.Temp(p.nodes.Screen) }

// DieTempC returns the physical die temperature (ground truth).
func (p *Phone) DieTempC() float64 { return p.net.Temp(p.nodes.Die) }

// RunResult aggregates one workload execution.
type RunResult struct {
	Workload    string
	Governor    string
	Ctrl        string
	DurSec      float64
	Trace       *trace.TimeSeries
	Records     []sensors.Record
	MaxSkinC    float64
	MaxScreenC  float64
	MaxDieC     float64
	MaxBatteryC float64
	AvgFreqMHz  float64
	AvgUtil     float64
	EnergyJ     float64
	// WorkDone / WorkDemanded are in core-MHz·s (≈ Mcycles).
	WorkDone     float64
	WorkDemanded float64
	// StartSoC / EndSoC are the battery state of charge at the run
	// boundaries.
	StartSoC float64
	EndSoC   float64
}

// Slowdown returns the fraction of demanded work left unserved (0 = no
// performance loss).
func (r *RunResult) Slowdown() float64 {
	if r.WorkDemanded <= 0 {
		return 0
	}
	return 1 - r.WorkDone/r.WorkDemanded
}

// Run executes the workload for min(dur, workload duration) seconds and
// returns the aggregated result. Pass dur <= 0 to run the workload's full
// duration. Run never stops early; use RunContext for cancellable runs.
func (p *Phone) Run(w workload.Workload, dur float64) *RunResult {
	res, _ := p.RunContext(context.Background(), w, dur)
	return res
}

// RunContext is Run with step-granular cancellation: the context is checked
// between simulation steps, so cancellation or a deadline stops the run
// within one StepSec of simulated progress. On early stop it returns the
// partial result aggregated over the steps that did execute, together with
// the context's error. The loop body is stepRun.tick — the same tick
// protocol the jump engine's first and close-out ticks run. A nil workload
// is an error, not a panic.
func (p *Phone) RunContext(ctx context.Context, w workload.Workload, dur float64) (*RunResult, error) {
	if isNilWorkload(w) {
		return nil, ErrNilWorkload
	}
	r := p.startRun(w, dur)
	for r.done < r.steps {
		if err := ctx.Err(); err != nil {
			return r.finish(err)
		}
		r.tick()
	}
	return r.finish(nil)
}

// stepPre runs everything that precedes the tick's thermal integration:
// workload demand → utilization, power injection, the battery heat rate
// and hand-contact switching. It returns the workload's CPU demand in
// aggregate core-MHz and the electrical load the battery supplies. The
// battery heat is a peek at the current state of charge; the caller
// applies the charge or drain afterwards with drainPack, over one tick
// (stepRun.tick) or over a whole held segment (eventRun.runHeld).
func (p *Phone) stepPre(sample workload.Sample) (demandMHz, loadW float64) {
	// 1. Demand → utilization at the current operating point.
	demand := sample.CPUFrac * p.cpu.MaxCapacityMHz()
	capacity := p.cpu.CapacityMHz()
	util := 0.0
	if capacity > 0 {
		util = demand / capacity
	}
	if util > 1 {
		util = 1
	}
	p.utilNow = util

	// 2. Power injection. Battery heat comes from the pack model: a
	// connected charger (ChargeWatts > 0 signals one, scaled by the
	// workload's charger duty) dissipates CC/CV inefficiency heat; on
	// discharge the pack adds its I²R losses — the AP↔battery thermal
	// coupling of Xie et al. (ICCAD'13), which the paper cites.
	dieT := p.net.Temp(p.nodes.Die)
	cpuPower := p.cpu.Power(util, dieT)
	gpuPower := p.cpu.GPUPower(sample.GPULoad)
	auxPower := sample.AuxWatts
	displayPower := sample.Display * p.cfg.DisplayMaxWatts
	load := cpuPower + gpuPower + auxPower + displayPower

	var batteryHeat float64
	if sample.ChargeWatts > 0 {
		// The workload's ChargeWatts acts as a charger-duty scale relative
		// to the pack's nominal CC heat, so profiles can model slow/fast
		// chargers without knowing pack internals.
		batteryHeat = p.pack.ChargeHeat() * sample.ChargeWatts / 0.9
	} else {
		batteryHeat = p.pack.DischargeHeat(load)
	}

	p.net.SetPower(p.nodes.Die, cpuPower)
	p.net.SetPower(p.nodes.Pkg, gpuPower)
	p.net.SetPower(p.nodes.PCB, auxPower)
	p.net.SetPower(p.nodes.Battery, batteryHeat)
	p.net.SetPower(p.nodes.Screen, displayPower)
	// Summed in node order, matching a sweep over the network's power
	// vector, so energy accounting is bit-identical to summing the nodes.
	p.powerNowW = cpuPower + gpuPower + auxPower + batteryHeat + displayPower

	// 3. Hand contact (palm coupling + blocked convection).
	if sample.Touch != p.touching {
		p.touching = sample.Touch
		thermal.ApplyTouch(p.net, p.nodes, p.cfg.Thermal, p.touching)
	}
	return demand, load
}

// drainPack applies the battery side of what stepPre peeked: the charge
// (charging, a sample with ChargeWatts > 0) or the drain of loadW, over
// span seconds at the rates of the pack's current state of charge.
func (p *Phone) drainPack(charging bool, loadW, span float64) {
	if charging {
		p.pack.Charge(span)
	} else {
		p.pack.Discharge(loadW, span)
	}
}

// advanceSensors moves the four sensor lag filters one tick toward their
// nodes' temperatures (step 5a; the ADC conversion happens in the logger).
func (p *Phone) advanceSensors(dt float64) {
	p.cpuSensor.Advance(p.net.Temp(p.nodes.Die), dt)
	p.batSensor.Advance(p.net.Temp(p.nodes.Battery), dt)
	p.skinTherm.Advance(p.net.Temp(p.nodes.CoverMid), dt)
	p.screenTherm.Advance(p.net.Temp(p.nodes.Screen), dt)
}

// stepPost runs everything that follows the tick's physics (thermal
// integration and sensor lags, owned by the caller): the simulation clock,
// logging, the governor sampling window, and the thermal controller.
func (p *Phone) stepPost(dt float64) {
	p.timeSec += dt

	// 5b. Logging: the ADC conversion (noise + quantization) samples the
	// lagged sensors once per log line.
	p.logger.Observe(p.timeSec, p.utilNow, p.cpu.FreqMHz(), p.cpuSensor, p.batSensor, p.skinTherm, p.screenTherm)

	// 6. Governor sampling window.
	p.govWinUtil += p.utilNow
	p.govWinSamples++
	if p.timeSec-p.lastGovSec+1e-9 >= p.cfg.GovernorPeriodSec {
		avg := p.govWinUtil / float64(p.govWinSamples)
		lvl := p.gov.NextLevel(governor.State{
			TimeSec:      p.timeSec,
			Util:         avg,
			CurrentLevel: p.cpu.Level(),
		})
		p.cpu.SetLevel(lvl)
		if p.hotplug != nil {
			p.cpu.SetOnlineCores(p.hotplug.NextOnline(p.timeSec, avg, p.cpu.OnlineCores()))
		}
		p.govWinUtil, p.govWinSamples = 0, 0
		p.lastGovSec = p.timeSec
	}

	// 7. Thermal controller (USTA).
	if p.ctrl != nil && p.timeSec-p.lastCtrlSec+1e-9 >= p.ctrl.PeriodSec() {
		p.ctrl.Act(p)
		p.lastCtrlSec = p.timeSec
	}
}
