package device

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/workload"
)

func TestNewValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepSec = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("zero StepSec accepted")
	}
	cfg = DefaultConfig()
	cfg.GovernorPeriodSec = 0.01
	cfg.StepSec = 0.05
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("governor period below step accepted")
	}
	cfg = DefaultConfig()
	cfg.SoC.NumCores = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("invalid SoC config accepted")
	}
}

// TestNewRejectsNonFinite pins that New refuses a NaN or infinite step,
// period, display, initial-SoC or pack setting instead of building a phone
// that runs no ticks or reports NaN energy and state of charge.
func TestNewRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config, float64){
		"StepSec":                func(c *Config, v float64) { c.StepSec = v },
		"GovernorPeriodSec":      func(c *Config, v float64) { c.GovernorPeriodSec = v },
		"LoggerPeriodSec":        func(c *Config, v float64) { c.LoggerPeriodSec = v },
		"RecordPeriodSec":        func(c *Config, v float64) { c.RecordPeriodSec = v },
		"DisplayMaxWatts":        func(c *Config, v float64) { c.DisplayMaxWatts = v },
		"InitialSoC":             func(c *Config, v float64) { c.InitialSoC = v },
		"Battery.CapacityWh":     func(c *Config, v float64) { c.Battery.CapacityWh = v },
		"Battery.NominalV":       func(c *Config, v float64) { c.Battery.NominalV = v },
		"Battery.InternalOhm":    func(c *Config, v float64) { c.Battery.InternalOhm = v },
		"Battery.ChargeCurrentA": func(c *Config, v float64) { c.Battery.ChargeCurrentA = v },
		"Battery.CVThreshold":    func(c *Config, v float64) { c.Battery.CVThreshold = v },
		"Battery.ChargeEff":      func(c *Config, v float64) { c.Battery.ChargeEff = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			set(&cfg, v)
			if p, err := New(cfg, nil); err == nil {
				res := p.Run(workload.Charging(2), 30)
				t.Errorf("%s = %v accepted (30 s of charging: %d records, energy %v J, end SoC %v)",
					name, v, len(res.Records), res.EnergyJ, res.EndSoC)
			}
		}
	}
	// Finite settings keep their meaning, zero periods included.
	cfg := DefaultConfig()
	cfg.LoggerPeriodSec, cfg.RecordPeriodSec, cfg.DisplayMaxWatts = 0, 0, 0
	if _, err := New(cfg, nil); err != nil {
		t.Fatalf("zero logger/record period or display power rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.StepSec = -1
	MustNew(cfg, nil)
}

// TestRunNilWorkloadErrors pins that both run entry points reject a nil
// workload with ErrNilWorkload instead of dereferencing it, under every
// stepping engine — an untyped nil and a nil *workload.Program hidden in
// the interface alike.
func TestRunNilWorkloadErrors(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	var typedNil *workload.Program
	for _, tc := range []struct {
		name string
		w    workload.Workload
	}{
		{"nil", nil},
		{"typed nil *Program", typedNil},
	} {
		if res, err := p.RunContext(context.Background(), tc.w, 0); !errors.Is(err, ErrNilWorkload) || res != nil {
			t.Fatalf("RunContext(%s) = %v, %v; want nil, ErrNilWorkload", tc.name, res, err)
		}
		for _, mode := range []EventMode{EventOff, EventJump} {
			if res, err := p.RunEventContext(context.Background(), tc.w, 0, mode); !errors.Is(err, ErrNilWorkload) || res != nil {
				t.Fatalf("RunEventContext(%s, %v) = %v, %v; want nil, ErrNilWorkload", tc.name, mode, res, err)
			}
		}
	}
}

func TestDefaultGovernorIsOndemand(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	if p.Governor().Name() != "ondemand" {
		t.Fatalf("default governor = %q want ondemand", p.Governor().Name())
	}
}

func TestIdleRunStaysCool(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.Idle(300), 0)
	if res.MaxSkinC > 28 {
		t.Fatalf("idle phone skin peaked at %.1f °C", res.MaxSkinC)
	}
	if res.AvgFreqMHz > 600 {
		t.Fatalf("idle phone averaged %.0f MHz; ondemand should park near 384", res.AvgFreqMHz)
	}
}

func TestHeavyRunHeatsUpAndRunsFast(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.SquareWave(1, 10, 1.0, 0.95, 0.95, 600), 0) // constant 95 %
	if res.MaxSkinC < 33 {
		t.Fatalf("10 min of saturating load only reached %.1f °C skin", res.MaxSkinC)
	}
	if res.AvgFreqMHz < 1400 {
		t.Fatalf("ondemand under saturating load averaged %.0f MHz, want near max", res.AvgFreqMHz)
	}
	if res.MaxDieC <= res.MaxSkinC {
		t.Fatal("die must run hotter than the cover")
	}
	if res.AvgUtil < 0.8 {
		t.Fatalf("avg util = %.2f want near 1", res.AvgUtil)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := MustNew(cfg, nil).Run(workload.Skype(7), 120)
	b := MustNew(cfg, nil).Run(workload.Skype(7), 120)
	if a.MaxSkinC != b.MaxSkinC || a.AvgFreqMHz != b.AvgFreqMHz || a.EnergyJ != b.EnergyJ {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedChangesSensorNoise(t *testing.T) {
	cfg := DefaultConfig()
	a := MustNew(cfg, nil).Run(workload.Skype(7), 60)
	cfg.Seed = 999
	b := MustNew(cfg, nil).Run(workload.Skype(7), 60)
	if len(a.Records) == 0 || len(b.Records) == 0 {
		t.Fatal("no logger records")
	}
	same := true
	for i := range a.Records {
		if a.Records[i].CPUTempC != b.Records[i].CPUTempC {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different sensor seeds produced identical logs")
	}
}

func TestRunTraceAndRecordsPopulated(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.YouTube(3), 90)
	if res.Trace.Len() < 85 || res.Trace.Len() > 95 {
		t.Fatalf("trace rows = %d want ≈90 at 1 Hz", res.Trace.Len())
	}
	if len(res.Records) < 85 {
		t.Fatalf("logger records = %d want ≈90", len(res.Records))
	}
	if res.Trace.Lookup("skin_c") == nil || res.Trace.Lookup("freq_mhz") == nil {
		t.Fatal("trace missing standard columns")
	}
}

func TestPowersaveCoolerAndSlowerThanPerformance(t *testing.T) {
	w := workload.SquareWave(1, 10, 1.0, 0.9, 0.9, 420)
	perf := MustNew(DefaultConfig(), &governor.Performance{NumLevels: 12}).Run(w, 0)
	save := MustNew(DefaultConfig(), &governor.Powersave{}).Run(w, 0)
	if save.MaxSkinC >= perf.MaxSkinC {
		t.Fatalf("powersave (%.1f) must be cooler than performance (%.1f)", save.MaxSkinC, perf.MaxSkinC)
	}
	if save.AvgFreqMHz >= perf.AvgFreqMHz {
		t.Fatal("powersave must run slower than performance")
	}
	if save.Slowdown() <= perf.Slowdown() {
		t.Fatalf("powersave must lose more work: %.3f vs %.3f", save.Slowdown(), perf.Slowdown())
	}
	if save.EnergyJ >= perf.EnergyJ {
		t.Fatal("powersave must use less energy on a fixed-duration run")
	}
}

func TestSlowdownZeroWhenUnconstrained(t *testing.T) {
	// A light workload served at any frequency loses no work under
	// performance governor.
	p := MustNew(DefaultConfig(), &governor.Performance{NumLevels: 12})
	res := p.Run(workload.YouTube(1), 120)
	if res.Slowdown() > 1e-9 {
		t.Fatalf("slowdown = %v want 0", res.Slowdown())
	}
}

func TestSlowdownEmptyResult(t *testing.T) {
	r := &RunResult{}
	if r.Slowdown() != 0 {
		t.Fatal("zero-demand slowdown must be 0")
	}
}

// clampController pins the max level; used to verify the controller hook
// and the clamp plumbing end to end.
type clampController struct {
	level int
	calls int
}

func (c *clampController) Name() string       { return "clamp" }
func (c *clampController) PeriodSec() float64 { return 3 }
func (c *clampController) Act(p *Phone) {
	c.calls++
	p.CPU().SetMaxLevel(c.level)
}
func (c *clampController) Reset() { c.calls = 0 }

func TestControllerHookRunsAtItsPeriod(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	ctrl := &clampController{level: 0}
	p.SetController(ctrl)
	res := p.Run(workload.SquareWave(1, 10, 1.0, 0.95, 0.95, 60), 0)
	if ctrl.calls < 18 || ctrl.calls > 21 {
		t.Fatalf("controller ran %d times in 60 s at 3 s period", ctrl.calls)
	}
	// Clamped to the bottom level, the CPU must never exceed 384 MHz after
	// the first controller action.
	freqs := res.Trace.Lookup("freq_mhz").Values
	for i, f := range freqs {
		if res.Trace.TimeSec[i] > 4 && f > 384+1 {
			t.Fatalf("clamp violated at t=%v: %v MHz", res.Trace.TimeSec[i], f)
		}
	}
	if res.Ctrl != "clamp" {
		t.Fatalf("result Ctrl = %q", res.Ctrl)
	}
}

func TestControllerClampReducesHeatAndWork(t *testing.T) {
	w := workload.SquareWave(1, 10, 1.0, 0.95, 0.95, 600)
	free := MustNew(DefaultConfig(), nil).Run(w, 0)
	clamped := MustNew(DefaultConfig(), nil)
	clamped.SetController(&clampController{level: 2})
	cres := clamped.Run(w, 0)
	if cres.MaxSkinC >= free.MaxSkinC {
		t.Fatalf("clamped run must be cooler: %.1f vs %.1f", cres.MaxSkinC, free.MaxSkinC)
	}
	if cres.AvgFreqMHz >= free.AvgFreqMHz {
		t.Fatal("clamped run must be slower on average")
	}
	if cres.Slowdown() <= free.Slowdown() {
		t.Fatal("clamped run must sacrifice work")
	}
}

func TestLatestRecordMatchesPaperFeatures(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	p.Run(workload.Skype(3), 10)
	rec, ok := p.LatestRecord()
	if !ok {
		t.Fatal("no record after 10 s")
	}
	f := rec.Features()
	if len(f) != 4 {
		t.Fatalf("feature vector length = %d want 4", len(f))
	}
	if rec.CPUTempC < 20 || rec.CPUTempC > 100 {
		t.Fatalf("implausible CPU temp %v", rec.CPUTempC)
	}
	if rec.FreqMHz < 384 || rec.FreqMHz > 1512 {
		t.Fatalf("implausible freq %v", rec.FreqMHz)
	}
	if rec.Util < 0 || rec.Util > 1 {
		t.Fatalf("implausible util %v", rec.Util)
	}
}

func TestTouchCouplingActivates(t *testing.T) {
	// Same workload with and without touch: a held cold phone warms faster
	// because the palm is warmer than ambient.
	held := workload.New("held", 1, workload.Phase{Name: "h", Dur: 300, CPU: 0.02, Touch: true})
	loose := workload.New("loose", 1, workload.Phase{Name: "l", Dur: 300, CPU: 0.02})
	a := MustNew(DefaultConfig(), nil).Run(held, 0)
	b := MustNew(DefaultConfig(), nil).Run(loose, 0)
	if a.MaxSkinC <= b.MaxSkinC {
		t.Fatalf("held idle phone (%.2f) should warm above untouched (%.2f)", a.MaxSkinC, b.MaxSkinC)
	}
}

func TestChargingWorkloadWarmsBattery(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.Charging(1), 900)
	if res.MaxBatteryC < 27 {
		t.Fatalf("charging battery peaked at %.1f °C, want a visible rise", res.MaxBatteryC)
	}
	if res.AvgFreqMHz > 500 {
		t.Fatalf("charging run averaged %.0f MHz; CPU should idle", res.AvgFreqMHz)
	}
}

func TestEnergyAccountingPositiveAndScales(t *testing.T) {
	short := MustNew(DefaultConfig(), nil).Run(workload.Skype(5), 60)
	long := MustNew(DefaultConfig(), nil).Run(workload.Skype(5), 120)
	if short.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
	if long.EnergyJ <= short.EnergyJ*1.5 {
		t.Fatalf("doubling duration should roughly double energy: %v vs %v", short.EnergyJ, long.EnergyJ)
	}
}

func TestBatteryDrainsUnderLoad(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.SquareWave(1, 10, 1.0, 0.9, 0.9, 600), 0)
	if res.EndSoC >= res.StartSoC {
		t.Fatalf("10 min of heavy load should drain the pack: %v -> %v", res.StartSoC, res.EndSoC)
	}
	// ~3.5 W for 10 min ≈ 0.58 Wh ≈ 7 % of an 8 Wh pack.
	drop := res.StartSoC - res.EndSoC
	if drop < 0.03 || drop > 0.2 {
		t.Fatalf("implausible SoC drop %.3f for a 10-min heavy run", drop)
	}
}

func TestBatteryChargesDuringChargingWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialSoC = 0.3
	p := MustNew(cfg, nil)
	res := p.Run(workload.Charging(1), 1800)
	if res.EndSoC <= res.StartSoC {
		t.Fatalf("charging workload should fill the pack: %v -> %v", res.StartSoC, res.EndSoC)
	}
}

func TestBatteryChargeHeatTapersWhenNearlyFull(t *testing.T) {
	// A nearly full pack tapers into CV: less heat, cooler battery node
	// than a low pack on the same charging workload.
	low := DefaultConfig()
	low.InitialSoC = 0.2
	full := DefaultConfig()
	full.InitialSoC = 0.97
	rLow := MustNew(low, nil).Run(workload.Charging(1), 1200)
	rFull := MustNew(full, nil).Run(workload.Charging(1), 1200)
	if rFull.MaxBatteryC >= rLow.MaxBatteryC {
		t.Fatalf("CV-phase charging should run cooler: %.2f vs %.2f", rFull.MaxBatteryC, rLow.MaxBatteryC)
	}
}

func TestRunHonorsExplicitDuration(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	res := p.Run(workload.Skype(1), 45)
	if res.DurSec != 45 {
		t.Fatalf("DurSec = %v want 45", res.DurSec)
	}
	if math.Abs(p.Time()-45) > 0.1 {
		t.Fatalf("phone time = %v want 45", p.Time())
	}
}

func TestRunCapsAtWorkloadDuration(t *testing.T) {
	p := MustNew(DefaultConfig(), nil)
	w := workload.Idle(30)
	res := p.Run(w, 500)
	if res.DurSec != 30 {
		t.Fatalf("DurSec = %v want 30 (workload length)", res.DurSec)
	}
}
