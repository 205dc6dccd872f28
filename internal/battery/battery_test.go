package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNexus4ConfigValid(t *testing.T) {
	if err := Nexus4Config().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Nexus4Config()
	cases := []func(*Config){
		func(c *Config) { c.CapacityWh = 0 },
		func(c *Config) { c.NominalV = 0 },
		func(c *Config) { c.InternalOhm = -1 },
		func(c *Config) { c.ChargeEff = 0 },
		func(c *Config) { c.ChargeEff = 1.5 },
		func(c *Config) { c.CVThreshold = 0 },
		func(c *Config) { c.CVThreshold = 1 },
		func(c *Config) { c.CapacityWh = math.NaN() },
		func(c *Config) { c.CapacityWh = math.Inf(1) },
		func(c *Config) { c.InternalOhm = math.NaN() },
		func(c *Config) { c.ChargeCurrentA = math.NaN() },
		func(c *Config) { c.ChargeEff = math.NaN() },
		func(c *Config) { c.CVThreshold = math.NaN() },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewClampsSoC(t *testing.T) {
	p := MustNew(Nexus4Config(), 1.7)
	if p.SoC() != 1 {
		t.Fatalf("SoC = %v want 1", p.SoC())
	}
	p = MustNew(Nexus4Config(), -0.3)
	if p.SoC() != 0 {
		t.Fatalf("SoC = %v want 0", p.SoC())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{}, 0.5)
}

func TestOCVMonotoneInSoC(t *testing.T) {
	p := MustNew(Nexus4Config(), 0)
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.01 {
		p.SetSoC(s)
		v := p.OCV()
		if v < prev {
			t.Fatalf("OCV not monotone at SoC %.2f: %v < %v", s, v, prev)
		}
		if v < 3.2 || v > 4.4 {
			t.Fatalf("implausible OCV %v at SoC %.2f", v, s)
		}
		prev = v
	}
}

func TestDischargeDrainsAndHeats(t *testing.T) {
	p := MustNew(Nexus4Config(), 1.0)
	heat := p.Discharge(3.0, 60)
	if p.SoC() >= 1.0 {
		t.Fatal("discharge did not drain the pack")
	}
	if heat <= 0 {
		t.Fatal("discharge should dissipate I²R heat")
	}
	// 3 W at ~4.3 V is ~0.7 A -> I²R ≈ 0.06 W; sanity band.
	if heat > 0.3 {
		t.Fatalf("discharge heat %v W implausibly high", heat)
	}
}

func TestDischargeHeatGrowsWithLoad(t *testing.T) {
	p1 := MustNew(Nexus4Config(), 0.8)
	p2 := MustNew(Nexus4Config(), 0.8)
	if p1.Discharge(1, 1) >= p2.Discharge(4, 1) {
		t.Fatal("heavier load must dissipate more heat in the pack")
	}
}

func TestDischargeZeroLoadNoop(t *testing.T) {
	p := MustNew(Nexus4Config(), 0.5)
	if h := p.Discharge(0, 60); h != 0 {
		t.Fatalf("zero-load heat = %v", h)
	}
	if p.SoC() != 0.5 {
		t.Fatal("zero load drained the pack")
	}
}

func TestDischargeEmptyPackClamps(t *testing.T) {
	p := MustNew(Nexus4Config(), 0.001)
	for i := 0; i < 100; i++ {
		p.Discharge(5, 60)
	}
	if p.SoC() != 0 {
		t.Fatalf("SoC = %v want 0", p.SoC())
	}
}

func TestChargeFillsAndHeats(t *testing.T) {
	p := MustNew(Nexus4Config(), 0.2)
	heat, stored := p.Charge(60)
	if p.SoC() <= 0.2 {
		t.Fatal("charge did not fill the pack")
	}
	if heat <= 0 || stored <= 0 {
		t.Fatalf("charge heat=%v stored=%v, want both positive", heat, stored)
	}
	// At 1.2 A / ~3.7 V / 88 % efficiency the pack heat is ~0.7–1 W: the
	// regime that warms the cover in the paper's Charging workload.
	if heat < 0.3 || heat > 1.5 {
		t.Fatalf("CC charge heat = %v W, want 0.3–1.5", heat)
	}
}

func TestChargeTapersAboveCVThreshold(t *testing.T) {
	cfg := Nexus4Config()
	low := MustNew(cfg, 0.5)
	high := MustNew(cfg, 0.95)
	heatLow, storedLow := low.Charge(1)
	heatHigh, storedHigh := high.Charge(1)
	if storedHigh >= storedLow {
		t.Fatalf("CV-phase charging should taper: %v vs %v stored", storedHigh, storedLow)
	}
	if heatHigh >= heatLow {
		t.Fatalf("CV-phase heat should taper: %v vs %v", heatHigh, heatLow)
	}
}

func TestChargeFullPackNoop(t *testing.T) {
	p := MustNew(Nexus4Config(), 1.0)
	heat, stored := p.Charge(60)
	if heat != 0 || stored != 0 {
		t.Fatalf("full pack charged: heat=%v stored=%v", heat, stored)
	}
}

func TestChargeReachesFull(t *testing.T) {
	p := MustNew(Nexus4Config(), 0.1)
	for i := 0; i < 5*3600; i++ {
		p.Charge(1)
	}
	if p.SoC() < 0.999 {
		t.Fatalf("pack not full after 5 h: SoC = %v", p.SoC())
	}
}

func TestTimeToFull(t *testing.T) {
	p := MustNew(Nexus4Config(), 0.2)
	sec := p.TimeToFullSec()
	if sec < 1800 || sec > 5*3600 {
		t.Fatalf("time-to-full = %v s, want between 0.5 h and 5 h", sec)
	}
	// Estimation must not mutate the pack.
	if p.SoC() != 0.2 {
		t.Fatalf("TimeToFullSec mutated SoC to %v", p.SoC())
	}
	full := MustNew(Nexus4Config(), 1.0)
	if full.TimeToFullSec() != 0 {
		t.Fatal("full pack time-to-full should be 0")
	}
}

func TestChargeFasterFromLowerSoC(t *testing.T) {
	lo := MustNew(Nexus4Config(), 0.1)
	hi := MustNew(Nexus4Config(), 0.7)
	if lo.TimeToFullSec() <= hi.TimeToFullSec() {
		t.Fatal("fuller pack should finish sooner")
	}
}

// Property: SoC stays in [0,1] under any interleaving of charge and
// discharge.
func TestSoCBoundsProperty(t *testing.T) {
	f := func(ops []bool, load float64) bool {
		p := MustNew(Nexus4Config(), 0.5)
		w := math.Mod(math.Abs(load), 6)
		for _, charge := range ops {
			if charge {
				p.Charge(30)
			} else {
				p.Discharge(w, 30)
			}
			if p.SoC() < 0 || p.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy bookkeeping — charging then discharging the same energy
// never leaves the pack fuller than it started plus round-trip losses.
func TestNoFreeEnergyProperty(t *testing.T) {
	f := func(seed uint8) bool {
		p := MustNew(Nexus4Config(), 0.5)
		start := p.SoC()
		// Charge for n seconds, then discharge the stored energy at 2 W.
		n := 10 + int(seed)%50
		var stored float64
		for i := 0; i < n; i++ {
			_, s := p.Charge(1)
			stored += s / 3600
		}
		for drained := 0.0; drained < stored; {
			p.Discharge(2, 1)
			drained += 2.0 / 3600
		}
		return p.SoC() <= start+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChargeHeatPeekMatchesCharge pins the charging half of the
// peek-then-apply protocol: ChargeHeat is bit-equal to the heat Charge
// reports from the same state (CC, the CC/CV knee, CV and a full pack),
// and one Charge over a span of n ticks lands within a stated bound of n
// single-tick charges. The one-shot charge applies the span-start rate
// throughout, so the gap is second order in the span: at most 2e-3 of the
// SoC gained over a one-second span of 20 ticks, about twice the measured
// worst case (9.1e-4, at the CC/CV knee; 1.2e-5 to 5.9e-5 in CC).
func TestChargeHeatPeekMatchesCharge(t *testing.T) {
	const dt, n = 0.05, 20
	worst := 0.0
	for _, soc := range []float64{0, 0.05, 0.2, 0.5, 0.79, 0.8, 0.8001, 0.9, 0.99, 0.99999, 1} {
		p := MustNew(Nexus4Config(), soc)
		clone := func() *Pack { q := *p; return &q }
		peek := p.ChargeHeat()
		heat, _ := clone().Charge(dt)
		if math.Float64bits(peek) != math.Float64bits(heat) {
			t.Errorf("SoC %v: ChargeHeat %v, Charge heat %v", soc, peek, heat)
		}
		one := clone()
		one.Charge(n * dt)
		seq := clone()
		for i := 0; i < n; i++ {
			seq.Charge(dt)
		}
		gain := seq.SoC() - soc
		if gain == 0 {
			if one.SoC() != seq.SoC() {
				t.Errorf("SoC %v: one-shot charge %v, a full pack stays %v", soc, one.SoC(), seq.SoC())
			}
			continue
		}
		rel := math.Abs(one.SoC()-seq.SoC()) / gain
		worst = math.Max(worst, rel)
		if rel > 2e-3 {
			t.Errorf("SoC %v: one-shot charge gains %v, %d ticks gain %v (rel %.2e)", soc, one.SoC()-soc, n, gain, rel)
		}
	}
	t.Logf("worst one-shot/sequential gap: %.3e of the SoC gained", worst)
}
