package thermal

import (
	"math"
	"testing"
)

// skypePower is a deterministic 900 s Skype-call-like drive: a bursty CPU
// envelope, display power, a mid-call charger window injecting battery
// heat, and board-level aux power. It exists so the differential test
// exercises the same input shape the paper's Fig. 4 workload produces
// without importing the workload package.
func skypePower(t float64) (die, pkg, pcb, battery, screen float64) {
	die = 1.6
	if math.Mod(t, 10) < 6 {
		die = 2.4
	}
	die += 0.3 * math.Sin(t/37)
	pkg = 0.5 + 0.2*math.Sin(t/53)
	pcb = 0.7 // camera + radio
	if t >= 300 && t < 600 {
		battery = 1.1 // charger plugged in for the middle five minutes
	}
	screen = 0.45
	return
}

// TestPropagatorMatchesRK4OnPhone is the differential test demanded by the
// engine change: the exact-propagator path and the RK4 oracle must agree to
// within 0.01 °C on every node over a 900 s Skype-like run on the full
// phone configuration, across touch on/off transitions, an ambient change,
// and charger heat.
func TestPropagatorMatchesRK4OnPhone(t *testing.T) {
	cfg := DefaultPhoneConfig()
	exact, en := NewPhone(cfg)
	oracle, on := NewPhone(cfg)
	oracle.UseRK4(true)

	const dt = 0.05
	var maxDiff float64
	touching := false
	for i := 0; i < 18000; i++ {
		tm := float64(i) * dt
		die, pkg, pcb, bat, scr := skypePower(tm)
		for _, nw := range []*Network{exact, oracle} {
			nodes := en
			if nw == oracle {
				nodes = on
			}
			nw.SetPower(nodes.Die, die)
			nw.SetPower(nodes.Pkg, pkg)
			nw.SetPower(nodes.PCB, pcb)
			nw.SetPower(nodes.Battery, bat)
			nw.SetPower(nodes.Screen, scr)
		}
		// Pick the phone up / put it down every 2 minutes.
		if wantTouch := int(tm/120)%2 == 1; wantTouch != touching {
			touching = wantTouch
			ApplyTouch(exact, en, cfg, touching)
			ApplyTouch(oracle, on, cfg, touching)
		}
		// Walk outside at t = 450 s.
		if i == 9000 {
			exact.SetAmbient(18)
			oracle.SetAmbient(18)
		}
		exact.Step(dt)
		oracle.StepRK4(dt)
		for id := NodeID(0); int(id) < exact.NumNodes(); id++ {
			if d := math.Abs(exact.Temp(id) - oracle.Temp(id)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 0.01 {
		t.Fatalf("propagator vs RK4 diverged: max |ΔT| = %.5f °C, want ≤ 0.01", maxDiff)
	}
	if exact.Temp(en.CoverMid) < 30 {
		t.Fatalf("run never left the trivial regime: cover-mid %.1f °C", exact.Temp(en.CoverMid))
	}
}

// TestPropagatorEnergyBalance checks the exact path conserves energy: with
// no baths, the heat content must change by exactly the injected power
// integral (ΣCᵢTᵢ(t) − ΣCᵢTᵢ(0) = P·t), and with zero power it must not
// change at all.
func TestPropagatorEnergyBalance(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 2, 40)
	b := n.AddNode("b", 9, 25)
	c := n.AddNode("c", 18, 25)
	n.Connect(a, b, 3)
	n.Connect(b, c, 5)
	n.Connect(a, c, 7)

	start := n.TotalHeatContent()
	for i := 0; i < 2000; i++ {
		n.Step(0.05)
	}
	if drift := math.Abs(n.TotalHeatContent() - start); drift > 1e-8 {
		t.Fatalf("isolated network drifted %.3e J over 100 s", drift)
	}

	n.SetPower(a, 1.5)
	n.SetPower(c, 0.25)
	start = n.TotalHeatContent()
	const dur = 100.0
	for i := 0; i < 2000; i++ {
		n.Step(0.05)
	}
	want := (1.5 + 0.25) * dur
	if got := n.TotalHeatContent() - start; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("energy balance: gained %.9f J, want %.9f J", got, want)
	}
}

// TestPropagatorReachesSteadyState: the exact path must converge to the
// same equilibrium the direct solver computes.
func TestPropagatorReachesSteadyState(t *testing.T) {
	cfg := DefaultPhoneConfig()
	n, nodes := NewPhone(cfg)
	n.SetPower(nodes.Die, 2.0)
	n.SetPower(nodes.Screen, 0.4)
	ss, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		n.Step(1)
	}
	for id := NodeID(0); int(id) < n.NumNodes(); id++ {
		if d := math.Abs(n.Temp(id) - ss[id]); d > 1e-6 {
			t.Fatalf("node %s: transient %.8f vs steady state %.8f", n.Name(id), n.Temp(id), ss[id])
		}
	}
}

// TestApplyTouchReusesCachedPropagators: flipping touch must settle on two
// cached propagators, not rebuild one per transition.
func TestApplyTouchReusesCachedPropagators(t *testing.T) {
	cfg := DefaultPhoneConfig()
	n, nodes := NewPhone(cfg)
	for flip := 0; flip < 50; flip++ {
		ApplyTouch(n, nodes, cfg, flip%2 == 0)
		for i := 0; i < 10; i++ {
			n.Step(0.05)
		}
	}
	if got := len(n.props); got != 2 {
		t.Fatalf("propagator cache holds %d entries after touch flips, want 2", got)
	}
}

// TestStepMatchesStepRK4Defaults: small sanity check that UseRK4 actually
// switches engines and both advance the state.
func TestStepMatchesStepRK4Defaults(t *testing.T) {
	n := NewNetwork(25)
	a := n.AddNode("a", 5, 60)
	n.ConnectAmbient(a, 10)
	n.Step(5)
	cooledExact := n.Temp(a)
	if cooledExact >= 60 {
		t.Fatal("propagator did not cool the node")
	}
	m := NewNetwork(25)
	b := m.AddNode("a", 5, 60)
	m.ConnectAmbient(b, 10)
	m.UseRK4(true)
	m.Step(5)
	// RK4 carries O((h/τ)⁵) truncation error; the propagator is exact.
	if math.Abs(m.Temp(b)-cooledExact) > 1e-4 {
		t.Fatalf("engines disagree: exact %.8f vs RK4 %.8f", cooledExact, m.Temp(b))
	}
}

// TestPropagatorForHitsSharedCacheOnce pins the fleet-relevant behaviour:
// two networks with identical configurations share one matrix-exponential
// build — the second network's local-cache miss is a shared-cache hit.
func TestPropagatorForHitsSharedCacheOnce(t *testing.T) {
	cfg := DefaultPhoneConfig()
	// A distinctive dt keeps this test's key out of other tests' way.
	const dt = 0.05 + 1e-9
	h0, m0 := sharedProps.stats()
	a, _ := NewPhone(cfg)
	b, _ := NewPhone(cfg)
	a.Step(dt)
	b.Step(dt)
	h1, m1 := sharedProps.stats()
	if m1-m0 != 1 {
		t.Fatalf("shared cache misses = %d, want exactly 1 build for two identical networks", m1-m0)
	}
	if h1-h0 != 1 {
		t.Fatalf("shared cache hits = %d, want exactly 1 (second network reuses the build)", h1-h0)
	}
	// Subsequent steps are served by the per-network MRU: no new shared
	// traffic at all.
	a.Step(dt)
	b.Step(dt)
	h2, m2 := sharedProps.stats()
	if h2 != h1 || m2 != m1 {
		t.Fatalf("per-network MRU bypass failed: shared stats moved %d/%d → %d/%d", h1, m1, h2, m2)
	}
}
