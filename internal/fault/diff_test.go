package fault

import "testing"

// TestCrossDecoderEquivalence is the differential core of the fault
// framework: over 104 seeded scenarios (mixing SEUs, stuck-at units and
// channel erasures, alternating fixed-period and early-stop schedules)
// the scalar fixed-point decoder, every lane of the SWAR batch decoder,
// every sharded and wide-lane geometry in the default matrix, and — on
// the fixed-period half — the cycle-accurate machine must emit
// identical hard decisions, iteration counts and convergence flags.
func TestCrossDecoderEquivalence(t *testing.T) {
	rep, err := CrossCheck(CheckConfig{
		Code:      testCode(t),
		Params:    testParams(),
		Scenarios: 104,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("decoders diverged: %v", err)
	}
	if rep.Scenarios != 104 {
		t.Errorf("replayed %d scenarios, want 104", rep.Scenarios)
	}
	if rep.HwsimScenarios != 52 {
		t.Errorf("hwsim joined %d scenarios, want 52", rep.HwsimScenarios)
	}
	if rep.LanesCompared != 104*8 {
		t.Errorf("compared %d lanes, want %d", rep.LanesCompared, 104*8)
	}
	if rep.ParallelLanesCompared != 104*6*8 {
		t.Errorf("compared %d sharded lanes, want %d (6 geometries)", rep.ParallelLanesCompared, 104*6*8)
	}
	if rep.SEUs == 0 {
		t.Error("campaign injected no SEUs")
	}
	if rep.Stuck == 0 {
		t.Error("campaign injected no stuck-at faults")
	}
	if rep.Erasures == 0 {
		t.Error("campaign injected no erasures")
	}
	if rep.Converged == 0 {
		t.Error("no lane converged; operating point too harsh to be informative")
	}
	t.Logf("cross-check: %d scenarios (%d with hwsim), %d lanes, %d SEUs, %d stuck-at, %d erasures, %d converged lanes",
		rep.Scenarios, rep.HwsimScenarios, rep.LanesCompared, rep.SEUs, rep.Stuck, rep.Erasures, rep.Converged)
}

// TestCrossCheckHighUpsetRate stresses the equivalence at a much higher
// upset rate (mean ~40 upsets per scenario), where saturated codes and
// the −2^(q−1) corner value occur routinely.
func TestCrossCheckHighUpsetRate(t *testing.T) {
	g, err := NewGeometry(testCode(t), testParams().Format)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := RandomConfig{Lanes: 8, Iterations: testParams().MaxIterations}
	rep, err := CrossCheck(CheckConfig{
		Code:      testCode(t),
		Params:    testParams(),
		Scenarios: 24,
		Seed:      2,
		UpsetRate: 40 / rcfg.Exposure(g),
	})
	if err != nil {
		t.Fatalf("decoders diverged: %v", err)
	}
	if rep.SEUs < 24*20 {
		t.Errorf("only %d SEUs injected; expected roughly 40 per scenario", rep.SEUs)
	}
}
