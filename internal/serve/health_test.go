package serve

import (
	"ccsdsldpc/internal/batch"

	"testing"
	"time"
)

// TestHealthHysteresisBothWays drives the health signal across the
// trip/recover band in both directions with an injected clock: a rate
// crossing the trip threshold flips the instance unhealthy, a rate
// merely re-entering the band does NOT flip it back (no flapping), and
// only falling to the recover threshold restores it.
func TestHealthHysteresisBothWays(t *testing.T) {
	h := newLatch(30*time.Second, 0.5, 0.2, 10)
	now := time.Unix(2_000_000, 0)
	h.setNow(func() time.Time { return now })

	record := func(ok, fail int) {
		for i := 0; i < ok; i++ {
			h.record(true)
		}
		for i := 0; i < fail; i++ {
			h.record(false)
		}
	}

	// 10 samples at failure rate 0.6 ≥ trip 0.5: trips unhealthy.
	record(4, 6)
	st := h.status()
	if st.Healthy || st.FailureRate != 0.6 {
		t.Fatalf("rate 0.6 did not trip: %+v", st)
	}
	if h.trip != 0.5 || h.recover != 0.2 {
		t.Fatalf("latch holds trip %v and recover %v, want 0.5 and 0.2", h.trip, h.recover)
	}

	// Dilute into the hysteresis band: 6 failed of 20 = 0.30. Inside
	// (recover, trip), the latched state holds — still unhealthy.
	now = now.Add(time.Second)
	record(10, 0)
	st = h.status()
	if st.Healthy {
		t.Fatalf("rate %.2f inside the band recovered early: %+v", st.FailureRate, st)
	}
	if st.FailureRate != 0.3 {
		t.Fatalf("rate = %v, want 0.3", st.FailureRate)
	}

	// Dilute to the recover threshold: 6 failed of 30 = 0.2 ≤ 0.2.
	now = now.Add(time.Second)
	record(10, 0)
	if st = h.status(); !st.Healthy {
		t.Fatalf("rate %.2f at recover threshold did not restore: %+v", st.FailureRate, st)
	}

	// And back up: once healthy, the band again protects against a
	// re-trip below the trip threshold. 6+8=14 failed of 38 ≈ 0.37.
	now = now.Add(time.Second)
	record(0, 8)
	st = h.status()
	if !st.Healthy {
		t.Fatalf("rate %.2f below trip re-tripped: %+v", st.FailureRate, st)
	}
	// Push over the trip threshold again: 14+16=30 failed of 54 ≈ 0.56.
	record(0, 16)
	if st = h.status(); st.Healthy {
		t.Fatalf("rate %.2f at trip threshold stayed healthy: %+v", st.FailureRate, st)
	}
}

// TestHealthHysteresisDefaults: the server resolves a recover threshold
// of half the trip threshold, and rejects an inverted band.
func TestHealthHysteresisDefaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	cfg := s.Config()
	if cfg.HealthRecoverThreshold != cfg.HealthThreshold/2 {
		t.Errorf("recover threshold default = %v, want %v", cfg.HealthRecoverThreshold, cfg.HealthThreshold/2)
	}
	bad := Config{Code: smallCode(t), HealthThreshold: 0.4, HealthRecoverThreshold: 0.4}
	if _, err := New(bad); err == nil {
		t.Error("recover ≥ trip accepted")
	}
}

// TestBreakerTripAndRecover drives the circuit breaker across both
// transitions with an injected clock and checks the latched state, the
// trip counter and the metrics snapshot that reads them.
func TestBreakerTripAndRecover(t *testing.T) {
	b := newLatch(10*time.Second, 0.3, 0.1, 10)
	m := newMetrics(1, batch.Lanes, b)
	now := time.Unix(3_000_000, 0)
	b.setNow(func() time.Time { return now })

	for i := 0; i < 6; i++ {
		b.recordEval(true)
	}
	for i := 0; i < 3; i++ {
		b.recordEval(false)
	}
	// 9 samples: below min samples, must not trip even at rate 0.33.
	if b.tripped.Load() {
		t.Fatal("breaker tripped under-sampled")
	}
	b.recordEval(false) // 4 failed of 10 = 0.4 ≥ trip 0.3
	if !b.tripped.Load() || b.trips.Load() != 1 {
		t.Fatalf("breaker did not trip: degraded=%v trips=%d", b.tripped.Load(), b.trips.Load())
	}
	snap := m.Snapshot()
	if !snap.Degraded || snap.BreakerTrips != 1 {
		t.Fatalf("metrics do not report the trip: %+v", snap)
	}

	// Dilute into the band: 4 of 20 = 0.2 — stays degraded (latched).
	now = now.Add(time.Second)
	for i := 0; i < 10; i++ {
		b.recordEval(true)
	}
	if !b.tripped.Load() {
		t.Fatal("breaker recovered inside the hysteresis band")
	}
	// Dilute to the recover threshold: 4 of 40 = 0.1 ≤ 0.1.
	now = now.Add(time.Second)
	for i := 0; i < 20; i++ {
		b.recordEval(true)
	}
	if b.tripped.Load() {
		t.Fatal("breaker did not recover")
	}
	if snap := m.Snapshot(); snap.Degraded || snap.BreakerTrips != 1 {
		t.Fatalf("metrics do not report the recovery: %+v", snap)
	}
}

func TestBreakerConfigValidation(t *testing.T) {
	c := smallCode(t)
	bad := []Config{
		{Code: c, BreakerTrip: 1.5},
		{Code: c, BreakerTrip: 0.3, BreakerRecover: 0.3},
		{Code: c, BreakerWindow: time.Millisecond},
		{Code: c, BreakerMinSamples: -1},
		{Code: c, DegradedIterations: -3},
		{Code: c, DegradedIterations: 10000},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad breaker config %d accepted", i)
		}
	}
	s := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	cfg := s.Config()
	want := cfg.Params.MaxIterations / 2
	if want < 1 {
		want = 1
	}
	if cfg.DegradedIterations != want {
		t.Errorf("degraded iterations default = %d, want %d", cfg.DegradedIterations, want)
	}
	if cfg.BreakerWindow != 10*time.Second || cfg.BreakerTrip != 0.3 || cfg.BreakerRecover != 0.1 || cfg.BreakerMinSamples != 20 {
		t.Errorf("breaker defaults not resolved: %+v", cfg)
	}
}
