package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/fixed"
)

// TestWorkerPanicIsolated: an injected panic inside a worker's decode
// neither crashes the server nor loses the claimed frames — every
// caller in the crashed batch gets ErrWorkerCrash, the worker restarts
// with a fresh decoder, and subsequent decodes are still bit-exact.
func TestWorkerPanicIsolated(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	var boom atomic.Int64
	cfg := Config{
		Code:     c,
		Params:   p,
		Workers:  1,
		MaxBatch: 8,
		Linger:   5 * time.Millisecond,
		panicHook: func(worker int) {
			if boom.Add(1) == 1 {
				panic("injected SEU in worker control logic")
			}
		},
	}
	s := newTestServer(t, cfg)
	defer s.Close()

	const frames = 8
	qs := make([][]int16, frames)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 4.0, uint64(300+i))
	}
	ref := scalarRef(t, c, p, qs)

	// First wave rides the crashing batch: every caller must come back
	// with ErrWorkerCrash, and nobody may hang.
	var wg sync.WaitGroup
	errs := make([]error, frames)
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.DecodeQ(qs[i], nil)
		}(i)
	}
	wg.Wait()
	crashed := 0
	for i, err := range errs {
		switch {
		case errors.Is(err, ErrWorkerCrash):
			crashed++
		case err == nil:
			// A frame that arrived after the crash was decoded by the
			// restarted worker; that is fine.
		default:
			t.Fatalf("frame %d: unexpected error %v", i, err)
		}
	}
	if crashed == 0 {
		t.Fatal("no caller observed the crash")
	}

	// Second wave: the restarted worker must decode bit-exactly.
	for i := 0; i < frames; i++ {
		res, err := s.DecodeQ(qs[i], nil)
		if err != nil {
			t.Fatalf("frame %d after restart: %v", i, err)
		}
		if !res.Bits.Equal(ref[i].bits) || res.Iterations != ref[i].iterations || res.Converged != ref[i].converged {
			t.Fatalf("frame %d after restart diverges from scalar reference", i)
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.WorkerRestarts != 1 {
		t.Errorf("worker restarts = %d, want 1", snap.WorkerRestarts)
	}
	if snap.FramesCrashed != int64(crashed) {
		t.Errorf("frames crashed = %d, callers saw %d", snap.FramesCrashed, crashed)
	}
}

// TestWorkerPanicRepeatedly: every batch panicking in a row still never
// crashes the server, and each crash rebuilds the decoder.
func TestWorkerPanicRepeatedly(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	var calls atomic.Int64
	cfg := Config{
		Code:     c,
		Params:   p,
		Workers:  2,
		MaxBatch: 1,
		panicHook: func(worker int) {
			if calls.Add(1) <= 3 {
				panic("repeated injected crash")
			}
		},
	}
	s := newTestServer(t, cfg)
	defer s.Close()
	q := noisyQ(t, c, p.Format, 4.0, 77)
	got := 0
	for i := 0; i < 10; i++ {
		_, err := s.DecodeQ(q, nil)
		if err == nil {
			got++
		} else if !errors.Is(err, ErrWorkerCrash) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if got == 0 {
		t.Fatal("server never recovered")
	}
	if snap := s.Metrics().Snapshot(); snap.WorkerRestarts != 3 {
		t.Errorf("worker restarts = %d, want 3", snap.WorkerRestarts)
	}
}

// TestBreakerDegradesAndRecoversEndToEnd: sustained undecodable traffic
// trips the breaker; the worker pool drops to the degraded iteration
// budget (observable in results and the metrics snapshot); clean traffic
// then recovers full iterations.
func TestBreakerDegradesAndRecoversEndToEnd(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = 12
	cfg := Config{
		Code:              c,
		Params:            p,
		Workers:           1,
		MaxBatch:          1,
		BreakerMinSamples: 4,
		BreakerTrip:       0.5,
		BreakerRecover:    0.05,
	}
	s := newTestServer(t, cfg)
	defer s.Close()
	if s.Config().DegradedIterations != 6 {
		t.Fatalf("degraded iterations = %d, want 6", s.Config().DegradedIterations)
	}

	// Undecodable traffic: deep-noise frames do not converge, so every
	// completion records a failure.
	junk := noisyQ(t, c, p.Format, -4.0, 13)
	for i := 0; i < 8 && !s.breaker.tripped.Load(); i++ {
		if _, err := s.DecodeQ(junk, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !s.breaker.tripped.Load() {
		t.Fatal("breaker did not trip on sustained decode failures")
	}
	if snap := s.Metrics().Snapshot(); !snap.Degraded || snap.BreakerTrips == 0 {
		t.Fatalf("degraded mode not observable in metrics: %+v", snap)
	}

	// Under the tripped breaker a junk frame burns only the degraded
	// budget — the compute shed that lets the instance ride the storm.
	res, err := s.DecodeQ(junk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 {
		t.Fatalf("degraded decode ran %d iterations, want 6", res.Iterations)
	}

	// Clean traffic dilutes the failure rate to the recover threshold;
	// full iterations come back.
	good := noisyQ(t, c, p.Format, 6.0, 14)
	for i := 0; i < 400 && s.breaker.tripped.Load(); i++ {
		if _, err := s.DecodeQ(good, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.breaker.tripped.Load() {
		t.Fatal("breaker never recovered on clean traffic")
	}
	if snap := s.Metrics().Snapshot(); snap.Degraded {
		t.Fatalf("metrics still degraded after recovery: %+v", snap)
	}
	res, err = s.DecodeQ(junk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 12 {
		t.Fatalf("recovered decode ran %d iterations, want full 12", res.Iterations)
	}
}
