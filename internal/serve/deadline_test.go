package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/fixed"
)

// slowParams makes a single small-code decode take milliseconds, so a
// queue behind one worker reliably outlives a short deadline.
func slowParams() fixed.Params {
	p := fixed.DefaultHighSpeedParams()
	p.DisableEarlyStop = true
	p.MaxIterations = 5000
	return p
}

// TestDeadlineExpiresQueuedFrames: with one slow worker and a short
// deadline, frames stuck behind the head of the queue must come back
// as ErrDeadline instead of waiting out the backlog — and the ledger
// must balance: every accepted frame is either decoded or deadlined.
func TestDeadlineExpiresQueuedFrames(t *testing.T) {
	c := smallCode(t)
	p := slowParams()
	s := newTestServer(t, Config{
		Code: c, Params: p, Workers: 1, MaxBatch: 1,
		Linger: 50 * time.Microsecond, QueueDepth: 1 << 10,
		Deadline: 2 * time.Millisecond,
	})
	q := noisyQ(t, c, p.Format, 2.5, 11)

	const burst = 8
	var deadlined, decoded atomic.Int64
	for round := 0; round < 50 && deadlined.Load() == 0; round++ {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.DecodeQ(q, nil)
				switch {
				case err == nil:
					decoded.Add(1)
				case errors.Is(err, ErrDeadline):
					if res.Bits != nil {
						t.Error("deadlined call returned a result")
					}
					deadlined.Add(1)
				default:
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if deadlined.Load() == 0 {
		t.Fatal("no frame hit the 2ms deadline behind a slow single worker")
	}

	// A frame a worker claims is delivered even when the decode alone
	// outlasts the deadline: the deadline bounds queueing, not an
	// in-flight decode. With no queue contention this must succeed.
	if _, err := s.DecodeQ(q, nil); err != nil {
		t.Fatalf("lone frame after deadline storm: %v", err)
	}
	decoded.Add(1)

	s.Close()
	snap := s.Metrics().Snapshot()
	if snap.FramesDeadline != deadlined.Load() {
		t.Errorf("metrics count %d deadlined, callers saw %d", snap.FramesDeadline, deadlined.Load())
	}
	if snap.FramesDecoded != decoded.Load() {
		t.Errorf("metrics count %d decoded, callers saw %d", snap.FramesDecoded, decoded.Load())
	}
	if snap.FramesIn != snap.FramesDecoded+snap.FramesDeadline {
		t.Errorf("accepted %d != decoded %d + deadlined %d: frames unaccounted for",
			snap.FramesIn, snap.FramesDecoded, snap.FramesDeadline)
	}
	if snap.QueueDepth != 0 || snap.InFlight != 0 {
		t.Errorf("queue %d / in-flight %d after Close", snap.QueueDepth, snap.InFlight)
	}
}

// TestDeadlineDisabledNeverExpires: the zero default must keep the old
// wait-forever contract.
func TestDeadlineDisabledNeverExpires(t *testing.T) {
	c := smallCode(t)
	p := slowParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, MaxBatch: 1, QueueDepth: 1 << 8})
	q := noisyQ(t, c, p.Format, 2.5, 13)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.DecodeQ(q, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := s.Metrics().Snapshot().FramesDeadline; n != 0 {
		t.Errorf("%d frames deadlined with deadlines disabled", n)
	}
}

func TestDeadlineConfigValidation(t *testing.T) {
	c := smallCode(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative deadline", Config{Code: c, Deadline: -time.Second}},
		{"sub-second health window", Config{Code: c, HealthWindow: 500 * time.Millisecond}},
		{"health threshold above 1", Config{Code: c, HealthThreshold: 1.5}},
		{"negative health threshold", Config{Code: c, HealthThreshold: -0.1}},
		{"negative health min samples", Config{Code: c, HealthMinSamples: -1}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	s := newTestServer(t, Config{Code: c})
	cfg := s.Config()
	if cfg.Deadline != 0 || cfg.HealthWindow != 30*time.Second || cfg.HealthThreshold != 0.5 || cfg.HealthMinSamples != 20 {
		t.Errorf("health/deadline defaults not resolved: %+v", cfg)
	}
}

// TestHealthWindow drives the sliding window with an injected clock:
// healthy while under-sampled, unhealthy once the windowed failure
// rate crosses the threshold, healthy again after the bad second ages
// out of the window.
func TestHealthWindow(t *testing.T) {
	h := newLatch(5*time.Second, 0.5, 0.25, 10)
	now := time.Unix(1_000_000, 0)
	h.setNow(func() time.Time { return now })

	if st := h.status(); !st.Healthy || st.Samples != 0 {
		t.Fatalf("empty window: %+v", st)
	}
	// Nine failures: all failing but still below minSamples.
	for i := 0; i < 9; i++ {
		h.record(false)
	}
	if st := h.status(); !st.Healthy {
		t.Fatalf("under-sampled window flagged unhealthy: %+v", st)
	}
	// The tenth sample reaches minSamples at failure rate 1.0.
	h.record(false)
	st := h.status()
	if st.Healthy || st.Samples != 10 || st.FailureRate != 1.0 {
		t.Fatalf("saturated failures still healthy: %+v", st)
	}
	// Two seconds later, a flood of successes dilutes the rate below
	// the threshold: 10 failed of 40 total = 0.25.
	now = now.Add(2 * time.Second)
	for i := 0; i < 30; i++ {
		h.record(true)
	}
	st = h.status()
	if !st.Healthy || st.Samples != 40 || st.FailureRate != 0.25 {
		t.Fatalf("diluted window: %+v", st)
	}
	// Six seconds past the failures, they have aged out of the 5s
	// window; only stale ring slots remain and must not count.
	now = now.Add(4 * time.Second)
	st = h.status()
	if !st.Healthy || st.Samples != 30 {
		t.Fatalf("expired failures still counted: %+v", st)
	}
	now = now.Add(5 * time.Second)
	if st := h.status(); st.Samples != 0 {
		t.Fatalf("fully aged window not empty: %+v", st)
	}
}

// TestHealthTracksDecodeOutcomes: DecodeQ feeds the health signal —
// shed and deadlined frames count as failures, converged decodes as
// successes.
func TestHealthTracksDecodeOutcomes(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 2, Linger: time.Millisecond, HealthMinSamples: 3})
	q := noisyQ(t, c, p.Format, 3.0, 17)
	for i := 0; i < 5; i++ {
		if _, err := s.DecodeQ(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.HealthSnapshot()
	if !st.Healthy || st.Samples != 5 || st.FailureRate != 0 {
		t.Fatalf("healthy traffic: %+v", st)
	}
}

// TestServerGoroutineLeak: a full create → decode → Close cycle must
// return the process to its prior goroutine count — the worker pool
// and every caller must actually exit.
func TestServerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s, err := New(Config{Code: c, Params: p, Workers: 4, Linger: time.Millisecond, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	q := noisyQ(t, c, p.Format, 3.0, 19)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.DecodeQ(q, nil); err != nil && !errors.Is(err, ErrDeadline) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak polls until the goroutine count settles back to
// the baseline (finished goroutines are reaped asynchronously, so one
// immediate sample would flake).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, now)
}
