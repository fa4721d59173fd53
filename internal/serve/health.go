package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// rateWindow is a sliding window of per-second outcome counters.
// Callers provide their own locking.
type rateWindow struct {
	buckets []rateBucket // ring of per-second counters
	now     func() time.Time
}

type rateBucket struct {
	sec           int64 // unix second this bucket currently counts
	total, failed int64
}

func newRateWindow(window time.Duration, now func() time.Time) *rateWindow {
	secs := int(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &rateWindow{buckets: make([]rateBucket, secs), now: now}
}

// record adds one outcome to the current second's bucket.
func (w *rateWindow) record(ok bool) {
	sec := w.now().Unix()
	b := &w.buckets[sec%int64(len(w.buckets))]
	if b.sec != sec {
		b.sec, b.total, b.failed = sec, 0, 0
	}
	b.total++
	if !ok {
		b.failed++
	}
}

// totals sums the buckets currently inside the window; stale ring slots
// belong to a previous lap and are skipped.
func (w *rateWindow) totals() (total, failed int64) {
	sec := w.now().Unix()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.sec > sec-int64(len(w.buckets)) && b.sec <= sec {
			total += b.total
			failed += b.failed
		}
	}
	return total, failed
}

// latch is the hysteretic trip/recover switch over a sliding window of
// outcomes that runs both of a server's self-healing signals:
//
//   - Health: a sample per frame answered or shed, failure meaning
//     shed, deadline exceeded, decode error or an unconverged result.
//     A tripped health latch reports the instance unhealthy on
//     /healthz, so a decoder drowning in noise, shedding load or
//     missing deadlines is rotated out before clients see sustained
//     bad service. It is evaluated at each poll (status).
//   - The uncorrectable-frame circuit breaker: a sample per decode
//     outcome only (errors, crashes, unconverged frames — the
//     service-level face of SEU-induced damage, not load). A tripped
//     breaker drops the workers to Config.DegradedIterations, cutting
//     per-frame cost so the instance rides out a fault storm at
//     reduced quality before health gives up on it. It is evaluated at
//     each recorded outcome (recordEval), so the workers switch budget
//     as soon as the rate crosses.
//
// The latch trips when the windowed failure rate reaches trip, once the
// window holds minSamples (so an idle or freshly started server stays
// untripped), and recovers only when the rate falls to recover. Without
// the gap a rate hovering at the threshold would flap the state at
// every evaluation; with it each transition crosses the full band.
type latch struct {
	mu         sync.Mutex
	win        *rateWindow
	trip       float64
	recover    float64
	minSamples int64

	tripped atomic.Bool  // the latched state, readable without the lock
	trips   atomic.Int64 // untripped→tripped transitions
}

func newLatch(window time.Duration, trip, recover float64, minSamples int) *latch {
	return &latch{
		win:        newRateWindow(window, time.Now),
		trip:       trip,
		recover:    recover,
		minSamples: int64(minSamples),
	}
}

// setNow injects a clock for tests.
func (l *latch) setNow(now func() time.Time) {
	l.mu.Lock()
	l.win.now = now
	l.mu.Unlock()
}

// record adds one outcome to the window.
func (l *latch) record(ok bool) {
	l.mu.Lock()
	l.win.record(ok)
	l.mu.Unlock()
}

// recordEval adds one outcome and applies the transition at once.
func (l *latch) recordEval(ok bool) {
	l.mu.Lock()
	l.win.record(ok)
	l.eval()
	l.mu.Unlock()
}

// status applies the transition now and reports the window as the
// verdict half of a HealthSnapshot: Healthy while untripped.
func (l *latch) status() HealthSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	rate, samples := l.eval()
	return HealthSnapshot{
		Healthy:     !l.tripped.Load(),
		FailureRate: rate,
		Samples:     samples,
		WindowSecs:  len(l.win.buckets),
	}
}

// eval applies the hysteretic transition to the window's current rate
// and returns that rate and the window's sample count. l.mu is held.
func (l *latch) eval() (rate float64, samples int64) {
	total, failed := l.win.totals()
	if total > 0 {
		rate = float64(failed) / float64(total)
	}
	if !l.tripped.Load() {
		if total >= l.minSamples && rate >= l.trip {
			l.tripped.Store(true)
			l.trips.Add(1)
		}
	} else if rate <= l.recover {
		l.tripped.Store(false)
	}
	return rate, total
}

// HealthSnapshot is one instance's routable state in a single struct:
// the hysteretic health verdict and the frame counts, circuit-breaker
// state included, that a front tier folds into routing weights. It is
// the one source of truth shared by the local /healthz handler and a
// fleet router's health poller — both see exactly the same verdict at
// the same instant, so an instance can never look healthy to its own
// endpoint while a router drains it (or vice versa).
type HealthSnapshot struct {
	// Healthy is the hysteretic /healthz verdict (trip/recover band
	// applied); an unhealthy instance should be drained, not dropped.
	Healthy     bool    `json:"healthy"`
	FailureRate float64 `json:"failure_rate"`
	Samples     int64   `json:"samples"`
	WindowSecs  int     `json:"window_s"`
	// Counts carries the frame totals a poller can difference into
	// rates without scraping /metrics, and the load and breaker gauges
	// it folds into routing weights. A Degraded instance still answers,
	// at the reduced iteration budget: a router should down-weight it,
	// not drain it.
	Counts
}

// HealthSnapshot assembles the instance's routable state. Calling it is
// an observation point for the hysteretic health transition, exactly
// like a /healthz poll.
func (s *Server) HealthSnapshot() HealthSnapshot {
	hs := s.health.status()
	hs.Counts = s.metrics.counts()
	return hs
}
