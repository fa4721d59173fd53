package serve

import (
	"sync"
	"time"
)

// rateWindow is a sliding window of per-second outcome counters, shared
// by the health signal and the uncorrectable-frame circuit breaker.
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

// Health tracks the server's decode-failure rate over a sliding window
// of per-second buckets, driving a load-balancer-facing /healthz
// endpoint: a decoder drowning in noise (unconverged frames), shedding
// load, or missing deadlines should be rotated out before clients see
// sustained bad service, while a brief blip inside the window should
// not flap the instance.
//
// A sample is recorded per frame answered or shed: failure means shed,
// deadline exceeded, decode error, or an unconverged result. The
// healthy/unhealthy transition is hysteretic: the instance trips
// unhealthy when the windowed failure rate reaches the trip threshold
// (once the window holds a minimum number of samples, so an idle or
// freshly started server is healthy) and recovers only when the rate
// falls to the lower recover threshold. Without the gap, a failure rate
// hovering at the threshold would flap the instance in and out of the
// load balancer on every poll; with it, each transition requires the
// rate to cross the full band.
type Health struct {
	mu         sync.Mutex
	win        *rateWindow
	trip       float64
	recover    float64
	minSamples int64
	tripped    bool // latched unhealthy state
}

func newHealth(window time.Duration, trip, recover float64, minSamples int) *Health {
	return &Health{
		win:        newRateWindow(window, time.Now),
		trip:       trip,
		recover:    recover,
		minSamples: int64(minSamples),
	}
}

// setNow injects a clock for tests.
func (h *Health) setNow(now func() time.Time) {
	h.mu.Lock()
	h.win.now = now
	h.mu.Unlock()
}

// Record adds one decode outcome to the window.
func (h *Health) Record(ok bool) {
	h.mu.Lock()
	h.win.record(ok)
	h.mu.Unlock()
}

// HealthStatus is the /healthz report.
type HealthStatus struct {
	Healthy     bool    `json:"healthy"`
	FailureRate float64 `json:"failure_rate"`
	Samples     int64   `json:"samples"`
	WindowSecs  int     `json:"window_s"`
	Threshold   float64 `json:"threshold"`
	// RecoverThreshold is the failure rate an unhealthy instance must
	// fall to before it reports healthy again (hysteresis).
	RecoverThreshold float64 `json:"recover_threshold"`
}

// HealthSnapshot is one instance's routable state in a single struct:
// the hysteretic health verdict, the circuit-breaker state, and the
// load counters a front tier folds into routing weights. It is the one
// source of truth shared by the local /healthz handler and a fleet
// router's health poller — both see exactly the same verdict at the
// same instant, so an instance can never look healthy to its own
// endpoint while a router drains it (or vice versa).
type HealthSnapshot struct {
	// Healthy is the hysteretic /healthz verdict (trip/recover band
	// applied); an unhealthy instance should be drained, not dropped.
	Healthy     bool    `json:"healthy"`
	FailureRate float64 `json:"failure_rate"`
	Samples     int64   `json:"samples"`
	WindowSecs  int     `json:"window_s"`
	// Degraded reports a tripped circuit breaker: the instance still
	// answers but at the reduced iteration budget — a router should
	// down-weight it, not drain it.
	Degraded     bool  `json:"degraded"`
	BreakerTrips int64 `json:"breaker_trips"`
	// QueueDepth and InFlight are the instantaneous load signals
	// (frames accepted but undispatched, and frames inside workers).
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
	// Window counters: cumulative totals a poller can difference to get
	// rates without scraping the full /metrics snapshot.
	FramesIn       int64 `json:"frames_in"`
	FramesDecoded  int64 `json:"frames_decoded"`
	FramesShed     int64 `json:"frames_shed"`
	FramesDeadline int64 `json:"frames_deadline"`
	FramesCrashed  int64 `json:"frames_crashed"`
}

// HealthSnapshot assembles the instance's routable state. Calling it is
// an observation point for the hysteretic health transition, exactly
// like a /healthz poll.
func (s *Server) HealthSnapshot() HealthSnapshot {
	hs := s.health.Status()
	return HealthSnapshot{
		Healthy:        hs.Healthy,
		FailureRate:    hs.FailureRate,
		Samples:        hs.Samples,
		WindowSecs:     hs.WindowSecs,
		Degraded:       s.breaker.Degraded(),
		BreakerTrips:   s.breaker.Trips(),
		QueueDepth:     s.metrics.queued.Load(),
		InFlight:       s.metrics.pending.Load(),
		FramesIn:       s.metrics.framesIn.Load(),
		FramesDecoded:  s.metrics.framesDecoded.Load(),
		FramesShed:     s.metrics.framesShed.Load(),
		FramesDeadline: s.metrics.framesDeadline.Load(),
		FramesCrashed:  s.metrics.framesCrashed.Load(),
	}
}

// Status evaluates the window now and applies the hysteretic state
// transition; each /healthz poll is an observation point.
func (h *Health) Status() HealthStatus {
	h.mu.Lock()
	total, failed := h.win.totals()
	st := HealthStatus{
		Samples:          total,
		WindowSecs:       len(h.win.buckets),
		Threshold:        h.trip,
		RecoverThreshold: h.recover,
	}
	if total > 0 {
		st.FailureRate = float64(failed) / float64(total)
	}
	if !h.tripped {
		if total >= h.minSamples && st.FailureRate >= h.trip {
			h.tripped = true
		}
	} else if st.FailureRate <= h.recover {
		h.tripped = false
	}
	st.Healthy = !h.tripped
	h.mu.Unlock()
	return st
}
