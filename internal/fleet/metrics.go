package fleet

import (
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/serve"
)

// Metrics is the fleet-wide instrumentation: the router's own counters
// plus a per-backend breakdown with each backend's live state and
// weight, aggregated into one snapshot the way a fleet /metrics
// endpoint serves it.
type Metrics struct {
	r *Router

	framesIn        atomic.Int64 // submissions to an open router
	framesRouted    atomic.Int64 // submissions that found a backend
	framesCompleted atomic.Int64 // submissions answered with a backend response
	framesLost      atomic.Int64 // reported lost after connection death
	framesDeadline  atomic.Int64 // exhausted RequestTimeout
	shedUpstream    atomic.Int64 // ErrOverloaded/ErrNoBackends to callers

	requeues     atomic.Int64 // frames moved to another backend (loss or shed)
	hedges       atomic.Int64 // duplicate attempts raced for latency
	budgetDenied atomic.Int64 // retry/hedge requests the budget refused

	latency serve.Histogram // Submit entry to backend response, completed frames
}

func newMetrics(r *Router) *Metrics { return &Metrics{r: r} }

// completed counts a frame answered with a backend response that
// entered Submit at start.
func (m *Metrics) completed(start time.Time) {
	m.framesCompleted.Add(1)
	m.latency.Record(time.Since(start).Microseconds())
}

// BackendSnapshot is one backend's routing view.
type BackendSnapshot struct {
	Name     string  `json:"name"`
	Addr     string  `json:"addr"`
	State    string  `json:"state"`
	Degraded bool    `json:"degraded"`
	Weight   float64 `json:"weight"`
	Pending  int64   `json:"pending"`

	Frames     int64 `json:"frames"`
	Sheds      int64 `json:"sheds"`
	Deadlines  int64 `json:"deadlines"`
	Crashes    int64 `json:"crashes"`
	ConnErrors int64 `json:"conn_errors"`
	DialFails  int64 `json:"dial_fails"`
	ProbeFails int64 `json:"probe_fails"`
	Drains     int64 `json:"drains"`
	Readmits   int64 `json:"readmits"`

	LastError string `json:"last_error,omitempty"`
}

// Snapshot is the fleet-wide point-in-time state.
type Snapshot struct {
	// Healthy reports at least one routable backend — the router's own
	// /healthz verdict.
	Healthy        bool `json:"healthy"`
	ActiveBackends int  `json:"active_backends"`

	// At idle FramesIn = FramesCompleted + FramesLost + FramesDeadline
	// + ShedUpstream.
	FramesIn        int64 `json:"frames_in"`
	FramesRouted    int64 `json:"frames_routed"`
	FramesCompleted int64 `json:"frames_completed"`
	FramesLost      int64 `json:"frames_lost"`
	FramesDeadline  int64 `json:"frames_deadline"`
	ShedUpstream    int64 `json:"shed_upstream"`
	// Latency is the completed frames' time from Submit to the backend
	// response, retries and hedges included.
	serve.Latency
	// FrontCounts classifies the client requests the front door read.
	serve.FrontCounts

	Requeues     int64 `json:"requeues"`
	Hedges       int64 `json:"hedges"`
	BudgetDenied int64 `json:"budget_denied"`
	// RetryBudgetTokens is the bucket's current balance;
	// RetryBudgetSpent the tokens consumed by requeues and hedges over
	// the process lifetime.
	RetryBudgetTokens float64 `json:"retry_budget_tokens"`
	RetryBudgetSpent  int64   `json:"retry_budget_spent"`

	Backends []BackendSnapshot `json:"backends"`
}

// Snapshot captures the current fleet state.
func (m *Metrics) Snapshot() Snapshot {
	r := m.r
	s := Snapshot{
		FramesIn:          m.framesIn.Load(),
		FramesRouted:      m.framesRouted.Load(),
		FramesCompleted:   m.framesCompleted.Load(),
		FramesLost:        m.framesLost.Load(),
		FramesDeadline:    m.framesDeadline.Load(),
		ShedUpstream:      m.shedUpstream.Load(),
		Latency:           m.latency.Latency(),
		FrontCounts:       r.front.Counts(),
		Requeues:          m.requeues.Load(),
		Hedges:            m.hedges.Load(),
		BudgetDenied:      m.budgetDenied.Load(),
		RetryBudgetTokens: float64(r.budget.tokens.Load()) / 1000,
		RetryBudgetSpent:  r.budget.spent.Load(),
	}
	for _, b := range r.backends {
		bs := BackendSnapshot{
			Name:       b.cfg.Name,
			Addr:       b.cfg.Addr,
			State:      stateName(b.state.Load()),
			Degraded:   b.degraded.Load(),
			Weight:     b.weight(),
			Pending:    b.pending.Load(),
			Frames:     b.frames.Load(),
			Sheds:      b.sheds.Load(),
			Deadlines:  b.deadlines.Load(),
			Crashes:    b.crashes.Load(),
			ConnErrors: b.connErrors.Load(),
			DialFails:  b.dialFails.Load(),
			ProbeFails: b.probeFails.Load(),
			Drains:     b.drains.Load(),
			Readmits:   b.readmits.Load(),
		}
		if e := b.lastErr.Load(); e != nil {
			bs.LastError = *e
		}
		if bs.State == "active" {
			s.ActiveBackends++
		}
		s.Backends = append(s.Backends, bs)
	}
	s.Healthy = s.ActiveBackends > 0
	return s
}
