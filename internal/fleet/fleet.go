// Package fleet is the fault-tolerant routing front tier over a fleet
// of decode instances: one process is now sharded, wide-laned and
// multi-mode, but "serve heavy traffic from millions of users" needs N
// processes — and the availability claims of sustained-throughput
// decoders hold only if the tier above them survives an instance dying
// mid-burst.
//
// The router speaks the existing length-prefixed v1/v2 wire protocol on
// both sides: clients connect to it exactly as they would to a single
// ldpcserver, and it forwards each request payload verbatim to a
// backend over a per-backend connection pool. Nothing is re-encoded and
// nothing is decoded here — the router parses each request only far
// enough to validate its code tag and frame length. Frames go to the
// routable backends by smooth weighted round-robin: each backend takes
// exactly its weight's share of new frames, interleaved rather than in
// runs.
//
// Health feeds routing. A poller probes every backend (its /healthz
// endpoint, a dial check, or an in-process snapshot — see Probe) and
// folds the verdict into the backend's weight: a 503 or unreachable
// backend is drained — weight 0, so it takes no new frames while its
// in-flight frames complete — and re-admitted only after a hysteretic
// streak of healthy probes; a tripped-breaker (degraded) backend stays
// routable at half weight. Dial failures mark a backend down
// immediately; a mid-stream connection loss only costs that connection,
// and every frame the dead connection had claimed but not answered is
// requeued to another backend at most once — the decode is a pure
// function, so a duplicate attempt is idempotent, and a
// first-completion-wins hand-off guarantees each frame is delivered to
// its caller exactly once or reported lost, never twice.
//
// Retries are budgeted. Requeues after connection loss, reroutes after
// a backend sheds (StatusOverloaded/Deadline/Internal), and hedged
// second attempts for latency stragglers all spend from one global
// token bucket refilled by a fraction of successful frames — so a slow
// or flapping backend can amplify load by at most RetryRatio, never
// into a retry storm. When the whole fleet is saturated the router
// sheds upstream with ErrOverloaded instead of queueing unboundedly:
// backpressure propagates to clients, which already know how to back
// off.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/serve"
)

// Routing errors, surfaced to clients as wire statuses by the front door
// (overloaded/deadline/internal) so existing retry logic keeps working.
var (
	// ErrOverloaded reports that every routable backend's queue is full
	// or the router's global in-flight cap is reached — the fleet-wide
	// backpressure signal.
	ErrOverloaded = errors.New("fleet: overloaded, all backends saturated")
	// ErrNoBackends reports that no backend is routable (all drained or
	// down).
	ErrNoBackends = errors.New("fleet: no routable backends")
	// ErrDeadline reports a frame that exhausted Config.RequestTimeout
	// across all its attempts.
	ErrDeadline = errors.New("fleet: frame deadline exceeded")
	// ErrFrameLost reports a frame whose every attempt died with its
	// connection and whose single requeue was spent or denied — the
	// frame is reported lost rather than retried without bound.
	ErrFrameLost = errors.New("fleet: frame lost with backend")
	// ErrClosed reports a submission to a closed router.
	ErrClosed = errors.New("fleet: router closed")
)

// BackendConfig names one decode instance.
type BackendConfig struct {
	// Name labels the backend in metrics and logs (default: Addr).
	Name string
	// Addr is the instance's TCP decode address.
	Addr string
	// Probe supplies the health verdict the poller folds into routing
	// weights; nil defaults to DialProbe(Addr) — reachability only.
	Probe Probe
}

// Config describes a router.
type Config struct {
	// Backends is the fleet; at least one.
	Backends []BackendConfig
	// Codebook classifies v1/v2 requests (code tag + frame length) so
	// the router can validate them without building any code.
	// registry.NewCodebook provides the production implementation.
	Codebook serve.Codebook

	// ConnsPerBackend is the connection-pool size per backend (default
	// 4). PipelineDepth is how many requests each connection keeps in
	// flight, matched to responses in wire order (default 32).
	ConnsPerBackend int
	PipelineDepth   int
	// MaxInflight caps frames inside the router across all backends;
	// submissions beyond it shed with ErrOverloaded (default
	// Backends × ConnsPerBackend × PipelineDepth).
	MaxInflight int

	// DialTimeout bounds backend dials (default 1s). RequestTimeout is
	// the per-frame deadline across all attempts (default 2s).
	DialTimeout    time.Duration
	RequestTimeout time.Duration

	// HedgeAfter is how long a frame may be outstanding before a
	// duplicate attempt is sent to a different backend, budget
	// permitting; the first completion wins and the loser is discarded
	// (decoding is idempotent). 0 means the default (RequestTimeout/8);
	// negative disables hedging.
	HedgeAfter time.Duration
	// RetryRatio refills the global retry budget: each successful frame
	// adds this many tokens, and every requeue, reroute or hedge spends
	// one — bounding retry amplification at RetryRatio (default 0.1).
	// RetryBurst is the bucket capacity and starting balance (default
	// 16).
	RetryRatio float64
	RetryBurst int

	// PollInterval is the health-probe period (default 500ms).
	// ReadmitAfter is the hysteresis: consecutive healthy probes a
	// drained or down backend needs before it is routed frames again
	// (default 3).
	PollInterval time.Duration
	ReadmitAfter int
}

func (c *Config) setDefaults() error {
	if len(c.Backends) == 0 {
		return errors.New("fleet: no backends")
	}
	if c.Codebook == nil {
		return errors.New("fleet: nil codebook")
	}
	for i := range c.Backends {
		if c.Backends[i].Addr == "" {
			return fmt.Errorf("fleet: backend %d has no address", i)
		}
		if c.Backends[i].Name == "" {
			c.Backends[i].Name = c.Backends[i].Addr
		}
	}
	if c.ConnsPerBackend == 0 {
		c.ConnsPerBackend = 4
	}
	if c.ConnsPerBackend < 1 {
		return fmt.Errorf("fleet: %d conns per backend", c.ConnsPerBackend)
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 32
	}
	if c.PipelineDepth < 1 {
		return fmt.Errorf("fleet: pipeline depth %d", c.PipelineDepth)
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = len(c.Backends) * c.ConnsPerBackend * c.PipelineDepth
	}
	if c.MaxInflight < 1 {
		return fmt.Errorf("fleet: max inflight %d", c.MaxInflight)
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.RequestTimeout < time.Millisecond {
		return fmt.Errorf("fleet: request timeout %v below 1ms", c.RequestTimeout)
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = c.RequestTimeout / 8
	}
	if c.RetryRatio == 0 {
		c.RetryRatio = 0.1
	}
	if c.RetryRatio < 0 || c.RetryRatio > 1 {
		return fmt.Errorf("fleet: retry ratio %v outside [0,1]", c.RetryRatio)
	}
	if c.RetryBurst == 0 {
		c.RetryBurst = 16
	}
	if c.RetryBurst < 1 {
		return fmt.Errorf("fleet: retry burst %d", c.RetryBurst)
	}
	if c.PollInterval == 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.PollInterval < time.Millisecond {
		return fmt.Errorf("fleet: poll interval %v below 1ms", c.PollInterval)
	}
	if c.ReadmitAfter == 0 {
		c.ReadmitAfter = 3
	}
	if c.ReadmitAfter < 1 {
		return fmt.Errorf("fleet: readmit after %d", c.ReadmitAfter)
	}
	return nil
}

// call is one frame in flight through the router. Its hand-off is
// first-completion-wins: whichever attempt (original, requeue or hedge)
// or deadline CASes completed owns delivery, so the caller sees exactly
// one outcome no matter how many attempts raced — the idempotent tag
// that makes "requeue at most once" safe.
type call struct {
	payload []byte // full request payload, router-owned copy

	completed   atomic.Bool
	outstanding atomic.Int32 // attempts enqueued or in flight
	requeued    atomic.Bool  // the single post-failure requeue, spent or not
	last        atomic.Pointer[backend]

	resp []byte // written by the winning attempt before done closes
	err  error
	done chan struct{}
}

// complete delivers one outcome; only the first caller wins.
func (c *call) complete(resp []byte, err error) bool {
	if !c.completed.CompareAndSwap(false, true) {
		return false
	}
	if resp != nil {
		resp = append([]byte(nil), resp...)
	}
	c.resp, c.err = resp, err
	close(c.done)
	return true
}

// Router routes frames across the fleet. Create with New, submit with
// Submit or serve clients with ServeConn/ServeListener, stop with
// Close.
type Router struct {
	cfg      Config
	front    *serve.Front
	backends []*backend
	budget   *retryBudget
	metrics  *Metrics

	pickMu   sync.Mutex // guards every backend's credit
	inflight atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New builds and starts a router: connection pools begin dialing and
// the health poller starts immediately, so by the first Submit the
// backends' weights reflect reality.
func New(cfg Config) (*Router, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:    cfg,
		budget: newRetryBudget(cfg.RetryBurst, cfg.RetryRatio),
		stop:   make(chan struct{}),
	}
	r.front = serve.NewFront(cfg.Codebook, r.forward)
	for i, bc := range cfg.Backends {
		b := newBackend(i, bc, cfg)
		r.backends = append(r.backends, b)
	}
	r.metrics = newMetrics(r)
	for _, b := range r.backends {
		for s := 0; s < cfg.ConnsPerBackend; s++ {
			r.wg.Add(1)
			go r.runBackendConn(b)
		}
		r.wg.Add(1)
		go r.pollBackend(b)
	}
	return r, nil
}

// Config returns the router configuration with defaults resolved.
func (r *Router) Config() Config { return r.cfg }

// Metrics returns the live fleet instrumentation.
func (r *Router) Metrics() *Metrics { return r.metrics }

// Submit routes one request payload (v1 or v2, forwarded verbatim) to a
// backend and returns the backend's raw response payload. codeID is the
// request's parsed code tag, as the front door passes it; routing does
// not read it, since every backend is offered every code. Submit is
// safe for any number of concurrent callers and applies the full
// fault-tolerance ladder: reroute on shed, requeue once on connection
// loss, hedge on latency, shed with ErrOverloaded when saturated.
func (r *Router) Submit(codeID byte, payload []byte) ([]byte, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	start := time.Now()
	r.metrics.framesIn.Add(1)
	if r.inflight.Add(1) > int64(r.cfg.MaxInflight) {
		r.inflight.Add(-1)
		r.metrics.shedUpstream.Add(1)
		return nil, ErrOverloaded
	}
	defer r.inflight.Add(-1)

	c := &call{payload: payload, done: make(chan struct{})}
	if err := r.dispatch(c, nil); err != nil {
		r.metrics.shedUpstream.Add(1)
		return nil, err
	}
	r.metrics.framesRouted.Add(1)

	timer := time.NewTimer(r.cfg.RequestTimeout)
	defer timer.Stop()
	var hedgeC <-chan time.Time
	if r.cfg.HedgeAfter > 0 && r.cfg.HedgeAfter < r.cfg.RequestTimeout {
		ht := time.NewTimer(r.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	for {
		select {
		case <-c.done:
			if c.err == nil {
				r.metrics.completed(start)
				if len(c.resp) > 0 && c.resp[0] == serve.StatusOK {
					r.budget.success()
				}
			}
			return c.resp, c.err
		case <-hedgeC:
			hedgeC = nil
			if !r.budget.take() {
				r.metrics.budgetDenied.Add(1)
				continue
			}
			// A hedge excludes the attempt's current backend — the
			// straggler — and races a duplicate elsewhere.
			if r.dispatch(c, c.last.Load()) == nil {
				r.metrics.hedges.Add(1)
			}
		case <-timer.C:
			if c.complete(nil, ErrDeadline) {
				r.metrics.framesDeadline.Add(1)
				return nil, ErrDeadline
			}
			// An attempt won the race to completion; take its outcome.
			<-c.done
			if c.err == nil {
				r.metrics.completed(start)
			}
			return c.resp, c.err
		}
	}
}

// dispatch places one attempt on a backend: the round-robin pick
// first, the least-loaded routable backend when the pick's queue is
// full. It never blocks — a fleet with no room sheds.
func (r *Router) dispatch(c *call, exclude *backend) error {
	b := r.pick(exclude)
	if b == nil {
		return ErrNoBackends
	}
	if !r.enqueue(b, c) {
		if b = r.leastLoaded(exclude, b); b == nil || !r.enqueue(b, c) {
			return ErrOverloaded
		}
	}
	return nil
}

// pick is smooth weighted round-robin over the routable backends other
// than exclude: each adds its weight to its credit, and the one with the
// most credit wins and pays the weights' total. Each backend's share of
// the picks is its weight's share of the total, and its turns are
// interleaved with the others' rather than bunched: at weights 1, 1 and
// ½ every five picks go 2, 2 and 1. A health change only changes a
// weight, so the next pick follows it. It returns nil when no backend
// but exclude is routable.
func (r *Router) pick(exclude *backend) *backend {
	r.pickMu.Lock()
	defer r.pickMu.Unlock()
	var best *backend
	var total float64
	for _, b := range r.backends {
		w := b.weight()
		if b == exclude || w == 0 {
			continue
		}
		b.credit += w
		total += w
		if best == nil || b.credit > best.credit {
			best = b
		}
	}
	if best != nil {
		best.credit -= total
	}
	return best
}

// leastLoaded returns the routable backend with the fewest pending
// frames and queue room, skipping up to two exclusions (the failed
// backend and an already-tried pick).
func (r *Router) leastLoaded(ex1, ex2 *backend) *backend {
	var best *backend
	var bestLoad int64
	for _, b := range r.backends {
		if b == ex1 || b == ex2 || b.state.Load() != stateActive {
			continue
		}
		if len(b.sendCh) >= cap(b.sendCh) {
			continue
		}
		load := b.pending.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	return best
}

// enqueue reserves the attempt's bookkeeping and offers it to the
// backend's send queue without blocking.
func (r *Router) enqueue(b *backend, c *call) bool {
	c.outstanding.Add(1)
	b.pending.Add(1)
	select {
	case b.sendCh <- c:
		c.last.Store(b)
		return true
	default:
		c.outstanding.Add(-1)
		b.pending.Add(-1)
		return false
	}
}

// attemptResolved retires one attempt's bookkeeping without an outcome
// (a stale hedge duplicate skipped before writing).
func (r *Router) attemptResolved(b *backend, c *call) {
	b.pending.Add(-1)
	c.outstanding.Add(-1)
}

// retryableStatus reports backend responses worth rerouting: shed,
// deadline and transient-internal all mean "this instance, right now" —
// another instance may well decode the frame. Unknown-code and
// bad-frame are permanent for the request; OK needs no retry.
func retryableStatus(status byte) bool {
	return status == serve.StatusOverloaded || status == serve.StatusDeadline || status == serve.StatusInternal
}

// attemptDone lands a backend response for one attempt. Retryable
// statuses spend the budget to reroute the frame away once; everything
// else (including a repeat failure after the requeue) is delivered
// as-is — the client keeps the final word on retrying.
func (r *Router) attemptDone(b *backend, c *call, raw []byte) {
	b.pending.Add(-1)
	c.outstanding.Add(-1)
	b.frames.Add(1)
	if len(raw) >= 1 {
		b.noteStatus(raw[0])
		if retryableStatus(raw[0]) && !c.completed.Load() && c.requeued.CompareAndSwap(false, true) {
			if !r.budget.take() {
				r.metrics.budgetDenied.Add(1)
			} else if r.dispatch(c, b) == nil {
				r.metrics.requeues.Add(1)
				return
			}
		}
	}
	c.complete(raw, nil)
}

// attemptFailed handles an attempt dying with its connection: the frame
// was claimed but not answered. If a sibling attempt (hedge) is still
// out, this one just retires; otherwise the frame is requeued to
// another backend at most once, budget permitting, and reported lost
// beyond that — never silently dropped, never retried without bound.
func (r *Router) attemptFailed(b *backend, c *call, err error) {
	b.pending.Add(-1)
	b.connErrors.Add(1)
	remaining := c.outstanding.Add(-1)
	if c.completed.Load() || remaining > 0 {
		return
	}
	if c.requeued.CompareAndSwap(false, true) {
		if !r.budget.take() {
			r.metrics.budgetDenied.Add(1)
		} else if r.dispatch(c, b) == nil {
			r.metrics.requeues.Add(1)
			return
		}
	}
	if c.complete(nil, fmt.Errorf("%w: %s: %v", ErrFrameLost, b.cfg.Name, err)) {
		r.metrics.framesLost.Add(1)
	}
}

// Close stops accepting frames, waits briefly for in-flight frames to
// drain, then stops the connection pools and poller. Idempotent.
func (r *Router) Close() {
	if r.closed.Swap(true) {
		r.wg.Wait()
		return
	}
	deadline := time.Now().Add(r.cfg.RequestTimeout + time.Second)
	for r.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(r.stop)
	r.wg.Wait()
}

// retryBudget is the global token bucket bounding retry amplification:
// requeues, reroutes and hedges each spend one token; each successful
// frame refills ratio tokens up to the burst cap. Tokens are scaled by
// 1000 so fractional refills accumulate without floats in the hot path.
type retryBudget struct {
	tokens      atomic.Int64 // ×1000
	capScaled   int64
	ratioScaled int64
	spent       atomic.Int64
	denied      atomic.Int64
}

func newRetryBudget(burst int, ratio float64) *retryBudget {
	rb := &retryBudget{
		capScaled:   int64(burst) * 1000,
		ratioScaled: int64(ratio * 1000),
	}
	rb.tokens.Store(rb.capScaled)
	return rb
}

// take spends one token if available.
func (rb *retryBudget) take() bool {
	for {
		t := rb.tokens.Load()
		if t < 1000 {
			rb.denied.Add(1)
			return false
		}
		if rb.tokens.CompareAndSwap(t, t-1000) {
			rb.spent.Add(1)
			return true
		}
	}
}

// success refills the bucket by the ratio, clamped to the cap.
func (rb *retryBudget) success() {
	for {
		t := rb.tokens.Load()
		n := t + rb.ratioScaled
		if n > rb.capScaled {
			n = rb.capScaled
		}
		if n == t || rb.tokens.CompareAndSwap(t, n) {
			return
		}
	}
}
