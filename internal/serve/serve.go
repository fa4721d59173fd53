// Package serve is the decode-as-a-service layer over the frame-packed
// SWAR decoder: a pool of workers, each owning one batch.Parallel
// decoder, that pack frames from concurrent clients into full 8-lane
// batches.
//
// The paper's high-speed instance earns its 8× throughput by storing 8
// frames' messages in every memory word (Fig. 3) — which only pays off
// when 8 frames are actually available every decoding period. On an
// FPGA the frame buffer guarantees that; in a server, concurrent
// clients do. The frame queue is the software frame buffer, and a free
// worker takes its own batch from it: everything already queued at
// once, and beyond that it holds the batch open just long enough
// (Config.Linger) to fill a word's 8 lanes. A loaded server decodes at
// the packed rate while a lone frame still meets its latency SLO via
// the linger deadline.
//
// Config.Shards, Config.LaneWidth and Config.SuperBatch scale each
// worker's decoder the way the paper scales the processing block with
// more CN/BN units: Shards spreads one decode's CN/BN phases across
// shard goroutines (bit-identically), LaneWidth widens the kernel
// strips to up to 8 words per step, and SuperBatch stacks up to 8
// strips — together up to 64 memory words, 512 frames — into one
// batch. By default one server's Workers × Shards is budgeted against
// GOMAXPROCS; the budget is per server, so a process running several
// servers (one per code in registry.Pools) runs that many budgets.
//
// Capacity is bounded end to end: a full queue sheds load with
// ErrOverloaded instead of queueing without limit, and Close drains
// every accepted frame before returning, so no request is ever dropped
// silently.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// ErrOverloaded reports that the server's frame queue is full; the
// caller should back off or retry elsewhere. Shedding at the edge keeps
// the latency of accepted frames bounded.
var ErrOverloaded = errors.New("serve: overloaded, frame queue full")

// ErrClosed reports a submission to a server that is shutting down.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline reports that an accepted frame did not start decoding
// within Config.Deadline: the frame is dropped from its batch
// undecoded. A frame a worker claims before the deadline is decoded and
// delivered normally, so the deadline bounds queueing delay — the
// variable, load-dependent part of the latency — not an in-flight
// decode.
var ErrDeadline = errors.New("serve: decode deadline exceeded")

// ErrWorkerCrash reports that the worker decoding the frame's batch
// panicked mid-decode. The frame was claimed but not decoded; the
// worker has been restarted with a fresh decoder and the frame is safe
// to retry. No claimed frame is ever dropped silently — every caller
// whose frame rode the crashed batch receives this error.
var ErrWorkerCrash = errors.New("serve: worker crashed mid-decode, frame not decoded")

// Config describes a decode server.
type Config struct {
	// Code under service.
	Code *code.Code
	// Params configures the fixed-point decoders; the zero value means
	// fixed.DefaultHighSpeedParams() — the paper's Q(5,1), the format
	// narrow enough for 8 int8 lanes per word.
	Params fixed.Params
	// Workers is the decoder pool size. Each worker owns one pre-built
	// packed decoder; nothing is allocated per request on the decode
	// path. The default budgets this server's Workers × Shards against
	// GOMAXPROCS: max(1, GOMAXPROCS/Shards) workers, so sharding a
	// decoder wider trades worker-level for intra-decode parallelism.
	// The budget is per server: a process with one server per code
	// (registry.Pools) spends a whole budget on each code it has built.
	Workers int
	// Shards spreads each worker's CN/BN phases across this many shard
	// goroutines (default 1, the plain single-goroutine SWAR decoder).
	// Results are bit-identical for any shard count.
	Shards int
	// SuperBatch is the number of LaneWidth-word strips each worker
	// decodes per call, 1..batch.MaxSuperBatch (default 1). Raising it
	// widens the maximum dispatch to SuperBatch × LaneWidth × 8 frames,
	// amortizing graph traversal and shard hand-offs over more frames.
	SuperBatch int
	// LaneWidth is the strip width of each worker's decode kernels in
	// packed words — 1, 2, 4 or 8 (default 1). Wider strips advance
	// 8×LaneWidth frames per kernel step with results bit-identical to
	// every other width.
	LaneWidth int
	// MaxBatch is the batch width in frames,
	// 1..SuperBatch×LaneWidth×batch.Lanes (default
	// SuperBatch×LaneWidth×batch.Lanes; 8 — the paper's packing factor
	// — at the default SuperBatch and LaneWidth of 1).
	MaxBatch int
	// Linger is how long a worker holds a partial batch open for more
	// frames, counted from its first frame's enqueue (default 500 µs).
	// It is the latency price a lone frame pays for the chance of lane
	// sharing.
	Linger time.Duration
	// QueueDepth bounds the frames accepted but not yet gathered by a
	// worker; submissions beyond it are shed with ErrOverloaded
	// (default 4 × Workers × MaxBatch).
	QueueDepth int
	// Deadline bounds how long a frame may wait to start decoding; 0
	// disables. A worker that claims a frame older than the deadline
	// answers it ErrDeadline without decoding it, and it counts in
	// FramesDeadline; a frame claimed in time is decoded and delivered
	// even if that lands past the deadline. A DecodeQ caller also races
	// a timer and is released with ErrDeadline at the deadline itself;
	// a Submit caller learns of it when the frame reaches a worker.
	Deadline time.Duration
	// HealthWindow is the sliding window of the decode-failure-rate
	// health signal (default 30s); HealthThreshold the failure rate at
	// which the server reports unhealthy (default 0.5);
	// HealthMinSamples the windowed sample count below which the server
	// is always healthy (default 20, keeping idle instances in
	// rotation).
	HealthWindow     time.Duration
	HealthThreshold  float64
	HealthMinSamples int
	// HealthRecoverThreshold is the failure rate an unhealthy instance
	// must fall back to before /healthz reports healthy again (default
	// HealthThreshold/2). The trip/recover gap is the hysteresis that
	// keeps a failure rate hovering at the threshold from flapping the
	// instance in and out of a load balancer.
	HealthRecoverThreshold float64

	// The uncorrectable-frame circuit breaker sheds compute before the
	// health check sheds the whole instance: when the windowed rate of
	// failed decodes (errors, crashes, unconverged frames) reaches
	// BreakerTrip, workers drop to DegradedIterations per frame —
	// cutting per-frame cost so the server rides out an SEU storm or
	// noise burst at reduced quality — and return to full iterations
	// once the rate falls to BreakerRecover.
	//
	// BreakerWindow defaults to 10s, BreakerTrip to 0.3, BreakerRecover
	// to 0.1, BreakerMinSamples to 20, DegradedIterations to half the
	// configured MaxIterations (at least 1).
	BreakerWindow      time.Duration
	BreakerTrip        float64
	BreakerRecover     float64
	BreakerMinSamples  int
	DegradedIterations int

	// panicHook, when set, runs on a worker goroutine before each batch
	// decode — the test seam for injecting worker crashes.
	panicHook func(worker int)
}

func (c *Config) setDefaults() error {
	if c.Code == nil {
		return errors.New("serve: nil code")
	}
	if c.Params == (fixed.Params{}) {
		c.Params = fixed.DefaultHighSpeedParams()
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: %d shards out of range [1,∞)", c.Shards)
	}
	if c.SuperBatch == 0 {
		c.SuperBatch = 1
	}
	if c.SuperBatch < 1 || c.SuperBatch > batch.MaxSuperBatch {
		return fmt.Errorf("serve: super-batch %d out of range [1,%d]", c.SuperBatch, batch.MaxSuperBatch)
	}
	if c.LaneWidth == 0 {
		c.LaneWidth = 1
	}
	if !batch.ValidLaneWidth(c.LaneWidth) {
		return fmt.Errorf("serve: lane width %d not in {1, 2, 4, 8}", c.LaneWidth)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / c.Shards
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	maxFrames := c.SuperBatch * c.LaneWidth * batch.Lanes
	if c.MaxBatch == 0 {
		c.MaxBatch = maxFrames
	}
	if c.MaxBatch < 1 || c.MaxBatch > maxFrames {
		return fmt.Errorf("serve: MaxBatch %d out of range [1,%d]", c.MaxBatch, maxFrames)
	}
	if c.Linger == 0 {
		c.Linger = 500 * time.Microsecond
	}
	if c.Linger < 0 {
		return fmt.Errorf("serve: negative linger %v", c.Linger)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers * c.MaxBatch
	}
	if c.Deadline < 0 {
		return fmt.Errorf("serve: negative deadline %v", c.Deadline)
	}
	if c.HealthWindow == 0 {
		c.HealthWindow = 30 * time.Second
	}
	if c.HealthWindow < time.Second {
		return fmt.Errorf("serve: health window %v below 1s bucket resolution", c.HealthWindow)
	}
	if c.HealthThreshold == 0 {
		c.HealthThreshold = 0.5
	}
	if c.HealthThreshold < 0 || c.HealthThreshold > 1 {
		return fmt.Errorf("serve: health threshold %v outside [0,1]", c.HealthThreshold)
	}
	if c.HealthMinSamples == 0 {
		c.HealthMinSamples = 20
	}
	if c.HealthMinSamples < 0 {
		return fmt.Errorf("serve: negative health minimum samples %d", c.HealthMinSamples)
	}
	if c.HealthRecoverThreshold == 0 {
		c.HealthRecoverThreshold = c.HealthThreshold / 2
	}
	if c.HealthRecoverThreshold < 0 || c.HealthRecoverThreshold >= c.HealthThreshold {
		return fmt.Errorf("serve: health recover threshold %v outside [0, trip threshold %v)",
			c.HealthRecoverThreshold, c.HealthThreshold)
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerWindow < time.Second {
		return fmt.Errorf("serve: breaker window %v below 1s bucket resolution", c.BreakerWindow)
	}
	if c.BreakerTrip == 0 {
		c.BreakerTrip = 0.3
	}
	if c.BreakerTrip < 0 || c.BreakerTrip > 1 {
		return fmt.Errorf("serve: breaker trip threshold %v outside [0,1]", c.BreakerTrip)
	}
	if c.BreakerRecover == 0 {
		c.BreakerRecover = 0.1
	}
	if c.BreakerRecover < 0 || c.BreakerRecover >= c.BreakerTrip {
		return fmt.Errorf("serve: breaker recover threshold %v outside [0, trip threshold %v)",
			c.BreakerRecover, c.BreakerTrip)
	}
	if c.BreakerMinSamples == 0 {
		c.BreakerMinSamples = 20
	}
	if c.BreakerMinSamples < 0 {
		return fmt.Errorf("serve: negative breaker minimum samples %d", c.BreakerMinSamples)
	}
	if c.DegradedIterations == 0 {
		c.DegradedIterations = c.Params.MaxIterations / 2
		if c.DegradedIterations < 1 {
			c.DegradedIterations = 1
		}
	}
	if c.DegradedIterations < 1 || c.DegradedIterations > c.Params.MaxIterations {
		return fmt.Errorf("serve: degraded iterations %d outside [1, MaxIterations %d]",
			c.DegradedIterations, c.Params.MaxIterations)
	}
	return nil
}

// Completion receives the outcome of one frame given to Submit. Its
// Complete is called exactly once per Submit: inline on the submitting
// goroutine when the frame is refused (a malformed frame,
// ErrOverloaded, ErrClosed), otherwise on the worker goroutine that
// decoded or dropped it. Complete runs on the decode path, so it must
// not block; on success res.Bits is the bits vector given to Submit (a
// fresh one if that was nil).
type Completion interface {
	Complete(res ldpc.Result, err error)
}

// request is one accepted frame. Requests are pooled and owned by the
// server from enqueue to delivery: the worker recycles each one it
// receives, and callers never touch a request after enqueueing it.
type request struct {
	q    []int16        // caller's quantized LLRs; not retained after decode
	bits *bitvec.Vector // destination; nil → allocated by the decoder
	enq  time.Time
	c    Completion
}

// waiter is DecodeQ's completion: it parks the outcome for the blocked
// caller. Waiters are pooled; the done channel (capacity 1) is reused
// across lives.
//
// claimed arbitrates the waiter's single ownership hand-off under
// deadlines: whichever side wins the CompareAndSwap — the worker
// claiming the frame for its batch or the caller timing out — takes
// the frame's fate. A worker that wins delivers the outcome and the
// caller recycles the waiter after receiving it; a caller that wins
// walks away and the worker drops the lane and recycles the waiter
// instead, so the pooled done channel can never carry a stale signal
// into a later life and no decode writes into the bits of a caller
// that has returned.
type waiter struct {
	res     ldpc.Result
	err     error
	done    chan struct{}
	claimed atomic.Bool
}

// Complete parks the outcome and wakes the DecodeQ caller.
func (w *waiter) Complete(res ldpc.Result, err error) {
	w.res, w.err = res, err
	w.done <- struct{}{}
}

// Server is the decode service. Create with New, submit frames with
// DecodeQ or Submit from any number of goroutines, stop with Close.
type Server struct {
	cfg     Config
	graph   *ldpc.Graph                     // retained for rebuilding crashed workers' decoders
	newDec  func() (*batch.Parallel, error) // decoder factory honoring Shards/SuperBatch/LaneWidth
	in      chan *request
	metrics *Metrics
	health  *latch // the /healthz verdict, evaluated at each poll
	breaker *latch // the uncorrectable-frame circuit breaker

	reqPool    sync.Pool
	waiterPool sync.Pool

	// gathering is held by the one worker receiving from in (see
	// gather).
	gathering sync.Mutex

	mu     sync.RWMutex // guards closed vs. sends on in
	closed bool

	workerWG sync.WaitGroup
}

// New builds and starts a server: Workers decoders are constructed up
// front (surfacing format/code incompatibilities immediately) and the
// workers begin gathering frames.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	g := ldpc.NewGraph(cfg.Code)
	newDec := func() (*batch.Parallel, error) {
		return batch.NewParallelGraph(g, cfg.Params, batch.ParallelConfig{
			Shards:     cfg.Shards,
			SuperBatch: cfg.SuperBatch,
			LaneWidth:  cfg.LaneWidth,
		})
	}
	decs := make([]*batch.Parallel, cfg.Workers)
	for w := range decs {
		d, err := newDec()
		if err != nil {
			for _, built := range decs[:w] {
				built.Close()
			}
			return nil, err
		}
		decs[w] = d
	}
	breaker := newLatch(cfg.BreakerWindow, cfg.BreakerTrip, cfg.BreakerRecover, cfg.BreakerMinSamples)
	s := &Server{
		cfg:     cfg,
		graph:   g,
		newDec:  newDec,
		in:      make(chan *request, cfg.QueueDepth),
		metrics: newMetrics(cfg.Workers, cfg.MaxBatch, breaker),
		health:  newLatch(cfg.HealthWindow, cfg.HealthThreshold, cfg.HealthRecoverThreshold, cfg.HealthMinSamples),
		breaker: breaker,
	}
	s.reqPool.New = func() any { return new(request) }
	s.waiterPool.New = func() any { return &waiter{done: make(chan struct{}, 1)} }
	for w := range decs {
		s.workerWG.Add(1)
		go s.worker(w, decs[w])
	}
	return s, nil
}

// Config returns the server configuration with defaults resolved.
func (s *Server) Config() Config { return s.cfg }

// Metrics returns the live instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// DecodeQ submits one frame of quantized channel LLRs (length N, in the
// configured format's range) and blocks until it is decoded. bits, when
// non-nil, must be a length-N vector and receives the hard decision in
// place — together with the pooled request this makes a steady-state
// call allocation-free. With bits nil a fresh vector is allocated.
//
// DecodeQ is safe for any number of concurrent callers. It fails fast
// with ErrOverloaded when the queue is full and ErrClosed after Close;
// a nil error means the frame was decoded (Result.Converged still
// distinguishes decoding success).
func (s *Server) DecodeQ(q []int16, bits *bitvec.Vector) (ldpc.Result, error) {
	w := s.waiterPool.Get().(*waiter)
	w.claimed.Store(false)
	if err := s.enqueue(q, bits, w); err != nil {
		s.waiterPool.Put(w)
		s.refused(err)
		return ldpc.Result{}, err
	}
	if s.cfg.Deadline > 0 {
		timer := time.NewTimer(s.cfg.Deadline)
		select {
		case <-w.done:
			timer.Stop()
		case <-timer.C:
			if w.claimed.CompareAndSwap(false, true) {
				// No worker has claimed the frame: abandon it. The
				// worker that eventually receives the batch loses the
				// claim, skips the lane and recycles the waiter.
				s.metrics.framesDeadline.Add(1)
				s.health.record(false)
				return ldpc.Result{}, ErrDeadline
			}
			// A worker claimed the frame first: it is being decoded
			// and done is imminent — a completion, not a timeout.
			<-w.done
		}
	} else {
		<-w.done
	}
	res, err := w.res, w.err
	w.res, w.err = ldpc.Result{}, nil
	s.waiterPool.Put(w)
	return res, err
}

// Submit queues one frame like DecodeQ but returns at once: the frame's
// outcome arrives through c, exactly once (see Completion). The caller
// must leave q and bits alone until then. A steady-state Submit
// allocates nothing, so a caller that keeps many frames in flight —
// a pipelined connection, a group of frames — fills the workers'
// batches without a goroutine per frame.
func (s *Server) Submit(q []int16, bits *bitvec.Vector, c Completion) {
	if err := s.enqueue(q, bits, c); err != nil {
		s.refused(err)
		c.Complete(ldpc.Result{}, err)
	}
}

// refused accounts for a refusal that reaches the caller: a full queue
// counts as a shed and as a health failure. DecodeQMulti resends the
// frames a full queue refuses, so its refusals count as neither.
func (s *Server) refused(err error) {
	if errors.Is(err, ErrOverloaded) {
		s.metrics.framesShed.Add(1)
		s.health.record(false)
	}
}

// enqueue validates a frame and queues it with its completion, or
// returns why it was refused without calling the completion.
func (s *Server) enqueue(q []int16, bits *bitvec.Vector, c Completion) error {
	if len(q) != s.cfg.Code.N {
		return fmt.Errorf("serve: frame has %d LLRs for code length %d", len(q), s.cfg.Code.N)
	}
	if bits != nil && bits.Len() != s.cfg.Code.N {
		return fmt.Errorf("serve: bit vector length %d for code length %d", bits.Len(), s.cfg.Code.N)
	}
	req := s.reqPool.Get().(*request)
	req.q, req.bits, req.c = q, bits, c
	req.enq = time.Now()

	// The read lock makes the closed check and the send atomic with
	// respect to Close, which closes s.in under the write lock: no
	// send can race the close.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.recycle(req)
		return ErrClosed
	}
	select {
	case s.in <- req:
		s.metrics.framesIn.Add(1)
		s.metrics.queued.Add(1)
		s.mu.RUnlock()
		return nil
	default:
		s.mu.RUnlock()
		s.recycle(req)
		return ErrOverloaded
	}
}

// recycle returns a request to its pool without its references.
func (s *Server) recycle(req *request) {
	req.q, req.bits, req.c = nil, nil, nil
	s.reqPool.Put(req)
}

// Close stops accepting frames, decodes everything already accepted and
// waits for the workers to finish, so every accepted frame's completion
// has run when it returns. It is idempotent; concurrent submissions
// either complete normally or are refused with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.mu.Unlock()
	s.workerWG.Wait() // workers drain in, then exit
}

// worker owns one pre-built packed decoder: it gathers a batch, claims
// it, decodes it and delivers it, on arrays that live on the worker, so
// the decode path performs no allocation. It exits once the queue is
// closed and drained.
//
// A panic inside a batch (a decoder bug, or — in the radiation-test
// frame of this codebase — an injected crash) is confined to that
// batch: every claimed frame is answered ErrWorkerCrash, the
// possibly-corrupt decoder is discarded for a freshly built one, and
// the worker goroutine keeps serving. The server never crashes and no
// claimed frame is ever lost.
func (s *Server) worker(id int, dec *batch.Parallel) {
	defer s.workerWG.Done()
	defer func() { dec.Close() }()
	var reqs [batch.MaxFrames]*request
	var res [batch.MaxFrames]ldpc.Result
	var qs [batch.MaxFrames][]int16
	linger := time.NewTimer(time.Hour)
	linger.Stop()
	for {
		n := s.gather(&reqs, linger)
		if n == 0 {
			return
		}
		k := s.claim(reqs[:n], &res, &qs)
		if k == 0 {
			continue
		}
		err := s.decode(id, dec, res[:k], qs[:k])
		now := time.Now()
		for i := 0; i < k; i++ {
			s.deliver(reqs[i], res[i], err, now)
			res[i], qs[i], reqs[i] = ldpc.Result{}, nil, nil
		}
		if errors.Is(err, ErrWorkerCrash) {
			if d, err := s.newDec(); err == nil {
				dec.Close() // shard goroutines survive a coordinator panic; release them
				dec = d
			}
			// The factory cannot fail here — the same graph and params
			// built the original pool — but if it somehow does, the
			// worker soldiers on with the old decoder rather than
			// shrinking the pool.
		}
	}
}

// gather is the adaptive batching scheduler, run by the worker that is
// about to decode — the software analogue of the paper's frame buffer
// keeping all 8 lanes of the memory word busy. It blocks for a first
// frame, then takes frames into reqs until the batch holds MaxBatch,
// the queue closes, or the first frame has waited Config.Linger since
// it was enqueued. Frames already queued join without waiting, so the
// linger timer is armed only when the queue is empty: under load a
// batch is sealed as soon as a worker is free, holding everything
// queued by then. It returns the batch size, 0 once the queue is
// closed and drained.
//
// Only the holder of gathering receives from the queue. Were every
// idle worker waiting on the channel, each send would go to a
// different one and a burst would split into part-filled batches.
func (s *Server) gather(reqs *[batch.MaxFrames]*request, linger *time.Timer) int {
	s.gathering.Lock()
	defer s.gathering.Unlock()
	defer linger.Stop()
	n := 0
	for n < s.cfg.MaxBatch {
		var req *request
		var ok bool
		select {
		case req, ok = <-s.in:
		default:
			if n == 0 {
				req, ok = <-s.in
				break
			}
			wait := s.cfg.Linger - time.Since(reqs[0].enq)
			if wait <= 0 {
				return n
			}
			linger.Reset(wait)
			select {
			case req, ok = <-s.in:
			case <-linger.C:
				return n
			}
		}
		if !ok {
			return n // closed: the buffer is drained, seal what is held
		}
		s.metrics.queued.Add(-1)
		s.metrics.inFlight.Add(1)
		reqs[n] = req
		n++
	}
	return n
}

// claim takes ownership of a gathered batch's frames, compacting the
// ones to decode to the front of reqs, res and qs, and returns their
// number. A lane whose DecodeQ caller already abandoned it on deadline
// is dropped and its waiter recycled, so the worker never writes into
// memory a released caller may be reusing; a frame that waited longer
// than Config.Deadline is answered ErrDeadline undecoded.
func (s *Server) claim(reqs []*request, res *[batch.MaxFrames]ldpc.Result, qs *[batch.MaxFrames][]int16) int {
	var now time.Time
	if s.cfg.Deadline > 0 {
		now = time.Now()
	}
	k := 0
	for i, req := range reqs {
		reqs[i] = nil
		if w, ok := req.c.(*waiter); ok && !w.claimed.CompareAndSwap(false, true) {
			// The caller timed out while the frame was queued and has
			// counted it; skip the lane and recycle.
			s.metrics.inFlight.Add(-1)
			s.recycle(req)
			s.waiterPool.Put(w)
			continue
		}
		if s.cfg.Deadline > 0 && now.Sub(req.enq) > s.cfg.Deadline {
			s.metrics.framesDeadline.Add(1)
			s.metrics.inFlight.Add(-1)
			s.health.record(false)
			c := req.c
			s.recycle(req)
			c.Complete(ldpc.Result{}, ErrDeadline)
			continue
		}
		reqs[k] = req
		qs[k] = req.q
		res[k] = ldpc.Result{Bits: req.bits}
		k++
	}
	return k
}

// decode runs one batch on the worker's decoder. A panic is confined
// here: the crash is counted, the results are cleared and
// ErrWorkerCrash is returned, after which the decoder must be
// considered corrupt.
func (s *Server) decode(id int, dec *batch.Parallel, res []ldpc.Result, qs [][]int16) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerRestarts.Add(1)
			s.metrics.framesCrashed.Add(int64(len(res)))
			clear(res)
			err = fmt.Errorf("%w (worker %d: %v)", ErrWorkerCrash, id, r)
		}
	}()
	// Degraded mode: under a tripped breaker the batch runs the reduced
	// iteration budget. The budget is sticky per decoder and adjusted
	// only on transitions.
	want := s.cfg.Params.MaxIterations
	if s.breaker.tripped.Load() {
		want = s.cfg.DegradedIterations
	}
	if dec.MaxIterations() != want {
		_ = dec.SetMaxIterations(want) // only fails for n < 1; want ≥ 1 by validation
	}
	if hook := s.cfg.panicHook; hook != nil {
		hook(id)
	}
	err = dec.DecodeQInto(res, qs)
	var iters int64
	if err == nil {
		for i := range res {
			iters += int64(res[i].Iterations)
		}
	}
	s.metrics.recordBatch(id, len(res), iters)
	return err
}

// deliver records a claimed frame's outcome — latency, health and the
// breaker, which sees decode outcomes only (not shed or deadline, which
// measure load, not decoder damage) — recycles its request and hands
// the outcome to its completion.
func (s *Server) deliver(req *request, res ldpc.Result, err error, now time.Time) {
	ok := err == nil && res.Converged
	s.metrics.latency.Record(now.Sub(req.enq).Microseconds())
	s.metrics.inFlight.Add(-1)
	s.health.record(ok)
	s.breaker.recordEval(ok)
	c := req.c
	s.recycle(req)
	c.Complete(res, err)
}
