// Package serve is the decode-as-a-service layer over the frame-packed
// SWAR decoder: an adaptive batching scheduler that packs frames from
// concurrent clients into full 8-lane batches for a pool of workers,
// each owning one batch.Parallel decoder.
//
// The paper's high-speed instance earns its 8× throughput by storing 8
// frames' messages in every memory word (Fig. 3) — which only pays off
// when 8 frames are actually available every decoding period. On an
// FPGA the frame buffer guarantees that; in a server, concurrent
// clients do. The scheduler is the software frame buffer: it holds
// arriving frames just long enough (Config.Linger) to fill a word's 8
// lanes, then dispatches the batch to a worker owning a pre-built
// decoder, so a loaded server decodes at the packed rate while a lone
// frame still meets its latency SLO via the linger deadline.
//
// Config.Shards, Config.LaneWidth and Config.SuperBatch scale each
// worker's decoder the way the paper scales the processing block with
// more CN/BN units: Shards spreads one decode's CN/BN phases across
// shard goroutines (bit-identically), LaneWidth widens the kernel
// strips to up to 8 words per step, and SuperBatch stacks up to 8
// strips — together up to 64 memory words, 512 frames — into one
// dispatch. Workers × Shards is budgeted against GOMAXPROCS so the
// levels of parallelism compose instead of oversubscribing.
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
// within Config.Deadline: the caller is released and the frame is
// dropped from its batch undecoded. A frame a worker claims before the
// deadline fires is decoded and delivered normally, so the deadline
// bounds queueing delay — the variable, load-dependent part of the
// latency — not an in-flight decode.
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
	// path. The default budgets Workers × Shards against GOMAXPROCS:
	// max(1, GOMAXPROCS/Shards) workers, so sharding a decoder wider
	// trades worker-level for intra-decode parallelism instead of
	// oversubscribing the cores.
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
	// MaxBatch is the dispatch width in frames,
	// 1..SuperBatch×LaneWidth×batch.Lanes (default
	// SuperBatch×LaneWidth×batch.Lanes; 8 — the paper's packing factor
	// — at the default SuperBatch and LaneWidth of 1).
	MaxBatch int
	// Linger is how long the scheduler holds a partial batch open for
	// more frames before flushing it (default 500 µs). It is the
	// latency price a lone frame pays for the chance of lane sharing.
	Linger time.Duration
	// QueueDepth bounds the frames accepted but not yet dispatched;
	// submissions beyond it are shed with ErrOverloaded (default
	// 4 × Workers × MaxBatch).
	QueueDepth int
	// Deadline bounds how long a frame may wait to start decoding; 0
	// disables. An expired frame is dropped from its batch and its
	// caller gets ErrDeadline; a frame a worker claims first is decoded
	// and delivered even if that lands slightly past the deadline.
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

// request is one in-flight frame. Requests are pooled; the done channel
// (capacity 1) is reused across lives.
//
// claimed arbitrates the request's single ownership hand-off under
// deadlines: whichever side wins the CompareAndSwap — the worker
// finishing the decode or the caller timing out — takes the request's
// fate. The worker sends done only after winning; a caller that wins
// walks away and the worker recycles the request instead, so the pooled
// done channel can never carry a stale signal into a later life.
type request struct {
	q       []int16        // caller's quantized LLRs; not retained after decode
	bits    *bitvec.Vector // destination; nil → allocated by the decoder
	res     ldpc.Result
	err     error
	enq     time.Time
	done    chan struct{}
	claimed atomic.Bool
}

// job is one dispatched batch. Jobs are pooled; the request array is
// sized for the widest possible dispatch (an 8-strip super-batch of
// 8-word strips), of which only the first Config.MaxBatch entries are
// ever used.
type job struct {
	reqs [batch.MaxFrames]*request
	n    int
}

// Server is the decode service. Create with New, submit frames with
// DecodeQ from any number of goroutines, stop with Close.
type Server struct {
	cfg     Config
	graph   *ldpc.Graph                     // retained for rebuilding crashed workers' decoders
	newDec  func() (*batch.Parallel, error) // decoder factory honoring Shards/SuperBatch/LaneWidth
	in      chan *request
	jobs    chan *job
	metrics *Metrics
	health  *Health
	breaker *Breaker

	reqPool sync.Pool
	jobPool sync.Pool

	mu     sync.RWMutex // guards closed vs. sends on in
	closed bool

	batcherWG sync.WaitGroup
	workerWG  sync.WaitGroup
}

// New builds and starts a server: Workers decoders are constructed up
// front (surfacing format/code incompatibilities immediately) and the
// scheduler begins accepting frames.
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
	s := &Server{
		cfg:     cfg,
		graph:   g,
		newDec:  newDec,
		in:      make(chan *request, cfg.QueueDepth),
		jobs:    make(chan *job, cfg.Workers),
		metrics: newMetrics(cfg.Workers, cfg.MaxBatch),
		health:  newHealth(cfg.HealthWindow, cfg.HealthThreshold, cfg.HealthRecoverThreshold, cfg.HealthMinSamples),
		breaker: nil, // bound below, after metrics exists
	}
	s.breaker = newBreaker(cfg.BreakerWindow, cfg.BreakerTrip, cfg.BreakerRecover, cfg.BreakerMinSamples, s.metrics)
	s.reqPool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	s.jobPool.New = func() any { return new(job) }
	s.batcherWG.Add(1)
	go s.batcher()
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

// Health returns the sliding-window decode-failure health signal.
func (s *Server) Health() *Health { return s.health }

// Breaker returns the uncorrectable-frame circuit breaker.
func (s *Server) Breaker() *Breaker { return s.breaker }

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
	if len(q) != s.cfg.Code.N {
		return ldpc.Result{}, fmt.Errorf("serve: frame has %d LLRs for code length %d", len(q), s.cfg.Code.N)
	}
	if bits != nil && bits.Len() != s.cfg.Code.N {
		return ldpc.Result{}, fmt.Errorf("serve: bit vector length %d for code length %d", bits.Len(), s.cfg.Code.N)
	}
	req := s.reqPool.Get().(*request)
	req.q, req.bits, req.res, req.err = q, bits, ldpc.Result{}, nil
	req.enq = time.Now()
	req.claimed.Store(false)

	// The read lock makes the closed check and the send atomic with
	// respect to Close, which closes s.in under the write lock: no
	// send can race the close.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.reqPool.Put(req)
		return ldpc.Result{}, ErrClosed
	}
	select {
	case s.in <- req:
		s.metrics.framesIn.Add(1)
		s.metrics.queued.Add(1)
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.metrics.framesShed.Add(1)
		s.health.Record(false)
		s.reqPool.Put(req)
		return ldpc.Result{}, ErrOverloaded
	}

	if s.cfg.Deadline > 0 {
		timer := time.NewTimer(s.cfg.Deadline)
		select {
		case <-req.done:
			timer.Stop()
		case <-timer.C:
			if req.claimed.CompareAndSwap(false, true) {
				// No worker has claimed the frame: abandon it. The
				// worker that eventually receives the batch sees the
				// claim, skips the lane and recycles the request.
				s.metrics.framesDeadline.Add(1)
				s.health.Record(false)
				return ldpc.Result{}, ErrDeadline
			}
			// A worker claimed the frame first: it is being decoded
			// and done is imminent — a completion, not a timeout.
			<-req.done
		}
	} else {
		<-req.done
	}
	res, err := req.res, req.err
	s.metrics.recordLatency(time.Since(req.enq).Microseconds())
	s.health.Record(err == nil && res.Converged)
	// The breaker sees decode outcomes only (not shed/deadline, which
	// measure load, not decoder damage).
	s.breaker.Record(err == nil && res.Converged)
	req.q, req.bits, req.res.Bits = nil, nil, nil
	s.reqPool.Put(req)
	return res, err
}

// Close stops accepting frames, decodes everything already accepted and
// waits for the workers to finish. It is idempotent; concurrent DecodeQ
// callers either complete normally or return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.batcherWG.Wait()
		s.workerWG.Wait()
		return
	}
	s.closed = true
	close(s.in)
	s.mu.Unlock()
	s.batcherWG.Wait() // batcher drains in, flushes, closes jobs
	s.workerWG.Wait()  // workers drain jobs
}

// batcher is the adaptive batching scheduler: it fills a batch to
// MaxBatch frames, or flushes a partial one when the oldest frame has
// lingered Config.Linger — the software analogue of the paper's frame
// buffer keeping all 8 lanes of the memory word busy.
func (s *Server) batcher() {
	defer s.batcherWG.Done()
	defer close(s.jobs)
	cur := s.jobPool.Get().(*job)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	flush := func() {
		if timerArmed {
			if !timer.Stop() {
				<-timer.C
			}
			timerArmed = false
		}
		if cur.n == 0 {
			return
		}
		s.metrics.queued.Add(-int64(cur.n))
		s.metrics.pending.Add(int64(cur.n))
		s.jobs <- cur
		cur = s.jobPool.Get().(*job)
		cur.n = 0
	}
	for {
		select {
		case req, ok := <-s.in:
			if !ok {
				// Shutdown: everything buffered in s.in has already
				// been received (channel close delivers the buffer
				// first), so one final flush drains the server.
				flush()
				s.jobPool.Put(cur)
				return
			}
			cur.reqs[cur.n] = req
			cur.n++
			if cur.n == s.cfg.MaxBatch {
				flush()
			} else if cur.n == 1 {
				timer.Reset(s.cfg.Linger)
				timerArmed = true
			}
		case <-timer.C:
			timerArmed = false
			flush()
		}
	}
}

// worker owns one pre-built packed decoder and decodes dispatched
// batches. The result and frame-slice arrays live on the worker, so the
// decode path performs no allocation.
//
// Each frame is claimed before decoding: a lane whose caller already
// abandoned it on deadline is dropped from the batch and its request
// recycled, so the worker never writes into memory a released caller
// may be reusing. Winning the claim commits the worker to delivering
// the result — the matching caller-side CAS then waits for done.
//
// A panic inside a batch (a decoder bug, or — in the radiation-test
// frame of this codebase — an injected crash) is confined to that
// batch: every claimed frame's caller receives ErrWorkerCrash, the
// possibly-corrupt decoder is discarded for a freshly built one, and
// the worker goroutine keeps serving. The server never crashes and no
// claimed frame is ever lost.
func (s *Server) worker(id int, dec *batch.Parallel) {
	defer s.workerWG.Done()
	defer func() { dec.Close() }()
	var res [batch.MaxFrames]ldpc.Result
	var qs [batch.MaxFrames][]int16
	for j := range s.jobs {
		if !s.runJob(id, dec, j, &res, &qs) {
			s.metrics.workerRestarts.Add(1)
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

// runJob claims and decodes one dispatched batch, delivering a result
// to every claimed frame. It reports ok=false after confining a panic,
// in which case the decoder must be considered corrupt.
func (s *Server) runJob(id int, dec *batch.Parallel, j *job, res *[batch.MaxFrames]ldpc.Result, qs *[batch.MaxFrames][]int16) (ok bool) {
	n := j.n
	k := 0
	for i := 0; i < n; i++ {
		req := j.reqs[i]
		j.reqs[i] = nil
		if !req.claimed.CompareAndSwap(false, true) {
			// Deadline expired while the frame was queued: the
			// caller is gone, skip the lane and recycle.
			req.q, req.bits = nil, nil
			s.reqPool.Put(req)
			continue
		}
		j.reqs[k] = req
		qs[k] = req.q
		res[k] = ldpc.Result{Bits: req.bits}
		k++
	}
	s.metrics.pending.Add(-int64(n))
	delivered := 0
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// Deliver the crash to every claimed frame still owed a result;
		// the claim CAS committed us to it, and the callers' retry is
		// how the frames survive.
		crashErr := fmt.Errorf("%w (worker %d: %v)", ErrWorkerCrash, id, r)
		for i := delivered; i < k; i++ {
			req := j.reqs[i]
			req.res, req.err = ldpc.Result{}, crashErr
			res[i] = ldpc.Result{}
			qs[i] = nil
			j.reqs[i] = nil
			req.done <- struct{}{}
		}
		s.metrics.framesCrashed.Add(int64(k - delivered))
		j.n = 0
		s.jobPool.Put(j)
	}()
	if k > 0 {
		// Degraded mode: under a tripped breaker the batch runs the
		// reduced iteration budget. The budget is sticky per decoder
		// and adjusted only on transitions.
		want := s.cfg.Params.MaxIterations
		if s.breaker.Degraded() {
			want = s.cfg.DegradedIterations
		}
		if dec.MaxIterations() != want {
			_ = dec.SetMaxIterations(want) // only fails for n < 1; want ≥ 1 by validation
		}
		if hook := s.cfg.panicHook; hook != nil {
			hook(id)
		}
		err := dec.DecodeQInto(res[:k], qs[:k])
		var iters int64
		if err == nil {
			for i := 0; i < k; i++ {
				iters += int64(res[i].Iterations)
			}
		}
		s.metrics.recordBatch(id, k, iters)
		for i := 0; i < k; i++ {
			req := j.reqs[i]
			req.res, req.err = res[i], err
			res[i] = ldpc.Result{}
			qs[i] = nil
			j.reqs[i] = nil
			req.done <- struct{}{}
			delivered++
		}
	}
	j.n = 0
	s.jobPool.Put(j)
	return true
}
