package fleet

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/serve"
)

// Backend lifecycle. Active backends take new frames; a draining
// backend (unhealthy probe) finishes its in-flight frames but gets no
// new ones; a down backend (dial failure — definitive unreachability)
// additionally has its claimed frames requeued as its connections die.
// Both drained states re-admit the same way: ReadmitAfter consecutive
// healthy probes, the hysteresis that keeps a flapping instance from
// oscillating in and out of rotation.
const (
	stateActive int32 = iota
	stateDraining
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateActive:
		return "active"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// backend is one decode instance as the router sees it: a send queue
// feeding a pool of pipelined connections, a health state, and per-
// backend counters.
type backend struct {
	idx   int
	cfg   BackendConfig
	probe Probe

	sendCh chan *call

	state    atomic.Int32
	degraded atomic.Bool
	streak   int     // consecutive healthy probes; poller-goroutine-local
	credit   float64 // round-robin credit, guarded by Router.pickMu

	pending atomic.Int64 // attempts queued or awaiting response

	frames     atomic.Int64 // responses received
	sheds      atomic.Int64 // StatusOverloaded responses
	deadlines  atomic.Int64 // StatusDeadline responses
	crashes    atomic.Int64 // StatusInternal responses
	connErrors atomic.Int64 // attempts lost to a dying connection
	dialFails  atomic.Int64
	drains     atomic.Int64 // transitions out of Active
	readmits   atomic.Int64 // transitions back to Active
	probeFails atomic.Int64
	lastErr    atomic.Pointer[string]
}

func newBackend(idx int, bc BackendConfig, cfg Config) *backend {
	b := &backend{
		idx:    idx,
		cfg:    bc,
		probe:  bc.Probe,
		sendCh: make(chan *call, cfg.ConnsPerBackend*cfg.PipelineDepth),
	}
	if b.probe == nil {
		b.probe = DialProbe(bc.Addr, cfg.DialTimeout)
	}
	return b
}

// weight folds health into routing: a healthy backend carries full
// weight, a degraded (tripped-breaker) one half — still routable, but
// picked half as often — and a draining or down backend none.
func (b *backend) weight() float64 {
	if b.state.Load() != stateActive {
		return 0
	}
	if b.degraded.Load() {
		return 0.5
	}
	return 1
}

// setState transitions the backend, counting drains and re-admissions.
func (b *backend) setState(next int32) {
	prev := b.state.Swap(next)
	if prev == next {
		return
	}
	if prev == stateActive {
		b.drains.Add(1)
	}
	if next == stateActive {
		b.readmits.Add(1)
	}
}

func (b *backend) noteStatus(status byte) {
	switch status {
	case serve.StatusOverloaded:
		b.sheds.Add(1)
	case serve.StatusDeadline:
		b.deadlines.Add(1)
	case serve.StatusInternal:
		b.crashes.Add(1)
	}
}

func (b *backend) noteErr(err error) {
	s := err.Error()
	b.lastErr.Store(&s)
}

// runBackendConn is one pool slot: dial, pump until the connection
// dies, back off, redial — forever, because the connection pool doubles
// as the reconnection probe. A dial failure marks the backend down
// immediately (new frames reroute at once, without waiting for the next
// health poll); re-admission is the poller's job.
func (r *Router) runBackendConn(b *backend) {
	defer r.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", b.cfg.Addr, r.cfg.DialTimeout)
		if err != nil {
			b.dialFails.Add(1)
			b.noteErr(err)
			b.setState(stateDown)
			// The backend is definitively unreachable; frames still
			// waiting in its queue would sit until their deadlines.
			// Fail them now so each requeues (at most once) immediately.
			r.drainQueue(b, err)
			select {
			case <-r.stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		r.pumpConn(b, nc)
		nc.Close()
	}
}

// pumpConn runs one connection's writer/receiver pair. The writer pulls
// calls from the backend's shared send queue, records each in the
// in-order FIFO before writing it, and flushes whenever the queue is
// momentarily empty or the FIFO is about to block — so bytes never sit
// unflushed behind a blocked writer. The receiver matches responses to
// the FIFO in wire order. When either side sees the connection die, the
// receiver drains the FIFO and fails every claimed-but-unanswered
// attempt through the requeue-once path.
func (r *Router) pumpConn(b *backend, nc net.Conn) {
	depth := r.cfg.PipelineDepth
	inflight := make(chan *call, depth)
	connDead := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			close(connDead)
			nc.Close() // unblocks both sides' I/O
		})
	}

	go func() { // writer; owns inflight's producer side
		defer close(inflight)
		bw := bufio.NewWriterSize(nc, 16<<10)
		for {
			// Flushes happen exactly at the two points the writer can
			// block — before waiting for work and before waiting for
			// FIFO room — so written requests can never sit buffered
			// behind a blocked writer while the receiver waits for
			// their responses.
			var c *call
			select {
			case c = <-b.sendCh:
			default:
				if err := bw.Flush(); err != nil {
					b.noteErr(err)
					kill()
					return
				}
				select {
				case <-r.stop:
					return
				case <-connDead:
					return
				case c = <-b.sendCh:
				}
			}
			if c.completed.Load() {
				// A hedge or deadline already settled the frame; don't
				// waste backend work on it.
				r.attemptResolved(b, c)
				continue
			}
			select {
			case inflight <- c:
			default:
				if err := bw.Flush(); err != nil {
					kill()
					r.attemptFailed(b, c, err)
					return
				}
				select {
				case inflight <- c:
				case <-connDead:
					// The receiver is draining; route this attempt
					// through the failure path rather than stranding it.
					r.attemptFailed(b, c, errConnDead)
					return
				}
			}
			if err := serve.WriteRaw(bw, c.payload); err != nil {
				b.noteErr(err)
				kill()
				return
			}
		}
	}()

	br := bufio.NewReaderSize(nc, 16<<10)
	var rbuf []byte
	for c := range inflight {
		// The rolling read deadline bounds how long a claimed frame can
		// sit unanswered on a hung backend before its connection is
		// declared dead and the frame requeued.
		_ = nc.SetReadDeadline(time.Now().Add(r.cfg.RequestTimeout + r.cfg.RequestTimeout/2))
		var err error
		rbuf, err = serve.ReadRawResponse(br, rbuf)
		if err != nil {
			b.noteErr(err)
			r.attemptFailed(b, c, err)
			kill()
			for c2 := range inflight {
				r.attemptFailed(b, c2, err)
			}
			return
		}
		r.attemptDone(b, c, rbuf)
	}
	// Writer exited cleanly (router stopping or connection killed with
	// an empty FIFO).
	kill()
}

var errConnDead = errors.New("connection lost before write")

// drainQueue fails every frame still waiting in the backend's send
// queue through the requeue-once path. Called on dial failure: the
// queue has no connection to drain it and no prospect of one soon.
// Safe against concurrent pool slots draining at once; a frame racing
// into the queue during the transition is caught by the next backoff
// round's drain.
func (r *Router) drainQueue(b *backend, err error) {
	for {
		select {
		case c := <-b.sendCh:
			r.attemptFailed(b, c, err)
		default:
			return
		}
	}
}

// pollBackend folds the health probe into routing state on every tick:
// unhealthy or unreachable drains (down stays down — only the streak
// re-admits), a healthy streak of ReadmitAfter re-admits, and the
// degraded flag sets the half weight.
func (r *Router) pollBackend(b *backend) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		h, err := b.probe()
		if err != nil || !h.Healthy {
			b.streak = 0
			b.probeFails.Add(1)
			if err != nil {
				b.noteErr(err)
			}
			if b.state.Load() == stateActive {
				b.setState(stateDraining)
			}
			continue
		}
		b.streak++
		b.degraded.Store(h.Degraded)
		if b.state.Load() != stateActive && b.streak >= r.cfg.ReadmitAfter {
			b.setState(stateActive)
		}
	}
}
