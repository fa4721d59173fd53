package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// outcome is a test Completion that counts its calls and keeps the
// first call's outcome.
type outcome struct {
	calls atomic.Int32
	res   ldpc.Result
	err   error
	done  chan struct{}
}

func newOutcome() *outcome { return &outcome{done: make(chan struct{})} }

func (o *outcome) Complete(res ldpc.Result, err error) {
	if o.calls.Add(1) == 1 {
		o.res, o.err = res, err
		close(o.done)
	}
}

// inline reports whether the outcome had arrived when Submit returned.
func (o *outcome) inline() bool {
	select {
	case <-o.done:
		return true
	default:
		return false
	}
}

func (o *outcome) wait(t *testing.T) {
	t.Helper()
	select {
	case <-o.done:
	case <-time.After(10 * time.Second):
		t.Fatal("completion never called")
	}
}

// ledger checks, with the server idle, that every completion ran
// exactly once and that the counters balance: frames submitted =
// FramesIn + FramesShed + refusals after Close, and FramesIn =
// FramesDecoded + FramesDeadline + FramesCrashed.
func ledger(t *testing.T, s *Server, outs []*outcome, refusedClosed int) Snapshot {
	t.Helper()
	for i, o := range outs {
		if n := o.calls.Load(); n != 1 {
			t.Errorf("frame %d completed %d times", i, n)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.FramesIn + snap.FramesShed + int64(refusedClosed); got != int64(len(outs)) {
		t.Errorf("in %d + shed %d + refused after close %d != %d submitted",
			snap.FramesIn, snap.FramesShed, refusedClosed, len(outs))
	}
	if got := snap.FramesDecoded + snap.FramesDeadline + snap.FramesCrashed; got != snap.FramesIn {
		t.Errorf("in %d != decoded %d + deadline %d + crashed %d",
			snap.FramesIn, snap.FramesDecoded, snap.FramesDeadline, snap.FramesCrashed)
	}
	return snap
}

// gate is a panicHook that parks each batch until the test releases
// it: entered receives one value per batch about to decode, and the
// function sent on run decides its fate.
type gate struct {
	entered chan struct{}
	run     chan func()
}

func newGate() *gate { return &gate{entered: make(chan struct{}), run: make(chan func())} }

func (g *gate) hook(int) {
	g.entered <- struct{}{}
	(<-g.run)()
}

// pass lets the parked batch decode.
func (g *gate) pass() { g.run <- func() {} }

// TestSubmitDecodesPipelined: one goroutine submitting a burst without
// waiting fills the scheduler's batches, and every frame comes back
// exactly once, bit-exact, into the bits vector it was given.
func TestSubmitDecodesPipelined(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, Linger: time.Second})
	const n = 16
	qs := make([][]int16, n)
	bits := make([]*bitvec.Vector, n)
	outs := make([]*outcome, n)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 3.0, uint64(500+i))
		bits[i] = bitvec.New(c.N)
		outs[i] = newOutcome()
	}
	ref := scalarRef(t, c, p, qs)
	start := time.Now()
	for i := range qs {
		s.Submit(qs[i], bits[i], outs[i])
	}
	for i, o := range outs {
		o.wait(t)
		if o.err != nil {
			t.Fatalf("frame %d: %v", i, o.err)
		}
		if o.res.Bits != bits[i] || !bits[i].Equal(ref[i].bits) {
			t.Fatalf("frame %d: hard decision not delivered bit-exact into its vector", i)
		}
		if o.res.Iterations != ref[i].iterations || o.res.Converged != ref[i].converged {
			t.Fatalf("frame %d: result meta differs from scalar decoder", i)
		}
	}
	if d := time.Since(start); d > 900*time.Millisecond {
		t.Errorf("burst took %v: full batches waited out the 1 s linger", d)
	}
	snap := ledger(t, s, outs, 0)
	if snap.Batches != n/8 || snap.BatchFill[7] != n/8 {
		t.Errorf("%d frames in %d batches (fill %v), want %d full ones", n, snap.Batches, snap.BatchFill, n/8)
	}
}

// TestSubmitRefusalsCompleteInline: a malformed frame, a frame shed by
// a full queue and a frame submitted after Close are each completed
// before Submit returns, with their typed errors, while the accepted
// frames of the same burst decode.
func TestSubmitRefusalsCompleteInline(t *testing.T) {
	c := smallCode(t)
	p := slowParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, MaxBatch: 1, QueueDepth: 1})
	q := noisyQ(t, c, p.Format, 2.5, 21)

	bad := newOutcome()
	s.Submit(q[:c.N-1], nil, bad)
	if !bad.inline() || bad.err == nil || errors.Is(bad.err, ErrOverloaded) {
		t.Fatalf("short frame: inline %v, err %v", bad.inline(), bad.err)
	}

	const burst = 32
	outs := make([]*outcome, burst)
	shed := 0
	for i := range outs {
		outs[i] = newOutcome()
		s.Submit(q, nil, outs[i])
		if outs[i].inline() && errors.Is(outs[i].err, ErrOverloaded) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("a depth-1 queue behind a slow worker shed nothing of a 32-frame burst")
	}
	sheds := 0
	for i, o := range outs {
		o.wait(t)
		switch {
		case errors.Is(o.err, ErrOverloaded):
			sheds++
		case o.err != nil:
			t.Fatalf("frame %d: %v", i, o.err)
		}
	}
	if sheds != shed {
		t.Fatalf("%d frames shed, %d of them before Submit returned", sheds, shed)
	}

	s.Close()
	late := newOutcome()
	s.Submit(q, nil, late)
	if !late.inline() || !errors.Is(late.err, ErrClosed) {
		t.Fatalf("after Close: inline %v, err %v", late.inline(), late.err)
	}
	snap := ledger(t, s, append(outs, late), 1)
	if snap.FramesShed != int64(shed) {
		t.Errorf("metrics count %d shed, completions saw %d", snap.FramesShed, shed)
	}
	if bad.calls.Load() != 1 {
		t.Errorf("malformed frame completed %d times", bad.calls.Load())
	}
}

// TestSubmitDeadlineAtClaim: a submitted frame still queued when its
// deadline passes is answered ErrDeadline by the worker that claims
// it, without decoding it, and counts in FramesDeadline; the frame the
// worker was already decoding is delivered normally.
func TestSubmitDeadlineAtClaim(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	g := newGate()
	const deadline = 200 * time.Millisecond
	s := newTestServer(t, Config{
		Code: c, Params: p, Workers: 1, MaxBatch: 1, Linger: 50 * time.Microsecond,
		Deadline: deadline, panicHook: g.hook,
	})
	q := noisyQ(t, c, p.Format, 3.0, 23)
	ref := scalarRef(t, c, p, [][]int16{q})[0]

	head, queued := newOutcome(), newOutcome()
	s.Submit(q, nil, head)
	<-g.entered // head claimed in time; the worker is parked before decoding it
	sentinel := bitvec.New(c.N)
	sentinel.Set(0)
	sentinel.Set(c.N - 1)
	bits := sentinel.Clone()
	s.Submit(q, bits, queued)
	time.Sleep(deadline + deadline/2)
	if queued.inline() {
		t.Fatal("queued frame answered before a worker reached it")
	}
	g.pass()

	head.wait(t)
	if head.err != nil || !head.res.Bits.Equal(ref.bits) {
		t.Fatalf("head frame: err %v", head.err)
	}
	queued.wait(t)
	if !errors.Is(queued.err, ErrDeadline) || queued.res.Bits != nil {
		t.Fatalf("expired frame: err %v, bits %v", queued.err, queued.res.Bits != nil)
	}
	if !bits.Equal(sentinel) {
		t.Fatal("expired frame's bits vector was written")
	}
	s.Close()
	snap := ledger(t, s, []*outcome{head, queued}, 0)
	if snap.FramesDeadline != 1 || snap.FramesDecoded != 1 || snap.Batches != 1 {
		t.Errorf("deadline %d decoded %d batches %d, want 1/1/1",
			snap.FramesDeadline, snap.FramesDecoded, snap.Batches)
	}
}

// TestSubmitWorkerCrash: every frame of a batch whose decode panics is
// answered ErrWorkerCrash exactly once, the restart is counted before
// the answer arrives, and the rebuilt worker decodes the next frame.
func TestSubmitWorkerCrash(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	g := newGate()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, Linger: 20 * time.Millisecond, panicHook: g.hook})
	const n = 4
	qs := make([][]int16, n)
	outs := make([]*outcome, n)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 3.0, uint64(600+i))
		outs[i] = newOutcome()
		s.Submit(qs[i], nil, outs[i])
	}
	<-g.entered
	g.run <- func() { panic("injected crash mid-batch") }
	for i, o := range outs {
		o.wait(t)
		if !errors.Is(o.err, ErrWorkerCrash) {
			t.Fatalf("frame %d: %v, want ErrWorkerCrash", i, o.err)
		}
	}
	if r := s.Metrics().Snapshot().WorkerRestarts; r != 1 {
		t.Errorf("worker restarts = %d when the crash was answered, want 1", r)
	}

	after := newOutcome()
	s.Submit(qs[0], nil, after)
	<-g.entered
	g.pass()
	after.wait(t)
	ref := scalarRef(t, c, p, qs[:1])[0]
	if after.err != nil || !after.res.Bits.Equal(ref.bits) {
		t.Fatalf("frame after restart: err %v", after.err)
	}
	s.Close()
	snap := ledger(t, s, append(outs, after), 0)
	if snap.FramesCrashed != n || snap.FramesDecoded != 1 {
		t.Errorf("crashed %d decoded %d, want %d/1", snap.FramesCrashed, snap.FramesDecoded, n)
	}
}

// TestInFlightCountsParkedBatch: a frame counts in InFlight from the
// moment a worker gathers it, so a batch parked before its decode is
// neither lost from the gauges nor double-counted, and the ledger
// balances while it waits.
func TestInFlightCountsParkedBatch(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	g := newGate()
	const n = 4
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, MaxBatch: n, Linger: time.Second, panicHook: g.hook})
	outs := make([]*outcome, n)
	for i := range outs {
		outs[i] = newOutcome()
		s.Submit(noisyQ(t, c, p.Format, 3.0, uint64(700+i)), nil, outs[i])
	}
	<-g.entered
	snap := s.Metrics().Snapshot()
	if snap.InFlight != n || snap.QueueDepth != 0 {
		t.Errorf("batch parked in its worker: in_flight %d, queue_depth %d, want %d and 0", snap.InFlight, snap.QueueDepth, n)
	}
	if got := snap.FramesDecoded + snap.FramesDeadline + snap.FramesCrashed + snap.QueueDepth + snap.InFlight; got != snap.FramesIn {
		t.Errorf("in %d != decoded %d + deadline %d + crashed %d + queued %d + in flight %d",
			snap.FramesIn, snap.FramesDecoded, snap.FramesDeadline, snap.FramesCrashed, snap.QueueDepth, snap.InFlight)
	}
	g.pass()
	for i, o := range outs {
		o.wait(t)
		if o.err != nil {
			t.Fatalf("frame %d: %v", i, o.err)
		}
	}
	s.Close()
	if snap := ledger(t, s, outs, 0); snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Errorf("after Close: in_flight %d, queue_depth %d, want 0", snap.InFlight, snap.QueueDepth)
	}
}
