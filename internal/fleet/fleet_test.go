package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/serve"
)

// testCodebook mirrors serve's fuzz codebook: three codes with distinct
// frame lengths, no pools behind them. Code 0 (the default) is 32 LLRs,
// code 2 is 16, code 7 is 48.
type testCodebook struct{}

func (testCodebook) DefaultID() byte { return 0 }

func (testCodebook) FrameLen(id byte) (int, bool) {
	switch id {
	case 0:
		return 32, true
	case 2:
		return 16, true
	case 7:
		return 48, true
	}
	return 0, false
}

func (testCodebook) IDs() []byte { return []byte{0, 2, 7} }

// Fake backend behavior modes.
const (
	modeEcho      int32 = iota // StatusOK, hard decisions = LLR signs
	modeBlackhole              // read the frame, never answer
	modeShed                   // StatusOverloaded for every frame
	modeSlow                   // echo after a fixed delay
)

// fakeBackend is a decode instance that speaks the wire protocol but
// computes nothing: an echo response's hard decisions are the signs of
// the request LLRs, so the client can verify which frame an answer
// belongs to. Every valid frame's LLR bytes are counted in seen — the
// exactly-once ledger the requeue tests audit.
type fakeBackend struct {
	l     net.Listener
	mode  atomic.Int32
	delay time.Duration

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	frames atomic.Int64
	seen   sync.Map // string(llrs) -> *atomic.Int64 attempts observed
}

func newFakeBackend(t testing.TB) *fakeBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fb := &fakeBackend{l: l, conns: make(map[net.Conn]struct{})}
	go fb.accept(l)
	t.Cleanup(fb.kill)
	return fb
}

func (fb *fakeBackend) addr() string { return fb.l.Addr().String() }

func (fb *fakeBackend) accept(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		fb.mu.Lock()
		if fb.closed {
			fb.mu.Unlock()
			c.Close()
			return
		}
		fb.conns[c] = struct{}{}
		fb.mu.Unlock()
		go fb.serve(c)
	}
}

func (fb *fakeBackend) serve(c net.Conn) {
	defer func() {
		c.Close()
		fb.mu.Lock()
		delete(fb.conns, c)
		fb.mu.Unlock()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	var rbuf, wbuf []byte
	for {
		var err error
		rbuf, err = serve.ReadRawRequest(br, rbuf)
		if err != nil {
			return
		}
		_, llrs, perr := serve.ParseRequest(rbuf, testCodebook{})
		if perr != nil {
			wbuf, _ = serve.WriteResponse(bw, serve.StatusBadFrame, ldpc.Result{}, wbuf)
			if bw.Flush() != nil {
				return
			}
			continue
		}
		fb.frames.Add(1)
		cnt, _ := fb.seen.LoadOrStore(string(llrs), new(atomic.Int64))
		cnt.(*atomic.Int64).Add(1)
		switch fb.mode.Load() {
		case modeBlackhole:
			continue
		case modeShed:
			wbuf, _ = serve.WriteResponse(bw, serve.StatusOverloaded, ldpc.Result{}, wbuf)
		case modeSlow:
			time.Sleep(fb.delay)
			fallthrough
		default:
			bits := bitvec.New(len(llrs))
			for j, v := range llrs {
				if int8(v) < 0 {
					bits.Set(j)
				}
			}
			wbuf, _ = serve.WriteResponse(bw, serve.StatusOK, ldpc.Result{Converged: true, Iterations: 1, Bits: bits}, wbuf)
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// attempts returns how many times this backend received the frame whose
// LLR bytes are key.
func (fb *fakeBackend) attempts(key string) int64 {
	if v, ok := fb.seen.Load(key); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// closeConns kills the live connections but leaves the listener up —
// a connection loss, not an instance death.
func (fb *fakeBackend) closeConns() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for c := range fb.conns {
		c.Close()
	}
}

// kill is instance death: the listener closes first (dials start
// failing), then every live connection. Idempotent.
func (fb *fakeBackend) kill() {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return
	}
	fb.closed = true
	l := fb.l
	fb.mu.Unlock()
	l.Close()
	fb.closeConns()
}

// restart brings a killed backend back on its old address, retrying
// briefly while the old listener's port frees, as a restarted process
// would.
func (fb *fakeBackend) restart(t testing.TB) {
	t.Helper()
	addr := fb.addr()
	l, err := net.Listen("tcp", addr)
	for i := 0; err != nil && i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		l, err = net.Listen("tcp", addr)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	fb.mu.Lock()
	fb.l, fb.closed = l, false
	fb.mu.Unlock()
	go fb.accept(l)
}

func backendOf(name string, fb *fakeBackend, p Probe) BackendConfig {
	return BackendConfig{Name: name, Addr: fb.addr(), Probe: p}
}

// testRouter builds a router with deterministic test defaults: hedging
// off and the health poller effectively quiesced unless the test
// configures them.
func testRouter(t testing.TB, cfg Config, backs ...BackendConfig) *Router {
	t.Helper()
	cfg.Backends = backs
	if cfg.Codebook == nil {
		cfg.Codebook = testCodebook{}
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Minute
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// v1Frame builds a default-code request payload whose LLR bytes are
// unique to idx (so the seen-ledger can attribute attempts) with a
// mixed sign pattern.
func v1Frame(idx int) []byte {
	p := make([]byte, 32)
	p[0] = byte(idx)
	p[1] = byte(idx >> 8)
	for j := 2; j < len(p); j++ {
		p[j] = byte(j*37 + idx*11)
	}
	return p
}

// v2Frame builds a tagged request payload for the given code.
func v2Frame(id byte, idx int) []byte {
	n, ok := testCodebook{}.FrameLen(id)
	if !ok {
		n = 8
	}
	p := make([]byte, 2+n)
	p[0] = serve.ProtoV2Magic
	p[1] = id
	p[2] = byte(idx)
	p[3] = byte(idx >> 8)
	for j := 4; j < len(p); j++ {
		p[j] = byte(j*53 + idx*7)
	}
	return p
}

// llrsOf returns the LLR portion of a request payload — the
// seen-ledger key.
func llrsOf(payload []byte) string {
	if len(payload) == 32 {
		return string(payload)
	}
	return string(payload[2:])
}

// checkEcho verifies a raw response is StatusOK with hard decisions
// matching the request's LLR signs — proof the answer belongs to this
// frame and survived routing unmangled.
func checkEcho(t *testing.T, raw, payload []byte) {
	t.Helper()
	llrs := []byte(llrsOf(payload))
	if len(raw) < 4 {
		t.Fatalf("%d-byte response", len(raw))
	}
	if raw[0] != serve.StatusOK {
		t.Fatalf("status %d, want OK", raw[0])
	}
	want := make([]byte, (len(llrs)+7)/8)
	for j, v := range llrs {
		if int8(v) < 0 {
			want[j>>3] |= 1 << uint(j&7)
		}
	}
	if got := raw[4:]; string(got) != string(want) {
		t.Fatalf("hard decisions %x, want %x", got, want)
	}
}

func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func backendSnap(s Snapshot, name string) BackendSnapshot {
	for _, b := range s.Backends {
		if b.Name == name {
			return b
		}
	}
	return BackendSnapshot{}
}

// TestSubmitRoutesAcrossBackends drives a mixed v1/v2 load through two
// healthy backends: every frame must come back as its own echo, and the
// consistent hash must spread the load over both instances.
func TestSubmitRoutesAcrossBackends(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	r := testRouter(t, Config{}, backendOf("a", a, nil), backendOf("b", b, nil))

	const n = 96
	payloads := make([][]byte, n)
	for i := range payloads {
		switch i % 3 {
		case 0:
			payloads[i] = v1Frame(i)
		case 1:
			payloads[i] = v2Frame(2, i)
		default:
			payloads[i] = v2Frame(7, i)
		}
	}
	resps := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := byte(0)
			if payloads[i][0] == serve.ProtoV2Magic {
				id = payloads[i][1]
			}
			resps[i], errs[i] = r.Submit(id, payloads[i])
		}(i)
	}
	wg.Wait()
	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		checkEcho(t, resps[i], payloads[i])
	}
	if af, bf := a.frames.Load(), b.frames.Load(); af == 0 || bf == 0 {
		t.Errorf("load not spread: a=%d b=%d", af, bf)
	}
	s := r.Metrics().Snapshot()
	if s.FramesCompleted != n {
		t.Errorf("FramesCompleted = %d, want %d", s.FramesCompleted, n)
	}
	if s.FramesLost != 0 || s.Requeues != 0 {
		t.Errorf("lost=%d requeues=%d on a healthy fleet", s.FramesLost, s.Requeues)
	}
	// Every answered frame is timed: quantiles of n round trips.
	if l := s.Latency; l.LatencyP50Micros <= 0 || l.LatencyP50Micros > l.LatencyP90Micros || l.LatencyP90Micros > l.LatencyP99Micros {
		t.Errorf("latency quantiles %+v after %d answered frames", l, n)
	}
	assertBalanced(t, s)
}

// TestServeConnInOrder pipelines a mixed stream — valid frames, a
// malformed frame, an unknown code tag — through the client front end
// and requires responses in request order with in-band rejections.
func TestServeConnInOrder(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	r := testRouter(t, Config{}, backendOf("a", a, nil), backendOf("b", b, nil))

	cs, ss := net.Pipe()
	defer cs.Close()
	sdone := make(chan struct{})
	go func() {
		r.ServeConn(ss)
		close(sdone)
	}()

	type req struct {
		payload []byte
		status  byte
	}
	var reqs []req
	for i := 0; i < 20; i++ {
		reqs = append(reqs, req{v1Frame(1000 + i), serve.StatusOK})
		reqs = append(reqs, req{v2Frame(2, 2000+i), serve.StatusOK})
	}
	// A framed-but-malformed payload and an unserved tag, mid-stream.
	reqs = append(reqs[:7], append([]req{
		{[]byte{1, 2, 3}, serve.StatusBadFrame},
		{v2Frame(9, 1), serve.StatusUnknownCode},
	}, reqs[7:]...)...)

	go func() {
		for _, rq := range reqs {
			if err := serve.WriteRaw(cs, rq.payload); err != nil {
				return
			}
		}
	}()

	br := bufio.NewReader(cs)
	var buf []byte
	for i, rq := range reqs {
		var err error
		buf, err = serve.ReadRawResponse(br, buf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if len(buf) < 4 || buf[0] != rq.status {
			t.Fatalf("response %d: status %d, want %d", i, buf[0], rq.status)
		}
		if rq.status == serve.StatusOK {
			checkEcho(t, buf, rq.payload)
		}
		if rq.status == serve.StatusUnknownCode {
			if len(buf) < 8 || buf[4] != 3 || buf[5] != 0 || buf[6] != 2 || buf[7] != 7 {
				t.Fatalf("unknown-code advertisement %x", buf[4:])
			}
		}
	}
	cs.Close()
	<-sdone
}

// TestBackendLossRequeueOnce is the exactly-once contract under
// instance death: a blackhole backend is killed while holding claimed
// frames; every frame must still be answered exactly once (requeued to
// the survivor at most once, never duplicated), and new frames must
// route around the corpse.
func TestBackendLossRequeueOnce(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.mode.Store(modeBlackhole)
	r := testRouter(t, Config{
		ConnsPerBackend: 1,
		PipelineDepth:   32,
		MaxInflight:     64,
		RetryBurst:      64,
	}, backendOf("a", a, nil), backendOf("b", b, nil))

	const n = 24
	payloads := make([][]byte, n)
	resps := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		payloads[i] = v1Frame(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = r.Submit(0, payloads[i])
		}(i)
	}
	// Let the router claim frames on the blackhole, then kill it.
	waitFor(t, 2*time.Second, func() bool { return a.frames.Load() > 0 },
		"blackhole backend to claim frames")
	time.Sleep(100 * time.Millisecond)
	a.kill()
	wg.Wait()

	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		checkEcho(t, resps[i], payloads[i])
		key := llrsOf(payloads[i])
		aa, ba := a.attempts(key), b.attempts(key)
		if ba != 1 {
			t.Errorf("frame %d: %d attempts on survivor, want exactly 1 (duplicate or lost)", i, ba)
		}
		if aa > 1 {
			t.Errorf("frame %d: %d attempts on killed backend, want <= 1", i, aa)
		}
	}
	s := r.Metrics().Snapshot()
	if s.FramesLost != 0 {
		t.Errorf("FramesLost = %d, want 0", s.FramesLost)
	}
	if s.Requeues > n {
		t.Errorf("Requeues = %d beyond one per frame (%d)", s.Requeues, n)
	}
	// The requeues can finish before the pool's redial fails and marks
	// the backend down, so wait for that rather than reading it once.
	waitFor(t, 2*time.Second, func() bool {
		return backendSnap(r.Metrics().Snapshot(), "a").State == "down"
	}, "the killed backend to be marked down")

	// New frames must route around the corpse without touching it.
	before := a.frames.Load()
	for i := n; i < n+8; i++ {
		p := v1Frame(i)
		raw, err := r.Submit(0, p)
		if err != nil {
			t.Fatalf("post-kill frame %d: %v", i, err)
		}
		checkEcho(t, raw, p)
	}
	if after := a.frames.Load(); after != before {
		t.Errorf("dead backend received %d new frames", after-before)
	}
}

// TestBackendRestartRecovers is instance death and return under load:
// 8 submitters push 600 mixed-code frames through four backends, one
// dies abruptly at a quarter of the frames and comes back on its
// address at half. Every frame must be answered with its own echo
// before the request timeout, in at most one attempt beyond the first,
// and once the dial probe re-admits the restarted backend the ring must
// be whole again and route it new frames.
func TestBackendRestartRecovers(t *testing.T) {
	const timeout = 2 * time.Second
	backs := make([]*fakeBackend, 4)
	cfgs := make([]BackendConfig, len(backs))
	for i := range backs {
		backs[i] = newFakeBackend(t)
		cfgs[i] = backendOf(string(rune('a'+i)), backs[i], nil)
	}
	r := testRouter(t, Config{
		PollInterval:   20 * time.Millisecond,
		ReadmitAfter:   2,
		RetryBurst:     64,
		RequestTimeout: timeout,
	}, cfgs...)
	ringPoints := r.Metrics().Snapshot().RingPoints

	const submitters, n, extra = 8, 600, 64
	payloads := make([][]byte, n+extra)
	for i := range payloads {
		switch i % 3 {
		case 0:
			payloads[i] = v1Frame(i)
		case 1:
			payloads[i] = v2Frame(2, i)
		default:
			payloads[i] = v2Frame(7, i)
		}
	}
	resps := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	took := make([]time.Duration, len(payloads))
	submit := func(i int) {
		id := byte(0)
		if payloads[i][0] == serve.ProtoV2Magic {
			id = payloads[i][1]
		}
		t0 := time.Now()
		resps[i], errs[i] = r.Submit(id, payloads[i])
		took[i] = time.Since(t0)
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				submit(i)
				done.Add(1)
			}
		}()
	}
	victim := backs[0]
	waitFor(t, 10*time.Second, func() bool { return done.Load() >= n/4 }, "a quarter of the frames")
	victim.kill()
	waitFor(t, 10*time.Second, func() bool {
		return done.Load() >= n/2 && backendSnap(r.Metrics().Snapshot(), "a").State == "down"
	}, "half of the frames, with the killed backend down")
	victim.restart(t)
	wg.Wait()

	waitFor(t, 5*time.Second, func() bool {
		s := r.Metrics().Snapshot()
		return s.ActiveBackends == len(backs) && s.RingPoints == ringPoints
	}, "the restarted backend to rejoin the ring")
	before := victim.frames.Load()
	for i := n; i < n+extra; i++ {
		submit(i)
	}
	if victim.frames.Load() == before {
		t.Error("restarted backend received none of the frames after its re-admission")
	}

	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		if took[i] >= timeout {
			t.Errorf("frame %d answered after %v, at or beyond the %v request timeout", i, took[i], timeout)
		}
		checkEcho(t, resps[i], payloads[i])
		var attempts int64
		for _, b := range backs {
			attempts += b.attempts(llrsOf(payloads[i]))
		}
		if attempts > 2 {
			t.Errorf("frame %d made %d attempts, want <= 2", i, attempts)
		}
	}
	s := r.Metrics().Snapshot()
	if s.Requeues > int64(len(payloads)) {
		t.Errorf("Requeues = %d beyond one per frame (%d)", s.Requeues, len(payloads))
	}
	assertBalanced(t, s)
}

// TestShedReroutes verifies a shedding backend's frames reroute once to
// a healthy instance instead of bouncing the overload to the client.
func TestShedReroutes(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.mode.Store(modeShed)
	r := testRouter(t, Config{RetryBurst: 64},
		backendOf("a", a, nil), backendOf("b", b, nil))

	const n = 32
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	resps := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		payloads[i] = v1Frame(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = r.Submit(0, payloads[i])
		}(i)
	}
	wg.Wait()
	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		checkEcho(t, resps[i], payloads[i])
		if n := a.attempts(llrsOf(payloads[i])) + b.attempts(llrsOf(payloads[i])); n > 2 {
			t.Errorf("frame %d tried %d times, want <= 2", i, n)
		}
	}
	s := r.Metrics().Snapshot()
	if s.Requeues == 0 {
		t.Error("no requeues despite a shedding backend")
	}
	if snap := backendSnap(s, "a"); snap.Sheds == 0 {
		t.Error("shedding backend recorded no sheds")
	}
}

// TestDrainAndReadmit walks a backend through the health lifecycle via
// its probe: unhealthy drains it (no new frames, ring shrinks), a
// healthy streak re-admits it, and a degraded verdict halves its ring
// weight.
func TestDrainAndReadmit(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	var aHealthy, aDegraded atomic.Bool
	aHealthy.Store(true)
	probeA := SnapshotProbe(func() serve.HealthSnapshot {
		return serve.HealthSnapshot{Healthy: aHealthy.Load(), Counts: serve.Counts{Degraded: aDegraded.Load()}}
	})
	r := testRouter(t, Config{
		PollInterval: 10 * time.Millisecond,
		ReadmitAfter: 2,
		VirtualNodes: 64,
	}, backendOf("a", a, probeA), backendOf("b", b, nil))

	submitOK := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			p := v1Frame(i)
			raw, err := r.Submit(0, p)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			checkEcho(t, raw, p)
		}
	}
	submitOK(0, 16)

	// Unhealthy probe → drain: out of the ring, no new frames.
	aHealthy.Store(false)
	waitFor(t, 2*time.Second, func() bool {
		s := r.Metrics().Snapshot()
		return backendSnap(s, "a").State == "draining" && s.RingPoints == 64
	}, "backend a to drain")
	before := a.frames.Load()
	submitOK(16, 32)
	if got := a.frames.Load(); got != before {
		t.Errorf("draining backend received %d new frames", got-before)
	}

	// Healthy-but-degraded streak → re-admitted at half weight.
	aDegraded.Store(true)
	aHealthy.Store(true)
	waitFor(t, 2*time.Second, func() bool {
		s := r.Metrics().Snapshot()
		return backendSnap(s, "a").State == "active" && s.RingPoints == 96
	}, "backend a to re-admit at half weight")

	// Degradation clears → full weight, traffic returns.
	aDegraded.Store(false)
	waitFor(t, 2*time.Second, func() bool {
		return r.Metrics().Snapshot().RingPoints == 128
	}, "backend a to regain full weight")
	submitOK(32, 64)
	if got := a.frames.Load(); got == before {
		t.Error("re-admitted backend received no traffic")
	}
	s := r.Metrics().Snapshot()
	snap := backendSnap(s, "a")
	if snap.Drains == 0 || snap.Readmits == 0 {
		t.Errorf("drains=%d readmits=%d, want both > 0", snap.Drains, snap.Readmits)
	}
}

// TestHedgeRacesStraggler pins a slow backend against a fast one: any
// frame stuck on the straggler past HedgeAfter must be hedged to the
// fast instance and complete early, with the straggler's late answer
// discarded — never delivered twice.
func TestHedgeRacesStraggler(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.mode.Store(modeSlow)
	a.delay = 400 * time.Millisecond
	r := testRouter(t, Config{
		ConnsPerBackend: 2,
		PipelineDepth:   8,
		HedgeAfter:      25 * time.Millisecond,
		RetryBurst:      64,
		RetryRatio:      0.5,
	}, backendOf("a", a, nil), backendOf("b", b, nil))

	const n = 24
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	resps := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		payloads[i] = v1Frame(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = r.Submit(0, payloads[i])
		}(i)
	}
	wg.Wait()
	// Let the straggler's backlog finish fast so Close doesn't wait it
	// out at 400ms per frame.
	a.mode.Store(modeEcho)

	for i := range payloads {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		checkEcho(t, resps[i], payloads[i])
	}
	s := r.Metrics().Snapshot()
	if s.Hedges == 0 {
		t.Error("no hedges despite a 400ms straggler and a 25ms hedge trigger")
	}
	if s.FramesLost != 0 {
		t.Errorf("FramesLost = %d, want 0", s.FramesLost)
	}
}

// TestOverloadSheds saturates a tiny router over a blackhole backend:
// beyond MaxInflight the router must shed upstream immediately, and
// every admitted frame must resolve by its deadline — nothing blocks
// forever, nothing panics. Frames shed at the cap still count as frames
// in, so the counters balance whether the cap or the backend queue
// sheds.
func TestOverloadSheds(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		pipeline, maxInflight int
		// capOnly: the backend queue holds every admitted frame, so
		// the cap alone sheds and every admitted frame times out.
		capOnly bool
	}{
		{"queue", 2, 4, false},
		{"cap", 8, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeBackend(t)
			a.mode.Store(modeBlackhole)
			r := testRouter(t, Config{
				ConnsPerBackend: 1,
				PipelineDepth:   tc.pipeline,
				MaxInflight:     tc.maxInflight,
				RequestTimeout:  400 * time.Millisecond,
			}, backendOf("a", a, nil))

			const n = 8
			errs := make([]error, n)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = r.Submit(0, v1Frame(i))
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)
			var overloaded, deadline int
			for i, err := range errs {
				switch {
				case errors.Is(err, ErrOverloaded):
					overloaded++
				case errors.Is(err, ErrDeadline):
					deadline++
				default:
					t.Errorf("frame %d: %v, want overloaded or deadline", i, err)
				}
			}
			if overloaded < n-tc.maxInflight {
				t.Errorf("%d frames shed, want >= %d beyond MaxInflight", overloaded, n-tc.maxInflight)
			}
			if overloaded+deadline != n {
				t.Errorf("overloaded=%d deadline=%d, want %d total", overloaded, deadline, n)
			}
			if elapsed > 2*time.Second {
				t.Errorf("saturated submits took %v, want prompt shed/deadline", elapsed)
			}
			s := r.Metrics().Snapshot()
			if s.ShedUpstream == 0 {
				t.Error("ShedUpstream = 0")
			}
			if tc.capOnly && (s.ShedUpstream != int64(n-tc.maxInflight) || s.FramesDeadline != int64(tc.maxInflight)) {
				t.Errorf("shed %d deadline %d, want %d and %d", s.ShedUpstream, s.FramesDeadline, n-tc.maxInflight, tc.maxInflight)
			}
			if s.FramesIn != n {
				t.Errorf("FramesIn = %d, want all %d submissions", s.FramesIn, n)
			}
			assertBalanced(t, s)
		})
	}
}

// assertBalanced checks, with the router idle, that every frame in has
// exactly one outcome.
func assertBalanced(t *testing.T, s Snapshot) {
	t.Helper()
	if out := s.FramesCompleted + s.FramesLost + s.FramesDeadline + s.ShedUpstream; out != s.FramesIn {
		t.Errorf("frames in %d != completed %d + lost %d + deadline %d + shed upstream %d",
			s.FramesIn, s.FramesCompleted, s.FramesLost, s.FramesDeadline, s.ShedUpstream)
	}
}

// TestRetryBudgetBoundsLoss kills the whole fleet mid-flight with a
// near-empty retry budget: every frame must be reported lost (never
// silently dropped, never retried unboundedly), with at most the
// budgeted number of requeues spent.
func TestRetryBudgetBoundsLoss(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.mode.Store(modeBlackhole)
	b.mode.Store(modeBlackhole)
	r := testRouter(t, Config{
		ConnsPerBackend: 1,
		PipelineDepth:   8,
		MaxInflight:     32,
		RetryBurst:      1,
		RetryRatio:      0.001,
	}, backendOf("a", a, nil), backendOf("b", b, nil))

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Submit(0, v1Frame(i))
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool { return a.frames.Load()+b.frames.Load() > 0 },
		"fleet to claim frames")
	time.Sleep(100 * time.Millisecond)
	a.kill()
	b.kill()
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, ErrFrameLost) && !errors.Is(err, ErrDeadline) {
			t.Errorf("frame %d: %v, want lost or deadline", i, err)
		}
	}
	s := r.Metrics().Snapshot()
	if s.FramesLost+s.FramesDeadline != n {
		t.Errorf("lost=%d deadline=%d, want %d total", s.FramesLost, s.FramesDeadline, n)
	}
	if s.Requeues > 1 {
		t.Errorf("Requeues = %d with a burst-1 budget", s.Requeues)
	}
	if s.BudgetDenied == 0 {
		t.Error("BudgetDenied = 0, want denials once the budget drained")
	}
	assertBalanced(t, s)
}

// TestGoroutineLeak runs the full lifecycle — routed traffic, a client
// connection through the front end, backend death, Close — and requires
// the goroutine count to return to baseline.
func TestGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	a, b := newFakeBackend(t), newFakeBackend(t)
	r, err := New(Config{
		Backends:     []BackendConfig{backendOf("a", a, nil), backendOf("b", b, nil)},
		Codebook:     testCodebook{},
		HedgeAfter:   -1,
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	for i := 0; i < 16; i++ {
		p := v1Frame(i)
		raw, serr := r.Submit(0, p)
		if serr != nil {
			t.Fatalf("frame %d: %v", i, serr)
		}
		checkEcho(t, raw, p)
	}

	cs, ss := net.Pipe()
	sdone := make(chan struct{})
	go func() {
		r.ServeConn(ss)
		close(sdone)
	}()
	br := bufio.NewReader(cs)
	var buf []byte
	for i := 0; i < 4; i++ {
		p := v2Frame(2, 100+i)
		if err := serve.WriteRaw(cs, p); err != nil {
			t.Fatalf("client write: %v", err)
		}
		buf, err = serve.ReadRawResponse(br, buf)
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
		checkEcho(t, buf, p)
	}
	cs.Close()
	<-sdone

	a.kill()
	b.kill()
	r.Close()

	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}, fmt.Sprintf("goroutines to return to baseline %d (now %d)", before, runtime.NumGoroutine()))
}

// TestConnLossReconnects covers the milder failure: connections die but
// the instance survives. Claimed frames requeue, the pool redials, and
// the backend keeps serving without a drain.
func TestConnLossReconnects(t *testing.T) {
	a := newFakeBackend(t)
	r := testRouter(t, Config{
		ConnsPerBackend: 1,
		PipelineDepth:   4,
		RetryBurst:      64,
	}, backendOf("a", a, nil))

	p := v1Frame(0)
	raw, err := r.Submit(0, p)
	if err != nil {
		t.Fatalf("pre-loss frame: %v", err)
	}
	checkEcho(t, raw, p)

	a.closeConns()

	// The pool must redial and keep serving; the sole backend means a
	// requeue has nowhere to go, so frames racing the loss may be lost,
	// but steady-state frames after the redial must all complete.
	waitFor(t, 3*time.Second, func() bool {
		q := v1Frame(1)
		got, serr := r.Submit(0, q)
		return serr == nil && len(got) >= 4 && got[0] == serve.StatusOK
	}, "pool to redial after connection loss")

	for i := 2; i < 10; i++ {
		q := v1Frame(i)
		got, serr := r.Submit(0, q)
		if serr != nil {
			t.Fatalf("post-redial frame %d: %v", i, serr)
		}
		checkEcho(t, got, q)
	}
}

// TestRingBalance guards the hash mixing: backends named like real
// deployments (same host, nearby ports) must split the keyspace
// near-evenly. Raw FNV-1a without a finalizer measured 89/11 here.
func TestRingBalance(t *testing.T) {
	r := &Router{cfg: Config{VirtualNodes: 64}}
	for i := 0; i < 4; i++ {
		r.backends = append(r.backends, &backend{
			cfg: BackendConfig{Name: fmt.Sprintf("127.0.0.1:%d", 7070+100*i)},
		})
	}
	r.rebuildRing()
	rg := r.ring.Load()
	counts := make(map[*backend]int)
	const n = 40000
	for seq := uint64(0); seq < n; seq++ {
		counts[rg.pick(hashKey(byte(seq%3), seq), nil)]++
	}
	for _, b := range r.backends {
		if share := float64(counts[b]) / n; share < 0.10 || share > 0.45 {
			t.Errorf("backend %s owns %.1f%% of the keyspace, want a fair share", b.cfg.Name, share*100)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty config")
	}
	if _, err := New(Config{Backends: []BackendConfig{{Addr: "x"}}}); err == nil {
		t.Error("New accepted a nil codebook")
	}
	if _, err := New(Config{
		Backends: []BackendConfig{{}},
		Codebook: testCodebook{},
	}); err == nil {
		t.Error("New accepted a backend without an address")
	}
	if _, err := New(Config{
		Backends:   []BackendConfig{{Addr: "x"}},
		Codebook:   testCodebook{},
		RetryRatio: 2,
	}); err == nil {
		t.Error("New accepted retry ratio 2")
	}
}
