package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"

	"ccsdsldpc/ldpcbench/harness"
)

const (
	fleetEbN0     = 4.2
	fleetBackends = 2
	fleetClients  = 2  // client connections to the router
	fleetWindow   = 16 // closed-loop frames in flight per client connection
	fleetPool     = 32 // distinct frames per code
	fleetWarmup   = time.Second
	// fleetDrain is how long after its phase a frame may still be
	// answered; one not answered by then is a failure.
	fleetDrain = 5 * time.Second
	// fleetRate is phase B's frozen offered load in frames per second:
	// about 15% of what phase A answered on seed 1 when the benchmark
	// was defined, and about a third of it while the host runs at half
	// speed (README.md). Low enough that queueing stays small when the
	// host slows, so the latencies measure the stack, not a backlog; high
	// enough that a 28 s run fills two latency windows.
	fleetRate = 120.0
)

// fleetFrame is one frame of the mixed traffic in every form a level
// of the stack takes it in.
type fleetFrame struct {
	code  int            // index into fleetWork.codes
	msg   []byte         // the length-prefixed request as sent
	want  []byte         // the transmitted codeword, packed as replies carry it
	cw    *bitvec.Vector // the transmitted codeword
	wire  []int16        // transmitted LLRs, as the mux widens them
	inner []int16        // decoder input, as the mux expands it
}

type fleetCode struct {
	id      registry.ID
	built   *registry.Built
	payload float64 // information bits per frame
}

// fleetWork is the fleet-mixed workload: the five-code catalog round
// robin — C2 as untagged v1 frames, the others v2-tagged — pipelined by
// two client connections into a fleet.Router fronting two in-process
// registry.Mux backends on loopback, everything at default config.
type fleetWork struct {
	codes  []fleetCode
	frames []fleetFrame // traffic frame i is frames[i%len(frames)]
	stack  *fleetStack
	// tr is the tracer while a traced level runs, nil otherwise.
	tr *harness.Tracer
}

// fleetStats counts one phase's answers.
type fleetStats struct {
	sent, ok, unconverged, failed int64
	wrong, malformed, extra       int64
	bits                          float64
	first, last                   time.Time // first send, last answer
}

func (s *fleetStats) add(o fleetStats) {
	s.sent += o.sent
	s.ok += o.ok
	s.unconverged += o.unconverged
	s.failed += o.failed
	s.wrong += o.wrong
	s.malformed += o.malformed
	s.extra += o.extra
	s.bits += o.bits
	if s.first.IsZero() || !o.first.IsZero() && o.first.Before(s.first) {
		s.first = o.first
	}
	if o.last.After(s.last) {
		s.last = o.last
	}
}

func (s *fleetStats) answered() int64 { return s.ok + s.unconverged + s.wrong }

func runFleet(rc runConfig) (*harness.Result, error) {
	w := &fleetWork{}
	reg := registry.Default()
	for _, e := range reg.Entries() {
		b, err := e.Build()
		if err != nil {
			return nil, err
		}
		w.codes = append(w.codes, fleetCode{id: e.ID, built: b, payload: float64(b.PayloadBits())})
	}
	if err := w.genFrames(rc.seed); err != nil {
		return nil, err
	}
	modelNs, err := modelNsPerFrameIter()
	if err != nil {
		return nil, err
	}
	closed, open := phases(rc.seconds)
	lat := harness.NewLatencies(int(fleetRate*open.Seconds()*1.2) + 1024)
	heap0 := harness.LiveHeap()

	stack, setupS, err := timeSetup(setupReps, w.startFleet, (*fleetStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	w.stack = stack
	warm, _, err := w.clientPhase(stack.clients, load{window: fleetWindow, dur: fleetWarmup})
	if err != nil {
		return nil, err
	}

	r := &harness.Result{}
	if rc.tracer == nil {
		u0 := harness.ReadUsage()
		meter := harness.NewMeter(u0.At, time.Second, closed)
		speed := harness.NewSpeed(u0.At, time.Second, closed)
		stop := speed.Run(maxProcs, speedInterval)
		st, _, err := w.clientPhase(stack.clients, load{window: fleetWindow, dur: closed, meter: meter})
		stop()
		if err != nil {
			return nil, err
		}
		win := harness.ReadUsage().Since(u0)
		r.Add("info_mbps", meter.MedianRate(speed)/1e6, "Mb/s", st.answered())
		addSpeedNotes(r, meter, speed)
		ost, late, err := w.clientPhase(stack.clients, load{rate: fleetRate, dur: open, lat: lat})
		if err != nil {
			return nil, err
		}
		addLatency(r, lat)
		r.Add("setup_s", setupS, "s", setupReps)
		r.Add("heap_live_mb", mb(harness.LiveHeap(), heap0), "MB", 0)
		// The harness's own buffers were in the first reading; keep them
		// in this one.
		runtime.KeepAlive(lat)
		r.Note("frames_per_s", float64(st.answered())/st.last.Sub(st.first).Seconds(), "1/s", st.answered())
		r.Note("allocs_per_frame", float64(win.Mallocs)/float64(st.answered()), "count", st.answered())
		_, lateP99 := late.Tail(0.99)
		r.Note("loadgen.late_p99_ms", lateP99*1e3, "ms", int64(late.Len()))
		st.add(ost)
		st.add(warm)
		w.finish(r, st)
		return r, nil
	}

	// Traced run: six levels interleaved — the closed loop untraced, the
	// same loop traced (L4), then the same frames at the same in-flight
	// count pushed in one level lower at a time: Router.Submit (L3), the
	// muxes over loopback (L2), the serve pools (L1), and bare decoders of
	// serve's geometry (L0). Each level's process CPU per frame, less the
	// level below's, is that layer's own cost.
	muxClients, err := w.dialMuxes()
	if err != nil {
		return nil, err
	}
	defer closeClients(muxClients)
	decs, err := w.newDecoders()
	if err != nil {
		return nil, err
	}
	defer closeDecoders(decs)
	var ust, tst, l3st, l2st, l1st fleetStats
	var uwin, twin, l3, l2, l1, l0 harness.Window
	var dst decodeStats
	var sc serveCounts
	var fc fleetCounts
	clientLevel := func(d time.Duration, st *fleetStats, win *harness.Window) error {
		u0 := harness.ReadUsage()
		s, _, err := w.clientPhase(stack.clients, load{window: fleetWindow, dur: d})
		win.Add(harness.ReadUsage().Since(u0))
		st.add(s)
		return err
	}
	err = harness.Interleave(rc.seconds, traceSlice,
		func(d time.Duration) error { return clientLevel(d, &ust, &uwin) },
		func(d time.Duration) error {
			serve0, fleet0 := stack.serveSnapshots(), stack.router.Metrics().Snapshot()
			w.tr = rc.tracer
			err := clientLevel(d, &tst, &twin)
			w.tr = nil
			sc.add(serve0, stack.serveSnapshots())
			fc.add(fleet0, stack.router.Metrics().Snapshot())
			return err
		},
		func(d time.Duration) error {
			w.tr = rc.tracer
			st, win, err := w.submitLevel(d)
			w.tr = nil
			l3st.add(st)
			l3.Add(win)
			return err
		},
		func(d time.Duration) error {
			st, win, err := w.muxLevel(muxClients, d)
			l2st.add(st)
			l2.Add(win)
			return err
		},
		func(d time.Duration) error {
			st, win, err := w.poolLevel(d)
			l1st.add(st)
			l1.Add(win)
			return err
		},
		func(d time.Duration) error {
			st, win, err := w.decoderLevel(decs, d)
			dst.merge(st)
			l0.Add(win)
			return err
		})
	if err != nil {
		return nil, err
	}
	top := twin.CPUPerFrame(tst.answered())
	l := layerReport{
		cpuPerFrame:   top,
		allocPerFrame: float64(uwin.Mallocs) / float64(ust.answered()),
		batch:         dst,
		batchAllocs:   float64(l0.Mallocs) / float64(dst.calls),
		modelNs:       modelNs,
		overhead:      1 - (tst.bits/twin.Wall.Seconds())/(ust.bits/uwin.Wall.Seconds()),
		reconcileErr:  relErr(top, uwin.CPUPerFrame(ust.answered())),
	}
	shares([]float64{
		l0.CPUPerFrame(dst.frames),
		l1.CPUPerFrame(l1st.answered()),
		l2.CPUPerFrame(l2st.answered()),
		l3.CPUPerFrame(l3st.answered()),
		top,
	}, &l.batchShare, &l.serveShare, &l.registryShare, &l.fleetShare, &l.frontShare)
	l.serveFill, l.serveFillFrac, l.serveShedFrac = sc.result()
	l.fleetRetryFrac, l.fleetShareMax = fc.result()
	all := ust
	for _, s := range []fleetStats{tst, l3st, l2st, l1st, warm} {
		all.add(s)
	}
	all.sent += dst.frames
	all.ok += dst.correct
	all.unconverged += dst.unconverged
	all.wrong += dst.wrong
	l.fer = float64(all.unconverged+all.wrong) / float64(all.answered())
	l.failedFrac = float64(all.failed) / float64(all.sent)
	l.add(r)
	w.finish(r, all)
	return r, nil
}

// finish sets the attempt counts and the correctness gate over every
// frame of the run, warm-up included: every frame sent is answered
// exactly once, and every converged answer is the transmitted codeword.
func (w *fleetWork) finish(r *harness.Result, st fleetStats) {
	r.Attempted = st.sent
	r.Failed = st.failed
	r.Note("fer", float64(st.unconverged+st.wrong)/float64(st.answered()), "fraction", st.answered())
	r.Note("failed_frac", float64(st.failed)/float64(st.sent), "fraction", st.sent)
	if st.wrong > 0 {
		r.Violate("%d converged answers differ from the transmitted codeword (undetected errors)", st.wrong)
	}
	if st.malformed > 0 {
		r.Violate("%d answers malformed or rejecting a valid frame", st.malformed)
	}
	if st.extra > 0 {
		r.Violate("%d connections carried answers to frames never sent", st.extra)
	}
	if got := st.answered() + st.failed + st.malformed; got != st.sent {
		r.Violate("%d frames sent, %d accounted for", st.sent, got)
	}
}

// genFrames draws fleetPool frames per code and interleaves them so
// consecutive traffic frames cycle through the codes.
func (w *fleetWork) genFrames(seed uint64) error {
	sets := make([]*frameSet, len(w.codes))
	for c, fc := range w.codes {
		fs, err := genFrames(fc.built, fc.id, fleetEbN0, fleetPool, seed)
		if err != nil {
			return err
		}
		sets[c] = fs
	}
	confident := fixed.DefaultHighSpeedParams().Format.Max()
	def := registry.Default().DefaultID()
	for i := 0; i < fleetPool; i++ {
		for c, fc := range w.codes {
			fs := sets[c]
			f := fleetFrame{code: c, cw: fs.cws[i], want: packed(fs.cws[i]), wire: fs.wire(i)}
			f.inner = make([]int16, fc.built.Code.N)
			if err := fc.built.ExpandQ(f.inner, f.wire, confident); err != nil {
				return err
			}
			var buf bytes.Buffer
			var err error
			if fc.id == def {
				_, err = serve.WriteRequest(&buf, f.wire, nil)
			} else {
				_, err = serve.WriteRequestTagged(&buf, byte(fc.id), f.wire, nil)
			}
			if err != nil {
				return err
			}
			f.msg = buf.Bytes()
			w.frames = append(w.frames, f)
		}
	}
	return nil
}

// check folds one raw reply to frame f into st.
func (w *fleetWork) check(raw []byte, f *fleetFrame, st *fleetStats) {
	if len(raw) < 4 {
		st.malformed++
		return
	}
	switch raw[0] {
	case serve.StatusOK:
	case serve.StatusOverloaded, serve.StatusDeadline, serve.StatusInternal, serve.StatusClosed:
		st.failed++
		return
	default:
		st.malformed++
		return
	}
	switch {
	case raw[1] == 0:
		st.unconverged++
	case bytes.Equal(raw[4:], f.want):
		st.ok++
		st.bits += w.codes[f.code].payload
	default:
		st.wrong++
	}
}

// fleetStack is the system under test: two mux backends on loopback,
// the router in front of them on its own listener, and the client
// connections to it.
type fleetStack struct {
	muxes   []*registry.Mux
	lis     []net.Listener
	serving sync.WaitGroup
	router  *fleet.Router
	front   net.Listener
	clients []*fleetClient
}

// startFleet builds the stack and dials the clients: the set-up timed
// as setup_s.
func (w *fleetWork) startFleet() (*fleetStack, error) {
	reg := registry.Default()
	ids := make([]registry.ID, len(w.codes))
	for i, c := range w.codes {
		ids[i] = c.id
	}
	s := &fleetStack{}
	var bcs []fleet.BackendConfig
	for b := 0; b < fleetBackends; b++ {
		mux, err := registry.NewMux(reg, ids, serve.Config{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.muxes = append(s.muxes, mux)
		if err := mux.Preload(); err != nil {
			s.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.lis = append(s.lis, l)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			_ = mux.ServeListener(l)
		}()
		bcs = append(bcs, fleet.BackendConfig{
			Name:  fmt.Sprintf("backend%d", b),
			Addr:  l.Addr().String(),
			Probe: fleet.SnapshotProbe(mux.HealthSnapshot),
		})
	}
	cb, err := registry.NewCodebook(reg, ids)
	if err != nil {
		s.close()
		return nil, err
	}
	if s.router, err = fleet.New(fleet.Config{Backends: bcs, Codebook: cb}); err != nil {
		s.close()
		return nil, err
	}
	if s.front, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = s.router.ServeListener(s.front)
	}()
	if s.clients, err = dialClients(s.front.Addr().String(), fleetClients); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close tears the stack down from the client end inward and waits for
// every connection it served to end.
func (s *fleetStack) close() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, l := range s.lis {
		l.Close()
	}
	s.serving.Wait()
	for _, m := range s.muxes {
		m.Close()
	}
}

// serveSnapshots returns every code pool's server snapshot, backend by
// backend.
func (s *fleetStack) serveSnapshots() []serve.Snapshot {
	var out []serve.Snapshot
	for _, m := range s.muxes {
		for _, ap := range m.Pools().Active() {
			out = append(out, ap.Server.Metrics().Snapshot())
		}
	}
	return out
}

// fleetCounts accumulates router snapshot differences over a level's
// slices.
type fleetCounts struct {
	in, retries int64
	backends    []int64 // answers per backend
}

func (c *fleetCounts) add(before, after fleet.Snapshot) {
	c.in += after.FramesIn - before.FramesIn
	c.retries += after.Requeues + after.Hedges - before.Requeues - before.Hedges
	if c.backends == nil {
		c.backends = make([]int64, len(after.Backends))
	}
	for i := range after.Backends {
		c.backends[i] += after.Backends[i].Frames - before.Backends[i].Frames
	}
}

// result returns the retried share of routed frames and the busiest
// backend's share of answers.
func (c *fleetCounts) result() (retryFrac, shareMax float64) {
	var total, top int64
	for _, n := range c.backends {
		total += n
		top = max(top, n)
	}
	return float64(c.retries) / float64(max(c.in, 1)), float64(top) / float64(max(total, 1))
}

// fleetClient is one client connection; its reader persists across
// phases so no buffered byte is lost between them.
type fleetClient struct {
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte
}

func dialClients(addr string, n int) ([]*fleetClient, error) {
	var out []*fleetClient
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range out {
				c.conn.Close()
			}
			return nil, err
		}
		out = append(out, &fleetClient{conn: nc, br: bufio.NewReaderSize(nc, 64<<10)})
	}
	return out, nil
}

// load is one client phase's traffic and what it records.
type load struct {
	window int     // closed loop: frames in flight per connection
	rate   float64 // > 0: open loop at this many frames/s over all connections
	dur    time.Duration
	lat    *harness.Latencies // open loop: latency from each frame's due time
	meter  *harness.Meter     // information bits answered, or nil
}

// clientPhase drives the connections for ld.dur — each with a writer
// and a reader goroutine — then waits for the answers still owed. In
// open loop the writers share one schedule of ld.rate frames/s;
// otherwise each keeps ld.window frames in flight. Connection c sends
// traffic frames c, c+n, c+2n, ... It returns the stats and, in open
// loop, the generators' lateness.
func (w *fleetWork) clientPhase(clients []*fleetClient, ld load) (fleetStats, *harness.Latencies, error) {
	n := len(clients)
	start := time.Now()
	end := start.Add(ld.dur)
	stats := make([]fleetStats, n)
	lats := make([]*harness.Latencies, n)
	loops := make([]*harness.OpenLoop, n)
	errs := make([]error, n)
	var meterMu sync.Mutex
	var wg sync.WaitGroup
	for c, cl := range clients {
		cl, c := cl, c
		frame := func(seq int) *fleetFrame { return &w.frames[(seq*n+c)%len(w.frames)] }
		send := func(seq int) error {
			_, err := cl.conn.Write(frame(seq).msg)
			return err
		}
		var gen *harness.Generator
		more := func() bool { return time.Now().Before(end) }
		if ld.rate > 0 {
			interval := time.Duration(float64(time.Second) / ld.rate)
			sends := int(ld.dur/(interval*time.Duration(n))) + 1
			loop := harness.NewOpenLoop(start.Add(time.Duration(c)*interval), interval*time.Duration(n), sends)
			gen = harness.NewOpenLoopGenerator(loop, sends, send)
			more = func() bool { return loop.Due(gen.Sent()).Before(end) }
			loops[c], lats[c] = loop, harness.NewLatencies(sends)
		} else {
			gen = harness.NewClosedLoop(ld.window, send)
		}
		stats[c].first = start
		_ = cl.conn.SetDeadline(end.Add(fleetDrain))
		wg.Add(2)
		go func() { // writer
			defer wg.Done()
			defer close(gen.Out)
			for more() {
				if err := gen.Step(); err != nil {
					errs[c] = err
					return
				}
			}
		}()
		go func() { // reader
			defer wg.Done()
			st := &stats[c]
			var rerr error
			for rec := range gen.Out {
				st.sent++
				if rerr == nil {
					cl.rbuf, rerr = serve.ReadRawResponse(cl.br, cl.rbuf)
				}
				now := time.Now()
				answered, bits := st.answered(), st.bits
				if rerr == nil {
					w.check(cl.rbuf, frame(rec.Seq), st)
					st.last = now
					w.tr.Record("client.request", -1, int64(rec.Seq*n+c), rec.Sent, now)
				} else {
					st.failed++
				}
				if ld.meter != nil && st.bits > bits {
					meterMu.Lock()
					ld.meter.Add(now, st.bits-bits)
					meterMu.Unlock()
				}
				if lats[c] != nil {
					if st.answered() > answered {
						lats[c].Add(now, now.Sub(rec.Due))
					} else {
						lats[c].AddFailure(now)
					}
				}
				gen.Done()
			}
			if rerr == nil && extraAnswer(cl) {
				st.extra++
			}
		}()
	}
	wg.Wait()
	var total fleetStats
	late := harness.NewLatencies(0)
	for c := range clients {
		if errs[c] != nil {
			return total, nil, errs[c]
		}
		total.add(stats[c])
		if lats[c] != nil {
			ld.lat.Append(lats[c])
			late.Append(loops[c].Late)
		}
	}
	return total, late, nil
}

// extraAnswer reports whether a connection with no frame in flight
// still carries an answer: a frame answered twice.
func extraAnswer(cl *fleetClient) bool {
	if cl.br.Buffered() > 0 {
		return true
	}
	_ = cl.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, err := cl.br.Peek(1)
	var ne net.Error
	return !(errors.As(err, &ne) && ne.Timeout())
}
