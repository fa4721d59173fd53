package main

import (
	"math"
	"runtime"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/station"

	"ccsdsldpc/ldpcbench/harness"
)

const (
	stationEbN0   = 5.0
	stationFrames = 256  // frames per pass
	stationPasses = 2    // distinct passes per seed, cycled
	stationChunk  = 8192 // samples per Ingest call
	// stationLinkRate is phase B's frozen link rate in samples per
	// second, about 390 frames/s: 30% of what phase A ingested on seed
	// 1 when the benchmark was defined (README.md). Frozen, it offers
	// every later commit the same load, with room left for the host's
	// speed swings.
	stationLinkRate = 3.2e6
	// stationCaptureGroups is how many decode groups the traced run
	// captures to replay one and two levels down.
	stationCaptureGroups = 64
)

// stationStats counts what one window of passes did.
type stationStats struct {
	passes, frames                          int64
	clean, bitExact, dirtyRecovered, missed int64
	corrupt, extra, miscorrected            int64
	decodeErrs, decodeCalls, decodeFrames   int64
	relockMax                               float64
}

func (s *stationStats) addPass(g *station.ScenarioResult) {
	s.passes++
	s.frames += int64(g.Frames)
	s.clean += int64(g.CleanFrames)
	s.bitExact += int64(g.BitExact)
	s.dirtyRecovered += int64(g.DirtyRecovered)
	s.missed += int64(g.Missed)
	s.corrupt += int64(g.Corrupt)
	s.extra += int64(g.ExtraCadus)
	s.miscorrected += int64(g.DirtyMiscorrected)
	s.decodeErrs += g.Metrics.DecodeErrors
	s.relockMax = math.Max(s.relockMax, g.RelockFramesMax)
}

// stationWork is the station-link workload: seeded QPSK passes pushed
// through station.New → Ingest → Flush → Grade, decoding through
// station.PoolDecode over one default serve.Server.
type stationWork struct {
	built  *registry.Built
	passes []*station.Stream
	srv    *serve.Server
	pool   station.DecodeFunc
	// tr is the tracer while the traced window runs, nil otherwise.
	tr *harness.Tracer

	st    stationStats
	meter *harness.Meter // information bits over time, or nil
	// decodeBusy is the seconds spent in the decode seam over the same
	// windows as meter, or nil.
	decodeBusy *harness.Meter

	top       int32 // the open Ingest/Flush span, parent of decode spans
	confirmed []int64
	cadus     []station.Cadu
	// The traced run captures decode groups — their frames and the
	// server's answers — to replay them at the levels below.
	capture bool
	groups  []capturedGroup
}

type capturedGroup struct {
	wire [][]int16
	res  []ldpc.Result
}

func runStation(rc runConfig) (*harness.Result, error) {
	e, _ := registry.Default().Get(registry.C2)
	built, err := e.Build()
	if err != nil {
		return nil, err
	}
	w := &stationWork{built: built, top: -1}
	for _, sp := range stationDraw(rc.seed) {
		p, err := station.BuildStream(built, station.StreamConfig{
			Frames:        stationFrames,
			EbN0dB:        stationEbN0,
			BitsPerSymbol: 2,
			Seed:          sp.seed,
			Scenario:      station.Scenario{Slips: []station.Slip{sp.slip}, Flips: []station.Flip{sp.flip}},
		})
		if err != nil {
			return nil, err
		}
		w.passes = append(w.passes, p)
	}
	modelNs, err := modelNsPerFrameIter()
	if err != nil {
		return nil, err
	}
	w.confirmed = make([]int64, 0, 2*stationFrames)
	w.cadus = make([]station.Cadu, 0, 2*stationFrames)
	passSamples := len(w.passes[0].Samples)
	closed, open := phases(rc.seconds)
	openPasses := max(1, int(math.Round(open.Seconds()*stationLinkRate/float64(passSamples))))
	lat := harness.NewLatencies(openPasses * stationFrames)
	heap0 := harness.LiveHeap()

	srv, setupS, err := timeSetup(setupReps, func() (*serve.Server, error) {
		srv, err := serve.New(serve.Config{Code: built.Code})
		if err != nil {
			return nil, err
		}
		if _, err := w.newStation(); err != nil {
			srv.Close()
			return nil, err
		}
		return srv, nil
	}, (*serve.Server).Close)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	w.srv, w.pool = srv, station.PoolDecode(built, srv, srv.Config().Params.Format)
	warm, _, err := w.closedLoop(0) // one warm-up pass
	if err != nil {
		return nil, err
	}

	res := &harness.Result{}
	if rc.tracer == nil {
		start := time.Now()
		w.meter = harness.NewMeter(start, time.Second, closed)
		w.decodeBusy = harness.NewMeter(start, time.Second, closed)
		speed := harness.NewSpeed(start, time.Second, closed)
		stop := speed.Run(maxProcs, speedInterval)
		st, win, err := w.closedLoop(closed)
		stop()
		if err != nil {
			return nil, err
		}
		// Decoding slows with the reference loop; sync, which takes turns
		// with it, barely does (README.md), so only the decode seam's
		// share of each window is scaled.
		res.Add("info_mbps", w.meter.MedianRatePart(speed, w.decodeBusy)/1e6, "Mb/s", st.frames)
		addSpeedNotes(res, w.meter, speed)
		res.Note("decode_share", w.decodeBusy.MedianRate(nil), "fraction", 0)
		w.meter, w.decodeBusy = nil, nil
		ost, late, err := w.openLoop(openPasses, lat)
		if err != nil {
			return nil, err
		}
		addLatency(res, lat)
		res.Add("setup_s", setupS, "s", setupReps)
		res.Add("heap_live_mb", mb(harness.LiveHeap(), heap0), "MB", 0)
		// The harness's own buffers were in the first reading; keep them
		// in this one.
		runtime.KeepAlive(lat)
		res.Note("frames_per_s", float64(st.frames)/win.Wall.Seconds(), "1/s", st.frames)
		res.Note("allocs_per_frame", float64(win.Mallocs)/float64(st.frames), "count", st.frames)
		_, lateP99 := late.Tail(0.99)
		res.Note("loadgen.late_p99_ms", lateP99*1e3, "ms", int64(late.Len()))
		st.add(ost)
		st.add(warm)
		w.finish(res, st)
		return res, nil
	}

	// Traced run: four levels interleaved — the station traced (L2),
	// the same loop untraced, and decode groups captured beforehand
	// replayed through the decode seam (L1) and through a bare decoder of
	// serve's geometry (L0).
	w.capture = true
	for len(w.groups) < stationCaptureGroups {
		st, _, err := w.closedLoop(0)
		if err != nil {
			return nil, err
		}
		warm.add(st)
	}
	w.capture = false
	var ust, tst stationStats
	var uwin, twin, l1win harness.Window
	var l1frames int64
	var sc serveCounts
	replay := &decoderReplay{}
	defer replay.close()
	err = harness.Interleave(rc.seconds, traceSlice,
		func(d time.Duration) error {
			before := srv.Metrics().Snapshot()
			w.tr = rc.tracer
			st, win, err := w.closedLoop(d)
			w.tr = nil
			tst.add(st)
			twin.Add(win)
			sc.add([]serve.Snapshot{before}, []serve.Snapshot{srv.Metrics().Snapshot()})
			return err
		},
		func(d time.Duration) error {
			st, win, err := w.closedLoop(d)
			ust.add(st)
			uwin.Add(win)
			return err
		},
		func(d time.Duration) error {
			n, win, err := w.replaySeam(d)
			l1frames += n
			l1win.Add(win)
			return err
		},
		func(d time.Duration) error { return replay.run(w, d) })
	if err != nil {
		return nil, err
	}
	l2 := twin.CPUPerFrame(tst.decodeFrames)
	totals := harness.Totals(rc.tracer.Spans())
	ingest := totals["station.Ingest"]
	flush := totals["station.Flush"]
	uMbps := float64(ust.bitExact+ust.dirtyRecovered) / uwin.Wall.Seconds()
	tMbps := float64(tst.bitExact+tst.dirtyRecovered) / twin.Wall.Seconds()
	l := layerReport{
		cpuPerFrame:      l2,
		allocPerFrame:    float64(uwin.Mallocs) / float64(ust.frames),
		batch:            replay.st,
		batchAllocs:      float64(replay.win.Mallocs) / float64(replay.st.calls),
		modelNs:          modelNs,
		stationSyncShare: float64(ingest.Self+flush.Self) / float64(ingest.Total+flush.Total),
		stationGroup:     float64(tst.decodeFrames) / float64(tst.decodeCalls),
		overhead:         1 - tMbps/uMbps,
		reconcileErr:     relErr(l2, uwin.CPUPerFrame(ust.decodeFrames)),
	}
	shares([]float64{replay.win.CPUPerFrame(replay.st.frames), l1win.CPUPerFrame(l1frames), l2},
		&l.batchShare, &l.serveShare, &l.stationShare)
	l.serveFill, l.serveFillFrac, l.serveShedFrac = sc.result()
	ust.add(tst)
	l.stationRelockMax = ust.relockMax
	l.stationRecovered = float64(ust.bitExact) / float64(ust.clean)
	l.fer = 1 - l.stationRecovered
	l.failedFrac = float64(ust.decodeErrs) / float64(ust.frames)
	l.add(res)
	ust.add(warm)
	w.finish(res, ust)
	return res, nil
}

func (s *stationStats) add(o stationStats) {
	relock := math.Max(s.relockMax, o.relockMax)
	s.passes += o.passes
	s.frames += o.frames
	s.clean += o.clean
	s.bitExact += o.bitExact
	s.dirtyRecovered += o.dirtyRecovered
	s.missed += o.missed
	s.corrupt += o.corrupt
	s.extra += o.extra
	s.miscorrected += o.miscorrected
	s.decodeErrs += o.decodeErrs
	s.decodeCalls += o.decodeCalls
	s.decodeFrames += o.decodeFrames
	s.relockMax = relock
}

// finish sets the attempt counts and the correctness gate over every
// pass of the run, warm-up included: no CADU may leave the pipeline
// corrupt, duplicated, or matching no frame.
func (w *stationWork) finish(r *harness.Result, st stationStats) {
	r.Attempted = st.frames
	r.Failed = st.decodeErrs
	r.Note("fer", 1-float64(st.bitExact)/float64(st.clean), "fraction", st.clean)
	if st.corrupt+st.miscorrected > 0 {
		r.Violate("%d corrupt and %d miscorrected CADUs (undetected errors)", st.corrupt, st.miscorrected)
	}
	if st.extra > 0 {
		r.Violate("%d CADUs match no transmitted frame", st.extra)
	}
}

func (w *stationWork) newStation() (*station.Station, error) {
	return station.New(station.Config{
		Built:         w.built,
		Decode:        w.decode,
		BitsPerSymbol: 2,
		EbN0dB:        stationEbN0,
		Observe: func(af station.AlignedFrame) {
			if !af.Flywheel {
				w.confirmed = append(w.confirmed, af.Pos)
			}
		},
	})
}

// decode is the station's decode seam: PoolDecode, traced and counted.
func (w *stationWork) decode(wire [][]int16, bits []*bitvec.Vector) ([]ldpc.Result, []error) {
	id := w.tr.Begin("station.decode", w.top, w.st.decodeCalls)
	t0 := time.Now()
	res, errs := w.pool(wire, bits)
	if w.decodeBusy != nil {
		t1 := time.Now()
		w.decodeBusy.AddSpan(t0, t1, t1.Sub(t0).Seconds())
	}
	w.tr.End(id)
	w.st.decodeCalls++
	w.st.decodeFrames += int64(len(wire))
	if w.capture && len(w.groups) < stationCaptureGroups {
		g := capturedGroup{wire: make([][]int16, len(wire)), res: make([]ldpc.Result, len(wire))}
		for i := range wire {
			g.wire[i] = append([]int16(nil), wire[i]...)
			g.res[i] = res[i]
			g.res[i].Bits = res[i].Bits.Clone()
		}
		w.groups = append(w.groups, g)
	}
	return res, errs
}

// runPass feeds one pass through a fresh station in chunks and grades
// it. wait, when set, blocks until chunk j may be fed. emit sees each
// CADU as it leaves the pipeline.
func (w *stationWork) runPass(p *station.Stream, wait func(j int), emit func(c station.Cadu, at time.Time)) error {
	start := time.Now()
	w.confirmed = w.confirmed[:0]
	w.cadus = w.cadus[:0]
	st, err := w.newStation()
	if err != nil {
		return err
	}
	feed := func(name string, j int, samples []float64) {
		w.top = w.tr.Begin(name, -1, int64(j))
		// A failed decode submission is counted by the station (and so
		// by Grade) and leaves the pipeline usable; its error adds
		// nothing to that.
		var out []station.Cadu
		if samples != nil {
			out, _ = st.Ingest(samples)
		} else {
			out, _ = st.Flush()
		}
		w.tr.End(w.top)
		w.top = -1
		now := time.Now()
		for _, c := range out {
			if emit != nil {
				emit(c, now)
			}
		}
		w.cadus = append(w.cadus, out...)
	}
	for j, off := 0, 0; off < len(p.Samples); j, off = j+1, off+stationChunk {
		if wait != nil {
			wait(j)
		}
		feed("station.Ingest", j, p.Samples[off:min(off+stationChunk, len(p.Samples))])
	}
	feed("station.Flush", -1, nil)
	g, err := station.Grade(p, w.cadus, w.confirmed, st.Metrics().Snapshot())
	if err != nil {
		return err
	}
	w.st.addPass(g)
	if w.meter != nil {
		w.meter.AddSpan(start, time.Now(), float64(g.BitExact+g.DirtyRecovered)*float64(w.built.PayloadBits()))
	}
	return nil
}

// closedLoop feeds passes back to back for at least dur (at least one
// pass) and returns what they did.
func (w *stationWork) closedLoop(dur time.Duration) (stationStats, harness.Window, error) {
	w.st = stationStats{}
	u0 := harness.ReadUsage()
	for k, end := 0, time.Now().Add(dur); k == 0 || time.Now().Before(end); k++ {
		if err := w.runPass(w.passes[k%len(w.passes)], nil, nil); err != nil {
			return w.st, harness.Window{}, err
		}
	}
	return w.st, harness.ReadUsage().Since(u0), nil
}

// openLoop feeds n passes at the frozen link rate. A generator releases
// each chunk when its last sample is due, independently of the station;
// each CADU's latency runs from when its frame's last sample was
// released to when it leaves the pipeline, and a clean frame that never
// leaves counts as a failure. It returns the stats and the generator's
// own lateness.
func (w *stationWork) openLoop(n int, lat *harness.Latencies) (stationStats, *harness.Latencies, error) {
	w.st = stationStats{}
	chunks := make([]int, n+1) // chunks[k]: first global chunk of pass k
	for k := 0; k < n; k++ {
		p := w.passes[k%len(w.passes)]
		chunks[k+1] = chunks[k] + (len(p.Samples)+stationChunk-1)/stationChunk
	}
	interval := time.Duration(math.Round(stationChunk / stationLinkRate * float64(time.Second)))
	loop := harness.NewOpenLoop(time.Now(), interval, chunks[n])
	gen := harness.NewOpenLoopGenerator(loop, chunks[n], func(int) error { return nil })
	go func() {
		defer close(gen.Out)
		for i := 0; i < chunks[n]; i++ {
			_ = gen.Step() // the send is a no-op and cannot fail
		}
	}()
	defer func() {
		for range gen.Out { // let the generator finish if a pass failed
		}
	}()
	for k := 0; k < n; k++ {
		p := w.passes[k%len(w.passes)]
		base := chunks[k]
		missed := w.st.missed
		err := w.runPass(p,
			func(int) { <-gen.Out },
			func(c station.Cadu, at time.Time) {
				last := (c.Pos + int64(p.FrameTotal) - 1) / stationChunk
				lat.Add(at, at.Sub(loop.Due(base+int(last))))
			})
		if err != nil {
			return w.st, loop.Late, err
		}
		for i, now := missed, time.Now(); i < w.st.missed; i++ {
			lat.AddFailure(now)
		}
	}
	return w.st, loop.Late, nil
}

// replaySeam pushes the captured decode groups through the decode seam
// (PoolDecode over the server), one group in flight as the station
// submits them, checking every answer against the station's, and
// returns the frames it decoded.
func (w *stationWork) replaySeam(dur time.Duration) (int64, harness.Window, error) {
	var frames int64
	bits := make([]*bitvec.Vector, batch.Lanes)
	for i := range bits {
		bits[i] = bitvec.New(w.built.Code.N)
	}
	u0 := harness.ReadUsage()
	for k, end := 0, time.Now().Add(dur); time.Now().Before(end); k++ {
		g := w.groups[k%len(w.groups)]
		res, errs := w.pool(g.wire, bits[:len(g.wire)])
		for i := range res {
			if errs[i] != nil {
				return frames, harness.Window{}, errs[i]
			}
			if !sameResult(res[i], g.res[i]) {
				return frames, harness.Window{}, errMismatch
			}
		}
		frames += int64(len(g.wire))
	}
	return frames, harness.ReadUsage().Since(u0), nil
}

// decoderReplay decodes the captured groups with a bare batch.Parallel
// of serve's default geometry — one 8-frame word per call — and checks
// every answer against the server's. It is built on its first run,
// after the traced loop has captured the groups.
type decoderReplay struct {
	d    *batch.Parallel
	q    [][][]int16 // per group, the expanded frames
	ref  [][]*bitvec.Vector
	res  []ldpc.Result
	next int
	st   decodeStats
	win  harness.Window
}

func (r *decoderReplay) run(w *stationWork, dur time.Duration) error {
	if r.d == nil {
		d, err := batch.NewParallel(w.built.Code, fixed.DefaultHighSpeedParams(), batch.ParallelConfig{})
		if err != nil {
			return err
		}
		r.d, r.res = d, results(batch.Lanes, w.built.Code.N)
		confident := fixed.DefaultHighSpeedParams().Format.Max()
		for _, g := range w.groups {
			q := make([][]int16, len(g.wire))
			ref := make([]*bitvec.Vector, len(g.wire))
			for i := range g.wire {
				q[i] = make([]int16, w.built.Code.N)
				if err := w.built.ExpandQ(q[i], g.wire[i], confident); err != nil {
					return err
				}
				ref[i] = g.res[i].Bits
			}
			r.q, r.ref = append(r.q, q), append(r.ref, ref)
		}
	}
	strip := stripFrames(r.d)
	u0 := harness.ReadUsage()
	for end := time.Now().Add(dur); time.Now().Before(end); r.next++ {
		k := r.next % len(r.q)
		n := len(r.q[k])
		t0 := time.Now()
		if err := r.d.DecodeQInto(r.res[:n], r.q[k]); err != nil {
			return err
		}
		r.st.add(r.res[:n], r.ref[k], strip, time.Since(t0))
		for i := 0; i < n; i++ {
			if !sameResult(r.res[i], w.groups[k].res[i]) {
				return errMismatch
			}
		}
	}
	r.win.Add(harness.ReadUsage().Since(u0))
	return nil
}

func (r *decoderReplay) close() {
	if r.d != nil {
		r.d.Close()
	}
}

// serveCounts accumulates server snapshot differences over a level's
// slices.
type serveCounts struct {
	frames, batches, in, shed, width int64
}

func (c *serveCounts) add(before, after []serve.Snapshot) {
	for i := range after {
		c.frames += after[i].FramesDecoded - before[i].FramesDecoded
		c.batches += after[i].Batches - before[i].Batches
		c.in += after[i].FramesIn - before[i].FramesIn
		c.shed += after[i].FramesShed - before[i].FramesShed + after[i].FramesDeadline - before[i].FramesDeadline
		c.width = after[i].DispatchWidth
	}
}

// result returns the frames per dispatched batch, that as a share of the
// dispatch width, and the shed-or-deadlined share of frames in.
func (c *serveCounts) result() (fill, fillFrac, shedFrac float64) {
	if c.batches == 0 {
		return 0, 0, 0
	}
	fill = float64(c.frames) / float64(c.batches)
	return fill, fill / float64(c.width), float64(c.shed) / float64(max(c.in, 1))
}
