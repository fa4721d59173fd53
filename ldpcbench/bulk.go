package main

import (
	"runtime"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"

	"ccsdsldpc/ldpcbench/harness"
)

// bulkSpec is a closed-loop workload: one caller feeding a seeded C2
// frame set through batch.Parallel, each call waiting for the last.
type bulkSpec struct {
	ebn0      float64
	earlyStop bool
	// frames is the frame-set size. In the waterfall most 64-frame
	// strips run to the cap because one of their frames does; 64 strips
	// keep the share of capped strips, and so the frame rate, steady
	// from seed to seed. Fixed iterations make speed data-independent,
	// so bulk-fixed18 needs fewer.
	frames int
}

var (
	bulkWaterfall = bulkSpec{ebn0: 3.8, earlyStop: true, frames: 4096}
	bulkFixed18   = bulkSpec{ebn0: 4.2, earlyStop: false, frames: 1024}
)

// bulkGeometry is the decoder both bulk workloads drive: one strip of 8
// words — 64 frames — per call, on one shard. Two shards run each phase
// at the pace of the slower core, and on a shared host that made the
// median call time jump between about 48 and 82 ms from run to run; one
// shard swings about half as much.
var bulkGeometry = batch.ParallelConfig{Shards: 1, SuperBatch: 1, LaneWidth: 8}

const bulkWarmup = time.Second

type bulkRun struct {
	d   *batch.Parallel
	fs  *frameSet
	res []ldpc.Result
	// The frame error rate is taken over the first full pass of the
	// frame set in the window marked first.
	firstPass, firstPassBad int64
}

func runBulk(rc runConfig, spec bulkSpec) (*harness.Result, error) {
	e, _ := registry.Default().Get(registry.C2)
	built, err := e.Build()
	if err != nil {
		return nil, err
	}
	fs, err := genFrames(built, registry.C2, spec.ebn0, spec.frames, rc.seed)
	if err != nil {
		return nil, err
	}
	modelNs, err := modelNsPerFrameIter()
	if err != nil {
		return nil, err
	}
	p := fixed.DefaultHighSpeedParams()
	p.DisableEarlyStop = !spec.earlyStop
	capacity := bulkGeometry.SuperBatch * bulkGeometry.LaneWidth * batch.Lanes
	res := results(capacity, built.Code.N)
	lat := harness.NewLatencies(int(rc.seconds.Seconds()*8000) + capacity)
	heap0 := harness.LiveHeap()

	d, setupS, err := timeSetup(setupReps, func() (*batch.Parallel, error) {
		return batch.NewParallel(built.Code, p, bulkGeometry)
	}, (*batch.Parallel).Close)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	b := &bulkRun{d: d, fs: fs, res: res}
	warm, err := b.loop(bulkWarmup, window{})
	if err != nil {
		return nil, err
	}

	r := &harness.Result{}
	if rc.tracer == nil {
		u0 := harness.ReadUsage()
		meter := harness.NewMeter(u0.At, time.Second, rc.seconds)
		scaled := harness.NewMeter(u0.At, time.Second, rc.seconds)
		speed := harness.NewSpeed(u0.At, time.Second, rc.seconds)
		st, err := b.loop(rc.seconds, window{lat: lat, meter: meter, scaled: scaled, speed: speed, first: true})
		if err != nil {
			return nil, err
		}
		win := harness.ReadUsage().Since(u0)
		r.Add("info_mbps", scaled.MedianRate(nil)/1e6, "Mb/s", st.frames)
		addLatency(r, lat)
		r.Add("setup_s", setupS, "s", setupReps)
		r.Add("heap_live_mb", mb(harness.LiveHeap(), heap0), "MB", 0)
		// The harness's own buffers were in the first reading; keep them
		// in this one.
		runtime.KeepAlive(lat)
		addSpeedNotes(r, meter, speed)
		r.Note("frames_per_s", float64(st.frames)/win.Wall.Seconds(), "1/s", st.frames)
		r.Note("mean_iters", float64(st.useful)/float64(st.frames), "count", st.frames)
		r.Note("allocs_per_frame", float64(win.Mallocs)/float64(st.frames), "count", st.frames)
		st.merge(warm)
		b.finish(r, st)
		return r, nil
	}

	// Traced run: the loop untraced and traced, interleaved, each
	// resuming where its last slice stopped.
	var ust, tst decodeStats
	var uwin, twin harness.Window
	var unext, tnext int
	err = harness.Interleave(rc.seconds, traceSlice,
		func(d time.Duration) error {
			return b.measure(d, window{first: true, next: &unext}, &ust, &uwin)
		},
		func(d time.Duration) error {
			return b.measure(d, window{tr: rc.tracer, next: &tnext}, &tst, &twin)
		})
	if err != nil {
		return nil, err
	}
	l := layerReport{
		cpuPerFrame:   twin.CPUPerFrame(tst.frames),
		allocPerFrame: float64(uwin.Mallocs) / float64(ust.frames),
		batch:         tst,
		batchAllocs:   float64(twin.Mallocs) / float64(tst.calls),
		modelNs:       modelNs,
		batchShare:    1,
		overhead:      1 - (float64(tst.correct)/twin.Wall.Seconds())/(float64(ust.correct)/uwin.Wall.Seconds()),
		reconcileErr:  relErr(twin.CPUPerFrame(tst.frames), uwin.CPUPerFrame(ust.frames)),
	}
	l.batch.busy = harness.Totals(rc.tracer.Spans())["batch.DecodeQInto"].Total
	all := ust
	all.merge(tst)
	l.fer = float64(all.unconverged) / float64(all.frames)
	l.add(r)
	all.merge(warm)
	b.finish(r, all)
	return r, nil
}

// finish sets the attempt counts and the correctness gate over every
// frame the run decoded, warm-up included.
func (b *bulkRun) finish(r *harness.Result, st decodeStats) {
	r.Attempted = st.frames
	r.Note("fer", float64(b.firstPassBad)/float64(b.firstPass), "fraction", b.firstPass)
	if st.wrong > 0 {
		r.Violate("%d converged frames differ from the transmitted codeword (undetected errors)", st.wrong)
	}
}

// window says what a loop records besides its stats: spans, whether the
// frame error rate is taken in it, and where in the frame set it
// resumes; and, when speed is set, each call's information bits over
// time, as they were (meter) and scaled to harness.RefSpeed (scaled),
// and its frames' latency at RefSpeed (lat).
type window struct {
	tr            *harness.Tracer
	lat           *harness.Latencies
	meter, scaled *harness.Meter
	speed         *harness.Speed
	first         bool
	next          *int // the next call; nil starts at the first frame
}

// measure runs the loop for dur and adds what it did to st and w.
func (b *bulkRun) measure(dur time.Duration, win window, st *decodeStats, w *harness.Window) error {
	u0 := harness.ReadUsage()
	s, err := b.loop(dur, win)
	w.Add(harness.ReadUsage().Since(u0))
	st.merge(s)
	return err
}

// loop runs the closed loop for dur and returns what it decoded. Loops
// compared with each other start at the same frame, so they decode the
// same frames. Every frame of a call shares the call's latency.
//
// With win.speed, the core's speed is sampled between calls on this
// goroutine — the decoder runs its one shard here, so the samples time
// the core the calls run on — and each call is scaled by the samples
// just before and just after it (harness.CallFactor). That follows the
// host's swings within a second, which a window's median does not: the
// slowest calls, which make the tail latency, are the ones a brief
// slowdown hit. The sample after a call is the next call's before, so a
// call's record waits for it.
func (b *bulkRun) loop(dur time.Duration, win window) (decodeStats, error) {
	var st decodeStats
	n := len(b.res)
	calls := len(b.fs.q) / n
	strip := stripFrames(b.d)
	k := float64(b.fs.built.Code.K)
	call := 0
	if win.next != nil {
		defer func() { *win.next = call }()
		call = *win.next
	}
	var last struct {
		t0         time.Time
		el         time.Duration
		bits       float64
		speed      float64 // sampled before the call
		unrecorded bool
	}
	sample := func() {
		if win.speed == nil {
			return
		}
		s := win.speed.Measure()
		if last.unrecorded {
			f := harness.CallFactor(last.speed, s)
			to := last.t0.Add(last.el)
			win.meter.AddSpan(last.t0, to, last.bits)
			win.scaled.AddSpan(last.t0, to, last.bits*f)
			win.lat.AddN(to, time.Duration(float64(last.el)/f), n)
			last.unrecorded = false
		}
		last.speed = s
	}
	defer sample()
	for end := time.Now().Add(dur); time.Now().Before(end); call++ {
		sample()
		lo := call % calls * n
		id := win.tr.Begin("batch.DecodeQInto", -1, int64(call))
		t0 := time.Now()
		if err := b.d.DecodeQInto(b.res, b.fs.q[lo:lo+n]); err != nil {
			return st, err
		}
		el := time.Since(t0)
		win.tr.End(id)
		bad, good := st.unconverged, st.correct
		st.add(b.res, b.fs.cws[lo:lo+n], strip, el)
		last.t0, last.el, last.bits, last.unrecorded = t0, el, float64(st.correct-good)*k, true
		if win.first && call < calls {
			b.firstPass += int64(n)
			b.firstPassBad += st.unconverged - bad
		}
	}
	return st, nil
}
