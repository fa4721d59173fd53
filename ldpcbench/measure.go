package main

import (
	"errors"
	"runtime"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/hwsim"
	"ccsdsldpc/internal/ldpc"

	"ccsdsldpc/ldpcbench/harness"
)

// runConfig is what every workload receives: its input seed, the length
// of the run, and the tracer (nil for the untraced run, which reports
// the end-to-end metrics; the traced run reports the per-layer ones).
type runConfig struct {
	seed    uint64
	seconds time.Duration
	tracer  *harness.Tracer
}

// traceSlice is how long a traced run runs one level before switching
// to the next (see harness.Interleave).
const traceSlice = time.Second

// closedShare is the share of a station-link or fleet-mixed run given to
// its closed-loop phase, which reports info_mbps. The open-loop phase
// gets the rest: at its low frozen rate it needs the time to fill the
// several 1000-frame windows its latency percentiles are the median of.
const closedShare = 0.3

// phases splits a run into its closed-loop and open-loop phases.
func phases(run time.Duration) (closed, open time.Duration) {
	closed = time.Duration(float64(run) * closedShare)
	return closed, run - closed
}

// speedInterval is how often the sampler goroutines of a station or
// fleet window sample the cores' speed (see harness.Speed); the bulk
// loop samples between calls instead.
const speedInterval = 100 * time.Millisecond

// addSpeedNotes notes the information rate before scaling to
// harness.RefSpeed, and the cores' median speed relative to it.
func addSpeedNotes(r *harness.Result, m *harness.Meter, sp *harness.Speed) {
	r.Note("info_mbps_unscaled", m.MedianRate(nil)/1e6, "Mb/s", 0)
	r.Note("core_speed", sp.Median(), "x", 0)
}

// setupReps is how many times a run builds its stack to report the
// median set-up time; every build but the last is torn down again.
const setupReps = 9

// timeSetup builds reps times and returns the last build with the
// median wall time of all of them, in seconds.
func timeSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			release(v)
		} else {
			kept = v
		}
	}
	return kept, harness.Median(times), nil
}

// decodeStats accumulates calls into a batch.Parallel decoder.
type decodeStats struct {
	calls, frames int64
	correct       int64 // converged and equal to the transmitted codeword
	unconverged   int64
	wrong         int64 // converged on another codeword: an undetected error
	useful        int64 // Σ per-frame iterations
	executed      int64 // Σ frames × iterations their strip actually ran
	busy          time.Duration
}

// add folds one call's results. A strip of stripFrames frames keeps
// iterating until its slowest frame stops, so that is what its frames
// cost.
func (s *decodeStats) add(res []ldpc.Result, cws []*bitvec.Vector, stripFrames int, busy time.Duration) {
	s.calls++
	s.frames += int64(len(res))
	s.busy += busy
	for lo := 0; lo < len(res); lo += stripFrames {
		hi := min(lo+stripFrames, len(res))
		strip := 0
		for i := lo; i < hi; i++ {
			r := res[i]
			s.useful += int64(r.Iterations)
			strip = max(strip, r.Iterations)
			switch {
			case !r.Converged:
				s.unconverged++
			case r.Bits.Equal(cws[i]):
				s.correct++
			default:
				s.wrong++
			}
		}
		s.executed += int64(strip * (hi - lo))
	}
}

// merge adds another run's counts.
func (s *decodeStats) merge(o decodeStats) {
	s.calls += o.calls
	s.frames += o.frames
	s.correct += o.correct
	s.unconverged += o.unconverged
	s.wrong += o.wrong
	s.useful += o.useful
	s.executed += o.executed
	s.busy += o.busy
}

// errMismatch reports two decode paths answering one frame differently;
// every path must be bit-exact with every other.
var errMismatch = errors.New("decode paths disagree on a frame")

// sameResult reports identical hard decisions, iteration counts and
// convergence flags.
func sameResult(a, b ldpc.Result) bool {
	return a.Converged == b.Converged && a.Iterations == b.Iterations && a.Bits.Equal(b.Bits)
}

// results returns n decode results with preallocated hard-decision
// vectors, so DecodeQInto writes in place and allocates nothing.
func results(n, codeN int) []ldpc.Result {
	res := make([]ldpc.Result, n)
	for i := range res {
		res[i].Bits = bitvec.New(codeN)
	}
	return res
}

// stripFrames is the frames one kernel strip of a decoder carries.
func stripFrames(d *batch.Parallel) int { return d.Config().LaneWidth * batch.Lanes }

// modelNsPerFrameIter is the paper's high-speed architecture (hwsim at
// its 200 MHz clock) in nanoseconds per frame-iteration: one batch of
// Frames packed frames over Iterations iterations. Every catalog code
// has 511-bit circulants and the model gives each block row and column
// its own unit, so the figure is the same for all of them.
func modelNsPerFrameIter() (float64, error) {
	c, err := code.CCSDS()
	if err != nil {
		return 0, err
	}
	m, err := hwsim.New(c, hwsim.HighSpeed())
	if err != nil {
		return 0, err
	}
	cfg := m.Config()
	return float64(m.CyclesPerBatch()) / float64(cfg.Frames*cfg.Iterations) / cfg.ClockMHz * 1e3, nil
}

// layerReport is the per-layer metric set of a traced run, printed in
// one order by every workload. A layer the workload does not pass
// through reads 0; each layer's cpu_share is its marginal process CPU
// per frame over the level below it, as a share of the top level's.
type layerReport struct {
	cpuPerFrame   float64 // µs, top level, traced
	allocPerFrame float64 // untraced window
	batch         decodeStats
	batchAllocs   float64 // per call
	modelNs       float64

	batchShare, serveShare, registryShare, fleetShare, frontShare, stationShare float64

	serveFill, serveFillFrac, serveShedFrac float64
	fleetRetryFrac, fleetShareMax           float64

	stationSyncShare, stationGroup, stationRecovered, stationRelockMax float64

	fer, failedFrac        float64
	overhead, reconcileErr float64
}

// add reports the set on r.
func (l *layerReport) add(r *harness.Result) {
	b := l.batch
	nsPerFrameIter := float64(b.busy.Nanoseconds()) / float64(b.executed)
	r.Add("cpu.us_per_frame", l.cpuPerFrame, "us", 0)
	r.Add("alloc.per_frame", l.allocPerFrame, "count", 0)
	r.Add("batch.busy_us_per_frame", float64(b.busy.Nanoseconds())/1e3/float64(b.frames), "us", b.frames)
	r.Add("batch.ns_per_frame_iter", nsPerFrameIter, "ns", b.executed)
	r.Add("batch.model_ratio", nsPerFrameIter/l.modelNs, "x", 0)
	r.Add("batch.lane_util", float64(b.useful)/float64(b.executed), "fraction", 0)
	r.Add("batch.mean_iters", float64(b.useful)/float64(b.frames), "count", b.frames)
	r.Add("batch.allocs_per_call", l.batchAllocs, "count", b.calls)
	r.Add("batch.cpu_share", l.batchShare, "fraction", 0)
	r.Add("serve.cpu_share", l.serveShare, "fraction", 0)
	r.Add("serve.batch_fill", l.serveFill, "count", 0)
	r.Add("serve.fill_frac", l.serveFillFrac, "fraction", 0)
	r.Add("serve.shed_frac", l.serveShedFrac, "fraction", 0)
	r.Add("registry.cpu_share", l.registryShare, "fraction", 0)
	r.Add("fleet.cpu_share", l.fleetShare, "fraction", 0)
	r.Add("fleet.front_cpu_share", l.frontShare, "fraction", 0)
	r.Add("fleet.retry_frac", l.fleetRetryFrac, "fraction", 0)
	r.Add("fleet.backend_share_max", l.fleetShareMax, "fraction", 0)
	r.Add("station.cpu_share", l.stationShare, "fraction", 0)
	r.Add("station.sync_share", l.stationSyncShare, "fraction", 0)
	r.Add("station.decode_group", l.stationGroup, "count", 0)
	r.Add("station.recovered_frac", l.stationRecovered, "fraction", 0)
	r.Add("station.relock_frames_max", l.stationRelockMax, "frames", 0)
	r.Add("loadgen.fer", l.fer, "fraction", 0)
	r.Add("loadgen.failed_frac", l.failedFrac, "fraction", 0)
	r.Add("trace.overhead_frac", l.overhead, "fraction", 0)
	r.Add("trace.reconcile_err", l.reconcileErr, "fraction", 0)
}

// shares sets the cpu_share of each level from the CPU per frame of the
// levels, bottom (the decoder) first; the last level is the top.
func shares(levels []float64, out ...*float64) {
	top := levels[len(levels)-1]
	prev := 0.0
	for i, v := range levels {
		*out[i] = (v - prev) / top
		prev = v
	}
}

// addLatency reports a phase's median and p99 latency in milliseconds,
// each the median over consecutive windows of the phase (see
// harness.Latencies.Windowed). A p99 a window cannot support — fewer than
// harness.MinBeyond samples beyond it — is taken at the highest
// percentile it can, with a note saying which.
func addLatency(r *harness.Result, lat *harness.Latencies) {
	n := int64(lat.Len())
	_, p50 := lat.Windowed(0.5)
	r.Add("latency_p50_ms", p50*1e3, "ms", n)
	q, p99 := lat.Windowed(0.99)
	r.Add("latency_p99_ms", p99*1e3, "ms", n)
	if q < 0.99 {
		r.Note("latency_p99_reported_at", q, "quantile", n)
	}
}

// mb converts a heap difference to megabytes.
func mb(after, before uint64) float64 { return (float64(after) - float64(before)) / 1e6 }

// relErr is |a−b| ÷ b.
func relErr(a, b float64) float64 {
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}
