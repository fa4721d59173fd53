package serve

import (
	"math/bits"
	"sync/atomic"

	"ccsdsldpc/internal/batch"
)

// latencyBuckets is the size of the log-linear latency histogram: each
// power of two of microseconds is split into 8 linear sub-buckets, so
// recorded values are resolved to ≤12.5% — enough for p50/p99
// reporting without per-sample storage. 37 exponents cover
// [1 µs, ~2 minutes].
const (
	latencySubBits = 3
	latencyBuckets = 37 << latencySubBits
)

// latencyBucket maps a microsecond value to its histogram bucket.
func latencyBucket(us int64) int {
	if us < 1 {
		us = 1
	}
	exp := bits.Len64(uint64(us)) - 1 // floor(log2 us)
	var sub int64
	if exp > latencySubBits {
		sub = (us >> (uint(exp) - latencySubBits)) & (1<<latencySubBits - 1)
	} else {
		sub = (us << (latencySubBits - uint(exp))) & (1<<latencySubBits - 1)
	}
	b := exp<<latencySubBits + int(sub)
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	return b
}

// latencyBucketValue returns a representative microsecond value for a
// bucket (its lower edge; quantiles therefore err slightly low, never
// beyond one sub-bucket ≤ 12.5%).
func latencyBucketValue(b int) float64 {
	exp := b >> latencySubBits
	sub := b & (1<<latencySubBits - 1)
	base := float64(uint64(1) << uint(exp))
	return base + base*float64(sub)/float64(int(1)<<latencySubBits)
}

// Histogram is the log-linear latency histogram every layer records
// into. Record is one atomic add, safe from any goroutine; the zero
// value is ready to use.
type Histogram struct {
	buckets [latencyBuckets]atomic.Int64
}

// Record adds one latency sample in microseconds.
func (h *Histogram) Record(us int64) {
	h.buckets[latencyBucket(us)].Add(1)
}

// Latency is a histogram's quantiles in microseconds, under the keys
// every /metrics snapshot reports latency with.
type Latency struct {
	LatencyP50Micros float64 `json:"latency_p50_us"`
	LatencyP90Micros float64 `json:"latency_p90_us"`
	LatencyP99Micros float64 `json:"latency_p99_us"`
}

// Latency returns the p50, p90 and p99 of the samples recorded so far.
func (h *Histogram) Latency() Latency {
	var hist [latencyBuckets]int64
	var total int64
	for b := range h.buckets {
		hist[b] = h.buckets[b].Load()
		total += hist[b]
	}
	return Latency{
		LatencyP50Micros: quantile(hist[:], total, 0.50),
		LatencyP90Micros: quantile(hist[:], total, 0.90),
		LatencyP99Micros: quantile(hist[:], total, 0.99),
	}
}

// quantile walks the histogram to the bucket holding the q-quantile.
func quantile(hist []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for b := range hist {
		seen += hist[b]
		if seen > rank {
			return latencyBucketValue(b)
		}
	}
	return latencyBucketValue(len(hist) - 1)
}

// Counts is the frame accounting both Snapshot and HealthSnapshot
// carry: what happened to the frames a server took in, its load, and
// its circuit breaker. At idle FramesIn = FramesDecoded +
// FramesDeadline + FramesCrashed; shed frames were never taken in.
type Counts struct {
	FramesIn       int64 `json:"frames_in"`
	FramesDecoded  int64 `json:"frames_decoded"`
	FramesShed     int64 `json:"frames_shed"`     // answered ErrOverloaded
	FramesDeadline int64 `json:"frames_deadline"` // answered ErrDeadline undecoded
	// FramesCrashed counts claimed frames a worker panic answered with
	// ErrWorkerCrash.
	FramesCrashed int64 `json:"frames_crashed"`

	// QueueDepth counts frames accepted but not yet gathered by a
	// worker; InFlight counts frames a worker has gathered and not yet
	// answered or dropped. So FramesIn = FramesDecoded + FramesDeadline +
	// FramesCrashed + QueueDepth + InFlight at any time, but for a
	// DecodeQ frame abandoned at its deadline: it counts in
	// FramesDeadline at once, and in QueueDepth or InFlight until a
	// worker drops it.
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	// BreakerTrips counts the circuit breaker's normal→degraded
	// transitions, and Degraded reports whether the worker pool is
	// running the reduced iteration budget now.
	BreakerTrips int64 `json:"breaker_trips"`
	Degraded     bool  `json:"degraded"`
}

// Add folds another server's counts into c: counters and gauges sum,
// and c is degraded if either is.
func (c *Counts) Add(o Counts) {
	c.FramesIn += o.FramesIn
	c.FramesDecoded += o.FramesDecoded
	c.FramesShed += o.FramesShed
	c.FramesDeadline += o.FramesDeadline
	c.FramesCrashed += o.FramesCrashed
	c.QueueDepth += o.QueueDepth
	c.InFlight += o.InFlight
	c.BreakerTrips += o.BreakerTrips
	c.Degraded = c.Degraded || o.Degraded
}

// Metrics is the server's live instrumentation. All fields are updated
// with atomics; Snapshot assembles a consistent-enough view for
// reporting (counters may be mid-batch skewed by a few frames, which is
// irrelevant at reporting timescales).
type Metrics struct {
	framesIn       atomic.Int64 // frames accepted into the queue
	framesDecoded  atomic.Int64
	framesShed     atomic.Int64 // rejected with ErrOverloaded
	framesDeadline atomic.Int64 // abandoned with ErrDeadline
	batches        atomic.Int64
	iterations     atomic.Int64 // decoder iterations, summed over frames

	queued   atomic.Int64 // frames in the queue, not yet gathered by a worker
	inFlight atomic.Int64 // frames a worker gathered, not yet answered or dropped

	workerRestarts atomic.Int64 // workers rebuilt after a confined panic
	framesCrashed  atomic.Int64 // claimed frames returned with ErrWorkerCrash

	breaker *latch // the circuit breaker, read for its trips and state

	// dispatchWidth is the configured maximum frames per dispatch
	// (Config.MaxBatch) — the denominator of every fill statistic. It
	// is derived from the configured lane geometry, not the 8-lane
	// packing constant, so the fill numbers stay honest at LaneWidth or
	// SuperBatch > 1.
	dispatchWidth int
	fill          []atomic.Int64 // fill[k-1] = batches with k frames
	latency       Histogram

	workerFrames []atomic.Int64
	workerIters  []atomic.Int64
}

func newMetrics(workers, dispatchWidth int, breaker *latch) *Metrics {
	if dispatchWidth < 1 {
		dispatchWidth = batch.Lanes
	}
	return &Metrics{
		breaker:       breaker,
		dispatchWidth: dispatchWidth,
		fill:          make([]atomic.Int64, dispatchWidth),
		workerFrames:  make([]atomic.Int64, workers),
		workerIters:   make([]atomic.Int64, workers),
	}
}

func (m *Metrics) recordBatch(worker, frames int, iters int64) {
	m.batches.Add(1)
	m.framesDecoded.Add(int64(frames))
	m.iterations.Add(iters)
	m.fill[frames-1].Add(1)
	m.workerFrames[worker].Add(int64(frames))
	m.workerIters[worker].Add(iters)
}

// counts loads the frame accounting.
func (m *Metrics) counts() Counts {
	return Counts{
		FramesIn:       m.framesIn.Load(),
		FramesDecoded:  m.framesDecoded.Load(),
		FramesShed:     m.framesShed.Load(),
		FramesDeadline: m.framesDeadline.Load(),
		FramesCrashed:  m.framesCrashed.Load(),
		QueueDepth:     m.queued.Load(),
		InFlight:       m.inFlight.Load(),
		BreakerTrips:   m.breaker.trips.Load(),
		Degraded:       m.breaker.tripped.Load(),
	}
}

// WorkerStat is one worker's share of the decode traffic.
type WorkerStat struct {
	Frames     int64
	Iterations int64
}

// Snapshot is a point-in-time copy of the metrics, JSON-encodable for a
// /metrics endpoint.
type Snapshot struct {
	Counts
	Batches    int64 `json:"batches"`
	Iterations int64 `json:"iterations"`

	// WorkerRestarts counts decoders rebuilt after a confined worker
	// panic.
	WorkerRestarts int64 `json:"worker_restarts"`

	// BatchFill[k-1] is the number of decoded batches holding k
	// frames, sized to the configured dispatch width; BatchFillMean is
	// the mean batch occupancy and BatchFillFrac its fraction of
	// DispatchWidth — the paper's packed memory words are fully used
	// only when the fraction approaches 1. DispatchWidth is
	// Config.MaxBatch (8 per word, up to 512 for an 8-strip super-batch
	// of 8-word strips), so the denominator tracks the configured lane
	// geometry instead of assuming the 8-lane single word.
	BatchFill     []int64 `json:"batch_fill"`
	BatchFillMean float64 `json:"batch_fill_mean"`
	BatchFillFrac float64 `json:"batch_fill_frac"`
	DispatchWidth int64   `json:"dispatch_width"`

	// Latency is the request latency (queueing + decode).
	Latency

	AvgIterations float64      `json:"avg_iterations"`
	Workers       []WorkerStat `json:"workers"`
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counts:         m.counts(),
		Batches:        m.batches.Load(),
		Iterations:     m.iterations.Load(),
		WorkerRestarts: m.workerRestarts.Load(),
		BatchFill:      make([]int64, len(m.fill)),
		DispatchWidth:  int64(m.dispatchWidth),
		Latency:        m.latency.Latency(),
	}
	for k := range m.fill {
		s.BatchFill[k] = m.fill[k].Load()
	}
	if s.Batches > 0 {
		s.BatchFillMean = float64(s.FramesDecoded) / float64(s.Batches)
		s.BatchFillFrac = s.BatchFillMean / float64(m.dispatchWidth)
	}
	if s.FramesDecoded > 0 {
		s.AvgIterations = float64(s.Iterations) / float64(s.FramesDecoded)
	}
	s.Workers = make([]WorkerStat, len(m.workerFrames))
	for w := range m.workerFrames {
		s.Workers[w] = WorkerStat{
			Frames:     m.workerFrames[w].Load(),
			Iterations: m.workerIters[w].Load(),
		}
	}
	return s
}
