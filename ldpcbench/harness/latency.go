// Package harness is the measurement toolkit of the decoder-stack
// benchmark: per-frame latency percentiles, an open-loop send schedule,
// windowed rates, core-speed scaling, in-memory trace spans with
// self-time accounting, process resource sampling, and the metric report. It knows nothing
// about LDPC; the workloads in the parent package drive the stack
// through it.
package harness

import (
	"math"
	"sort"
	"time"
)

const (
	// MinBeyond is how many samples must lie beyond a reported
	// percentile. A p99 over fewer than 1000 samples would rest on
	// fewer than ten slow frames, so Tail falls back to the highest
	// percentile the sample supports.
	MinBeyond = 10
	// WindowSamples is the fewest samples Windowed puts in a window:
	// enough for a p99 with MinBeyond samples beyond it.
	WindowSamples = 1000
)

// Latencies collects the per-frame latencies of one measured phase, in
// seconds, with the time each was recorded. A frame that failed, was
// refused or was never answered is recorded as +Inf: it misses every
// latency limit.
type Latencies struct {
	v  []float64
	at []int64 // Unix nanoseconds
}

// NewLatencies preallocates room for n samples, so recording inside a
// measured window does not allocate until n is exceeded.
func NewLatencies(n int) *Latencies {
	return &Latencies{v: make([]float64, 0, n), at: make([]int64, 0, n)}
}

// Add records one frame answered at t after d.
func (l *Latencies) Add(t time.Time, d time.Duration) { l.AddN(t, d, 1) }

// AddN records n frames answered together at t after d (a batch call).
func (l *Latencies) AddN(t time.Time, d time.Duration, n int) {
	l.add(t, d.Seconds(), n)
}

// AddFailure records a frame found unanswered at t.
func (l *Latencies) AddFailure(t time.Time) { l.add(t, math.Inf(1), 1) }

func (l *Latencies) add(t time.Time, s float64, n int) {
	ns := t.UnixNano()
	for i := 0; i < n; i++ {
		l.v = append(l.v, s)
		l.at = append(l.at, ns)
	}
}

// Append adds every sample of o.
func (l *Latencies) Append(o *Latencies) {
	l.v = append(l.v, o.v...)
	l.at = append(l.at, o.at...)
}

// Len returns the number of samples.
func (l *Latencies) Len() int { return len(l.v) }

// Tail returns the quantile nearest to want that leaves at least
// MinBeyond samples beyond it, and its nearest-rank value in seconds:
// the smallest sample with at least a q share of the samples at or below
// it, +Inf when the rank lands on a failure. q < want means the sample
// was too small for the requested percentile; q is 0 when it supports
// none.
func (l *Latencies) Tail(want float64) (q, seconds float64) { return tail(sorted(l.v), want) }

// Windowed cuts the samples, in the order they were recorded, into as
// many consecutive windows of at least WindowSamples each as there are,
// and returns the median over the windows of each one's Tail(want), with
// the lowest quantile a window supported. On a shared host a slow spell
// then moves the result only when it reaches most windows.
func (l *Latencies) Windowed(want float64) (q, seconds float64) {
	n := len(l.v)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return l.at[order[a]] < l.at[order[b]] })
	k := max(n/WindowSamples, 1)
	q = want
	vals := make([]float64, k)
	for w := 0; w < k; w++ {
		chunk := make([]float64, 0, n/k+1)
		for _, i := range order[w*n/k : (w+1)*n/k] {
			chunk = append(chunk, l.v[i])
		}
		sort.Float64s(chunk)
		var qw float64
		qw, vals[w] = tail(chunk, want)
		q = min(q, qw)
	}
	return q, Median(vals)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps q·n = 990.0000000000001 from costing a rank.
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return sorted[min(max(r, 0), n-1)]
}

func tail(sorted []float64, want float64) (q, seconds float64) {
	n := len(sorted)
	q = want
	if max := float64(n-MinBeyond) / float64(n); q > max {
		q = max
	}
	if q <= 0 {
		return 0, math.NaN()
	}
	return q, quantile(sorted, q)
}
