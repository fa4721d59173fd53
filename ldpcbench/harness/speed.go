package harness

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// RefSpeed is the reference loop's usual speed, in blocks per thread-CPU
// millisecond, on the host the benchmark was defined on (a 2-vCPU Intel
// Xeon guest). Timings are reported as if every core ran at this speed.
const RefSpeed = 400

// probeBlocks is one sample's length: about half a millisecond at
// RefSpeed.
const probeBlocks = 200

// Speed tracks how fast the cores the benchmark runs on are at the
// moment, in fixed windows like Meter's. The host the benchmark was
// defined on shares its cores with other tenants. Their threads compete
// for the same execution units, so for minutes at a time the decoder's
// frame rate falls to about half, while a chain of dependent multiplies
// keeps its pace. A fixed throughput-bound reference loop slows in step
// with the decoder, to within about 10%. Scaling a rate by RefSpeed over
// the loop's speed in the same window (Factor), or in samples taken
// around one call (CallFactor), or a processing time by the inverse,
// takes most of that swing out, so runs taken in different spells
// compare.
type Speed struct {
	start time.Time
	width time.Duration
	mu    sync.Mutex
	bins  [][]float64
	all   []float64
}

// binSamples is the room preallocated per window, so sampling inside a
// measured window does not allocate: a sample every 40 ms from each of
// two threads fits.
const binSamples = 64

// NewSpeed covers [start, start+span) in whole windows of width.
func NewSpeed(start time.Time, width, span time.Duration) *Speed {
	n := max(int(span/width), 1)
	s := &Speed{start: start, width: width, bins: make([][]float64, n), all: make([]float64, 0, n*binSamples)}
	for i := range s.bins {
		s.bins[i] = make([]float64, 0, binSamples)
	}
	return s
}

// refSink keeps the reference loop's result alive.
var refSink atomic.Uint64

// refLoop is the reference: eight independent shift-xor-add chains, so
// it is bound by the core's integer throughput, as the decoder's SWAR
// kernels are, and not by one instruction's latency.
func refLoop(blocks int) uint64 {
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for j := 0; j < blocks; j++ {
		for i := 0; i < 1000; i++ {
			a = a ^ (a << 7) + b
			b = b ^ (b >> 3) + c
			c = c ^ (c << 5) + d
			d = d ^ (d >> 11) + e
			e = e ^ (e << 13) + f
			f = f ^ (f >> 9) + g
			g = g ^ (g << 1) + h
			h = h ^ (h >> 2) + a
		}
	}
	return a + b + c + d + e + f + g + h
}

// threadCPU returns the calling thread's CPU time. Unlike wall time it
// does not count time the thread spent preempted, so a sample measures
// the core and not the scheduler.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// Sample runs the reference loop on the calling goroutine's thread and
// records its speed, on the core that thread runs on.
func (s *Speed) Sample() { s.Measure() }

// Measure is Sample returning the speed it recorded, in blocks per
// thread-CPU millisecond, or 0 when the thread's clock did not advance.
func (s *Speed) Measure() float64 {
	runtime.LockOSThread()
	c0 := threadCPU()
	refSink.Add(refLoop(probeBlocks))
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	if d <= 0 {
		return 0
	}
	v := probeBlocks / (float64(d) / float64(time.Millisecond))
	s.add(time.Now(), v)
	return v
}

// CallFactor returns RefSpeed over the mean of the speeds Measure gave
// just before and just after a call: what the call's work is multiplied
// by, and its duration divided by, to give it at RefSpeed. A speed of 0
// is left out; with neither, the factor is 1.
func CallFactor(before, after float64) float64 {
	switch {
	case before > 0 && after > 0:
		return RefSpeed / ((before + after) / 2)
	case before > 0:
		return RefSpeed / before
	case after > 0:
		return RefSpeed / after
	}
	return 1
}

func (s *Speed) add(t time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := int(t.Sub(s.start) / s.width); i >= 0 && i < len(s.bins) {
		s.bins[i] = append(s.bins[i], v)
		s.all = append(s.all, v)
	}
}

// Run samples from threads goroutines of their own, at once and then
// every interval, until stop is called; stop returns once they have
// exited. Started together, the samplers land on every core the work is
// using.
func (s *Speed) Run(threads int, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			s.Sample()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					s.Sample()
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// Factor returns RefSpeed over the median speed sampled in t's window, or
// over the whole span when that window has no sample: what a rate
// measured then is multiplied by to give it at RefSpeed. It is NaN with
// no sample at all.
func (s *Speed) Factor(t time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.all
	if i := int(t.Sub(s.start) / s.width); i >= 0 && i < len(s.bins) && len(s.bins[i]) > 0 {
		v = s.bins[i]
	}
	if len(v) == 0 {
		return math.NaN()
	}
	return RefSpeed / Median(v)
}

// Median returns the median speed over the span, relative to RefSpeed.
func (s *Speed) Median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.all) == 0 {
		return math.NaN()
	}
	return Median(s.all) / RefSpeed
}
