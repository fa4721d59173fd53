package harness

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Usage is one reading of the process's resource counters.
type Usage struct {
	At      time.Time
	CPU     time.Duration // user + system time of every thread
	Mallocs uint64        // cumulative heap allocations
}

// ReadUsage samples the counters. It stops the world briefly, so call it
// at window boundaries, not per frame.
func ReadUsage() Usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for an invalid who argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		At:      time.Now(),
		CPU:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Mallocs: ms.Mallocs,
	}
}

// Window is what happened between two readings.
type Window struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
}

// Since returns the window from an earlier reading to u.
func (u Usage) Since(prev Usage) Window {
	return Window{Wall: u.At.Sub(prev.At), CPU: u.CPU - prev.CPU, Mallocs: u.Mallocs - prev.Mallocs}
}

// CPUPerFrame returns process CPU microseconds per frame.
func (w Window) CPUPerFrame(frames int64) float64 {
	return float64(w.CPU.Microseconds()) / float64(frames)
}

// LiveHeap collects garbage and returns the bytes still allocated.
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Median returns the median of xs without reordering it.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Add accumulates another window.
func (w *Window) Add(o Window) {
	w.Wall += o.Wall
	w.CPU += o.CPU
	w.Mallocs += o.Mallocs
}

// Interleave gives each level an equal share of total, in slices of
// about slice, round robin. The host's speed drifts over tens of
// seconds; interleaved, every level sees the same drift, so levels
// compared with each other differ by what they run and not by when.
func Interleave(total, slice time.Duration, levels ...func(time.Duration) error) error {
	rounds := max(1, int(total/(slice*time.Duration(len(levels)))))
	per := total / time.Duration(rounds*len(levels))
	for r := 0; r < rounds; r++ {
		for _, run := range levels {
			if err := run(per); err != nil {
				return err
			}
		}
	}
	return nil
}
