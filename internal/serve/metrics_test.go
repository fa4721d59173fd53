package serve

import (
	"ccsdsldpc/internal/batch"

	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestLatencyBucketMonotone(t *testing.T) {
	prev := -1
	for us := int64(1); us < 1<<40; us = us*5/4 + 1 {
		b := latencyBucket(us)
		if b < prev {
			t.Fatalf("bucket(%d)=%d below previous %d", us, b, prev)
		}
		if b >= latencyBuckets {
			t.Fatalf("bucket(%d)=%d out of range", us, b)
		}
		prev = b
	}
	if latencyBucket(0) != 0 || latencyBucket(-3) != 0 {
		t.Error("non-positive values must land in bucket 0")
	}
}

// TestLatencyBucketResolution: the representative value of a bucket
// must be within one sub-bucket (~12.5%) below the recorded value.
func TestLatencyBucketResolution(t *testing.T) {
	for us := int64(1); us < 1e9; us = us*3/2 + 7 {
		v := latencyBucketValue(latencyBucket(us))
		if v > float64(us) || v < float64(us)/1.126-1 {
			t.Errorf("value %d resolved to %.1f", us, v)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	// 90 samples at ~100 µs, 10 at ~10 ms.
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(10_000)
	}
	s := h.Latency()
	if s.LatencyP50Micros < 80 || s.LatencyP50Micros > 100 {
		t.Errorf("p50 = %.1f, want ≈100", s.LatencyP50Micros)
	}
	if s.LatencyP99Micros < 8000 || s.LatencyP99Micros > 10_000 {
		t.Errorf("p99 = %.1f, want ≈10000", s.LatencyP99Micros)
	}
	if s.LatencyP90Micros < s.LatencyP50Micros || s.LatencyP99Micros < s.LatencyP90Micros {
		t.Error("quantiles not ordered")
	}
}

func TestSnapshotAccounting(t *testing.T) {
	m := newMetrics(2, batch.Lanes, newLatch(time.Second, 0.3, 0.1, 1))
	m.framesIn.Add(11)
	m.recordBatch(0, 8, 8*18)
	m.recordBatch(1, 3, 3*10)
	s := m.Snapshot()
	if s.FramesDecoded != 11 || s.Batches != 2 {
		t.Fatalf("decoded %d in %d batches", s.FramesDecoded, s.Batches)
	}
	if math.Abs(s.BatchFillMean-5.5) > 1e-9 {
		t.Errorf("fill mean %.2f, want 5.5", s.BatchFillMean)
	}
	if s.BatchFill[7] != 1 || s.BatchFill[2] != 1 {
		t.Errorf("fill histogram %v", s.BatchFill)
	}
	wantAvg := float64(8*18+3*10) / 11
	if math.Abs(s.AvgIterations-wantAvg) > 1e-9 {
		t.Errorf("avg iterations %.3f, want %.3f", s.AvgIterations, wantAvg)
	}
	if s.Workers[0].Frames != 8 || s.Workers[1].Frames != 3 {
		t.Errorf("worker stats %+v", s.Workers)
	}
	// The snapshot must be JSON-encodable for the /metrics endpoint.
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}
