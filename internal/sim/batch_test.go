package sim

import (
	"testing"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// TestBatchPathMatchesScalarStatistics: because batch.Parallel is
// bit-compatible with fixed.Decoder lane by lane and every frame is a
// pure function of (seed, index), an exhaustive MaxFrames-bounded run
// must produce identical counts through the scalar and the packed
// paths, for full and tail batches alike.
func TestBatchPathMatchesScalarStatistics(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	base := Config{
		Code:           c,
		MinFrameErrors: 1 << 30, // never stop on errors: simulate exactly MaxFrames
		MaxFrames:      100,     // not a multiple of 8: exercises the tail batch
		Workers:        3,
		Seed:           5,
	}
	scalarCfg := base
	scalarCfg.NewDecoder = func() (FrameDecoder, error) {
		return fixed.NewDecoder(c, p)
	}
	want, err := RunPoint(scalarCfg, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if want.Frames != 100 {
		t.Fatalf("scalar run simulated %d frames, want 100", want.Frames)
	}
	if want.FrameErrors == 0 || want.FrameErrors == want.Frames {
		t.Fatalf("operating point degenerate: %d/%d frame errors", want.FrameErrors, want.Frames)
	}
	for _, bs := range []int{2, 8} {
		batchCfg := base
		batchCfg.BatchSize = bs
		batchCfg.NewBatchDecoder = func() (BatchDecoder, error) {
			return batch.NewParallel(c, p, batch.ParallelConfig{})
		}
		got, err := RunPoint(batchCfg, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		if got.Frames != want.Frames ||
			got.FrameErrors != want.FrameErrors ||
			got.InfoBitErrors != want.InfoBitErrors ||
			got.CodeBitErrors != want.CodeBitErrors ||
			got.Converged != want.Converged ||
			got.TotalIterations != want.TotalIterations {
			t.Fatalf("BatchSize %d: %+v != scalar %+v", bs, got, want)
		}
	}
}

// TestBatchConfigValidation: BatchSize > 1 needs a batch factory.
func TestBatchConfigValidation(t *testing.T) {
	c := smallCode(t)
	cfg := Config{Code: c, BatchSize: 8, NewDecoder: nmsFactory(c, 10)}
	if _, err := RunPoint(cfg, 3.0); err == nil {
		t.Fatal("BatchSize without NewBatchDecoder accepted")
	}
}

// TestBatchRandomData drives the encoder through the batched path.
func TestBatchRandomData(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	cfg := Config{
		Code:       c,
		BatchSize:  batch.Lanes,
		RandomData: true,
		NewBatchDecoder: func() (BatchDecoder, error) {
			return batch.NewParallel(c, p, batch.ParallelConfig{})
		},
		MinFrameErrors: 5,
		MaxFrames:      400,
		Workers:        2,
		Seed:           9,
	}
	pt, err := RunPoint(cfg, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Frames == 0 || pt.InfoBits != pt.Frames*int64(c.K) {
		t.Fatalf("bad point %+v", pt)
	}
}

var _ BatchDecoder = (*batch.Parallel)(nil)
var _ FrameDecoder = (*ldpc.Decoder)(nil)
