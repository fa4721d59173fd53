package batch

import (
	"testing"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
)

// FuzzBatchVsFixed is the SWAR equivalence oracle under adversarial
// inputs: for arbitrary in-range 5-bit LLR vectors and iteration
// counts, every lane of a packed decode must be bit-exact — hard
// decisions, iteration count and convergence flag — against the scalar
// fixed-point reference decoding the same frame alone. Channel-derived
// tests only exercise plausible LLR patterns; the fuzzer feeds the
// all-zero, alternating-saturated and other degenerate words that
// stress the SWAR carry and sign handling.
//
// The decoder's (shards, superbatch, lanewidth) geometry is derived
// from the fuzz input, and the super-batch carries rotated copies of
// the fuzzed bytes, so partial tail words, multi-word strips and
// multi-strip batches are all exercised.
func FuzzBatchVsFixed(f *testing.F) {
	c, err := code.SmallTestCode(2, 4, 31, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, uint8(10), uint8(3))
	f.Add([]byte{0x00}, uint8(1), uint8(1))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00}, uint8(20), uint8(8))
	f.Add([]byte{0x0F, 0xF0, 0x55, 0xAA, 0x01}, uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, iters, lanes uint8) {
		p := fixed.DefaultHighSpeedParams()
		p.MaxIterations = 1 + int(iters)%25
		shards := 1 + int(iters)%5
		laneWidth := LaneWidths[(int(iters)+int(lanes))%len(LaneWidths)]
		superBatch := 1 + int(lanes)%4
		if superBatch*laneWidth > MaxSuperBatch {
			superBatch = MaxSuperBatch / laneWidth // bound the scalar replays
		}
		// Total frames fill the super-batch's words minus a tail, so the
		// last word — and usually the last strip — is partial.
		nf := superBatch*laneWidth*Lanes - int(iters)%Lanes
		qs := make([][]int16, nf)
		for ln := range qs {
			// Each frame is a rotation of the fuzzed bytes, folded into
			// the Q(5,1) range [-15, +15].
			q := make([]int16, c.N)
			for j := range q {
				var b byte
				if len(data) > 0 {
					b = data[(j+ln*7)%len(data)]
				}
				q[j] = int16(b%31) - 15
			}
			qs[ln] = q
		}

		pd, err := NewParallel(c, p, ParallelConfig{Shards: shards, SuperBatch: superBatch, LaneWidth: laneWidth})
		if err != nil {
			t.Fatal(err)
		}
		defer pd.Close()
		fd, err := fixed.NewDecoder(c, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pd.DecodeQ(qs)
		if err != nil {
			t.Fatal(err)
		}
		for ln := 0; ln < nf; ln++ {
			want := fd.DecodeQ(qs[ln])
			if !got[ln].Bits.Equal(want.Bits) {
				t.Fatalf("S%dW%dL%d frame %d/%d, %d iters: sharded hard decisions diverge from scalar decoder",
					shards, superBatch, laneWidth, ln, nf, p.MaxIterations)
			}
			if got[ln].Iterations != want.Iterations || got[ln].Converged != want.Converged {
				t.Fatalf("S%dW%dL%d frame %d/%d: sharded (it=%d conv=%v) vs scalar (it=%d conv=%v)",
					shards, superBatch, laneWidth, ln, nf, got[ln].Iterations, got[ln].Converged, want.Iterations, want.Converged)
			}
		}
	})
}
