package batch

import (
	"fmt"
	"testing"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// fuzzFrames returns nf frames of the small code, each a rotation of
// the fuzzed bytes by rot positions per frame, folded into the Q(5,1)
// range [-15, +15].
func fuzzFrames(n int, data []byte, nf, rot int) [][]int16 {
	qs := make([][]int16, nf)
	for ln := range qs {
		q := make([]int16, n)
		for j := range q {
			var b byte
			if len(data) > 0 {
				b = data[(j+ln*rot)%len(data)]
			}
			q[j] = int16(b%31) - 15
		}
		qs[ln] = q
	}
	return qs
}

// checkVsFixed requires every frame of got, a packed decode of qs, to
// match fd's scalar decode of it: hard decisions, iteration count and
// convergence flag.
func checkVsFixed(t *testing.T, label string, fd *fixed.Decoder, qs [][]int16, got []ldpc.Result) {
	t.Helper()
	for ln, q := range qs {
		want := fd.DecodeQ(q)
		if !got[ln].Bits.Equal(want.Bits) {
			t.Fatalf("%s frame %d/%d: hard decisions diverge from scalar decoder", label, ln, len(qs))
		}
		if got[ln].Iterations != want.Iterations || got[ln].Converged != want.Converged {
			t.Fatalf("%s frame %d/%d: packed (it=%d conv=%v) vs scalar (it=%d conv=%v)",
				label, ln, len(qs), got[ln].Iterations, got[ln].Converged, want.Iterations, want.Converged)
		}
	}
}

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
// multi-strip batches are all exercised. Each input decodes twice on
// one decoder: a full-capacity call, then the fuzzed partial call.
// Nothing clears the message and posterior words between calls, so the
// second call's frozen tail lanes start from the first call's words.
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
		pd, err := NewParallel(c, p, ParallelConfig{Shards: shards, SuperBatch: superBatch, LaneWidth: laneWidth})
		if err != nil {
			t.Fatal(err)
		}
		defer pd.Close()
		fd, err := fixed.NewDecoder(c, p)
		if err != nil {
			t.Fatal(err)
		}
		// The second call fills the super-batch's words minus a tail,
		// so its last word — and usually its last strip — is partial.
		capacity := pd.Capacity()
		for call, cl := range []struct{ nf, rot int }{{capacity, 13}, {capacity - int(iters)%Lanes, 7}} {
			qs := fuzzFrames(c.N, data, cl.nf, cl.rot)
			got, err := pd.DecodeQ(qs)
			if err != nil {
				t.Fatal(err)
			}
			checkVsFixed(t, fmt.Sprintf("S%dW%dL%d call %d, %d iters", shards, superBatch, laneWidth, call, p.MaxIterations), fd, qs, got)
		}
	})
}
