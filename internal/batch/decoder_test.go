package batch

import (
	"fmt"
	"testing"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/rng"
)

func smallCode(t testing.TB) *code.Code {
	t.Helper()
	c, err := code.SmallTestCode(2, 4, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func highSpeedParams() fixed.Params {
	return fixed.DefaultHighSpeedParams() // Q(5,1), ×3/2^2, 18 iterations
}

// noisyQ produces one deterministic noisy random-codeword frame,
// quantized to the given format.
func noisyQ(t testing.TB, c *code.Code, f fixed.Format, ebn0 float64, seed uint64) []int16 {
	t.Helper()
	ch, err := channel.NewAWGN(ebn0, c.Rate())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	info := bitvec.New(c.K)
	for i := 0; i < c.K; i++ {
		if r.Bool() {
			info.Set(i)
		}
	}
	cw := c.Encode(info)
	return f.QuantizeSlice(nil, ch.CorruptCodeword(cw, r))
}

// checkLanes decodes qs through fixed.Decoder frame by frame and
// through a Parallel decoder of geometry cfg in calls of up to its
// capacity, and requires identical hard decisions, iteration counts
// and convergence flags per frame. A non-nil inj perturbs both
// decoders: lane k of its address space is frame k of each call.
func checkLanes(t *testing.T, g *ldpc.Graph, cfg ParallelConfig, p fixed.Params, qs [][]int16, inj fixed.Injector) {
	t.Helper()
	scalar, err := fixed.NewDecoderGraph(g, p)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewParallelGraph(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	cap := pd.Capacity()
	for base := 0; base < len(qs); base += cap {
		batch := qs[base:min(base+cap, len(qs))]
		if inj != nil {
			pd.SetInjector(inj)
		}
		got, err := pd.DecodeQ(batch)
		pd.SetInjector(nil)
		if err != nil {
			t.Fatal(err)
		}
		for f, q := range batch {
			if inj != nil {
				scalar.SetInjector(inj, f)
			}
			want := scalar.DecodeQ(q)
			if !got[f].Bits.Equal(want.Bits) {
				t.Fatalf("%+v frame %d: hard decision diverges from fixed", cfg, base+f)
			}
			if got[f].Iterations != want.Iterations || got[f].Converged != want.Converged {
				t.Fatalf("%+v frame %d: (it=%d conv=%v) vs fixed (it=%d conv=%v)",
					cfg, base+f, got[f].Iterations, got[f].Converged, want.Iterations, want.Converged)
			}
		}
	}
}

// crossCheck draws frames noisy random codewords of c at ebn0 and
// checks them lane for lane against fixed.Decoder at geometry cfg.
func crossCheck(t *testing.T, c *code.Code, cfg ParallelConfig, p fixed.Params, ebn0 float64, frames int, seedBase uint64) {
	t.Helper()
	qs := make([][]int16, frames)
	for f := range qs {
		qs[f] = noisyQ(t, c, p.Format, ebn0, seedBase+uint64(f))
	}
	checkLanes(t, ldpc.NewGraph(c), cfg, p, qs, nil)
}

// TestCrossCheckFixedQ51SmallCode drives noisy frames spanning
// converged, non-converged and erroneous decodes through the
// single-word geometry.
func TestCrossCheckFixedQ51SmallCode(t *testing.T) {
	c := smallCode(t)
	for _, ebn0 := range []float64{2.0, 3.5, 5.0} {
		crossCheck(t, c, ParallelConfig{}, highSpeedParams(), ebn0, 64, uint64(1000*ebn0))
	}
}

// TestCrossCheckFixedQ51CCSDS is the acceptance cross-check: ≥100
// random noisy frames on the full (8176, 7156) code, deterministic
// seeds, bit-identical hard decisions.
func TestCrossCheckFixedQ51CCSDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-code cross-check skipped in -short")
	}
	c, err := code.CCSDS()
	if err != nil {
		t.Fatal(err)
	}
	crossCheck(t, c, ParallelConfig{}, highSpeedParams(), 4.2, 104, 7)
}

// TestCrossCheckDisableEarlyStop exercises the fixed-latency schedule:
// all iterations run, per-lane convergence read from the final
// syndrome.
func TestCrossCheckDisableEarlyStop(t *testing.T) {
	p := highSpeedParams()
	p.MaxIterations = 6
	p.DisableEarlyStop = true
	crossCheck(t, smallCode(t), ParallelConfig{}, p, 3.0, 40, 99)
}

// TestPartialBatches checks the tail path: every batch width 1..Lanes
// must agree with the scalar decoder.
func TestPartialBatches(t *testing.T) {
	c := smallCode(t)
	for nf := 1; nf <= Lanes; nf++ {
		crossCheck(t, c, ParallelConfig{}, highSpeedParams(), 3.0, nf, uint64(500+nf*Lanes))
	}
}

// TestLaneIndependence: a frame must decode identically whether it
// shares the word with 7 other frames or rides alone.
func TestLaneIndependence(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	packed, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	qs := make([][]int16, Lanes)
	for f := range qs {
		qs[f] = noisyQ(t, c, p.Format, 2.5, uint64(7000+f))
	}
	together, err := packed.DecodeQ(qs)
	if err != nil {
		t.Fatal(err)
	}
	// Clone: result bit vectors are reused across calls.
	saved := make([]*bitvec.Vector, Lanes)
	iters := make([]int, Lanes)
	for f, r := range together {
		saved[f] = r.Bits.Clone()
		iters[f] = r.Iterations
	}
	for f := 0; f < Lanes; f++ {
		alone, err := packed.DecodeQ(qs[f : f+1])
		if err != nil {
			t.Fatal(err)
		}
		if !alone[0].Bits.Equal(saved[f]) || alone[0].Iterations != iters[f] {
			t.Fatalf("lane %d decodes differently alone", f)
		}
	}
}

// TestFloatDecodeMatchesQuantizePlusDecodeQ pins Decode to the
// quantize-then-DecodeQ composition (the same contract fixed.Decode
// has).
func TestFloatDecodeMatchesQuantizePlusDecodeQ(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	packed, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	ch, err := channel.NewAWGN(3.0, c.Rate())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	llrs := make([][]float64, 3)
	qs := make([][]int16, 3)
	for f := range llrs {
		llrs[f] = ch.CorruptCodeword(bitvec.New(c.N), r)
		qs[f] = p.Format.QuantizeSlice(nil, llrs[f])
	}
	a, err := packed.Decode(llrs)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]*bitvec.Vector, len(a))
	for f, res := range a {
		first[f] = res.Bits.Clone()
	}
	b, err := packed.DecodeQ(qs)
	if err != nil {
		t.Fatal(err)
	}
	for f := range b {
		if !b[f].Bits.Equal(first[f]) {
			t.Fatalf("frame %d: Decode and DecodeQ disagree", f)
		}
	}
}

func TestConstructorRejectsWideFormats(t *testing.T) {
	c := smallCode(t)
	if _, err := NewParallel(c, fixed.DefaultLowCostParams(), ParallelConfig{}); err == nil {
		t.Fatal("Q(6,2) must not fit int8 lanes on a column-weight-4 code")
	}
	p := highSpeedParams()
	p.MaxIterations = 0
	if _, err := NewParallel(c, p, ParallelConfig{}); err == nil {
		t.Fatal("MaxIterations 0 accepted")
	}
}

func TestDecodeArgumentErrors(t *testing.T) {
	c := smallCode(t)
	d, err := NewParallel(c, highSpeedParams(), ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.DecodeQ(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := d.DecodeQ(make([][]int16, Lanes+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := d.DecodeQ([][]int16{make([]int16, c.N-1)}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := d.Decode([][]float64{make([]float64, c.N+1)}); err == nil {
		t.Fatal("long float frame accepted")
	}
}

// TestAllZeroConvergesImmediately: the all-zero word satisfies every
// check, so every lane must converge in one iteration with zero-error
// hard decisions.
func TestAllZeroConvergesImmediately(t *testing.T) {
	c := smallCode(t)
	d, err := NewParallel(c, highSpeedParams(), ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	max := highSpeedParams().Format.Max()
	qs := make([][]int16, Lanes)
	for f := range qs {
		qs[f] = make([]int16, c.N)
		for j := range qs[f] {
			qs[f][j] = max // strongly favour bit 0 everywhere
		}
	}
	res, err := d.DecodeQ(qs)
	if err != nil {
		t.Fatal(err)
	}
	for f, r := range res {
		if !r.Converged || r.Iterations != 1 || r.Bits.PopCount() != 0 {
			t.Fatalf("lane %d: conv %v iters %d weight %d", f, r.Converged, r.Iterations, r.Bits.PopCount())
		}
	}
}

func ExampleParallel_DecodeQ() {
	c, _ := code.SmallTestCode(2, 4, 31, 1)
	d, _ := NewParallel(c, fixed.DefaultHighSpeedParams(), ParallelConfig{})
	defer d.Close()
	frames := make([][]int16, d.Capacity())
	for f := range frames {
		frames[f] = make([]int16, c.N) // all-erasure input per frame
	}
	res, _ := d.DecodeQ(frames)
	fmt.Println(len(res), "frames per packed decode")
	// Output: 8 frames per packed decode
}
