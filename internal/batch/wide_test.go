package batch

import (
	"fmt"
	"testing"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// TestWideMatchesFixed is the wide-lane equivalence matrix: for every
// strip width, several (shards, superbatch) geometries — including
// partial tail strips — must stay lane-for-lane bit-exact against the
// scalar fixed-point decoder.
func TestWideMatchesFixed(t *testing.T) {
	for _, early := range []bool{true, false} {
		p := highSpeedParams()
		p.DisableEarlyStop = !early
		for _, lw := range []int{2, 4, 8} {
			for _, cfg := range []ParallelConfig{
				{Shards: 1, SuperBatch: 1, LaneWidth: lw},
				{Shards: 3, SuperBatch: 3, LaneWidth: lw},
				{Shards: 2, SuperBatch: 8, LaneWidth: lw},
			} {
				name := fmt.Sprintf("early=%v/S%dW%dL%d", early, cfg.Shards, cfg.SuperBatch, cfg.LaneWidth)
				t.Run(name, func(t *testing.T) {
					// A few frames short of capacity, so the last strip is
					// partial and the tail word has frozen lanes.
					frames := cfg.words()*Lanes - 5
					crossCheck(t, smallCode(t), cfg, p, 3.0, frames, uint64(7000+100*cfg.Shards+10*cfg.SuperBatch+lw))
				})
			}
		}
	}
}

// TestWideInvariantAcrossW is the strip-width invariance property: the
// same frame set decoded at every LaneWidth (with SuperBatch adjusted
// so the capacity matches) must produce identical hard decisions,
// iteration counts and convergence flags — W is a pure layout choice,
// never a numerical one.
func TestWideInvariantAcrossW(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	g := ldpc.NewGraph(c)
	for _, nf := range []int{64, 27} { // full capacity and a ragged tail
		t.Run(fmt.Sprintf("frames=%d", nf), func(t *testing.T) {
			qs := make([][]int16, nf)
			for f := range qs {
				qs[f] = noisyQ(t, c, p.Format, 2.5, uint64(900+f))
			}
			type outcome struct {
				bits []*bitvec.Vector
				res  []ldpc.Result
			}
			var ref *outcome
			refW := 0
			for _, lw := range LaneWidths {
				pd, err := NewParallelGraph(g, p, ParallelConfig{SuperBatch: MaxSuperBatch / lw, LaneWidth: lw})
				if err != nil {
					t.Fatal(err)
				}
				res := make([]ldpc.Result, nf)
				if err := pd.DecodeQInto(res, qs); err != nil {
					pd.Close()
					t.Fatal(err)
				}
				got := &outcome{res: res, bits: make([]*bitvec.Vector, nf)}
				for f := range res {
					got.bits[f] = res[f].Bits
				}
				pd.Close()
				if ref == nil {
					ref, refW = got, lw
					continue
				}
				for f := 0; f < nf; f++ {
					if !got.bits[f].Equal(ref.bits[f]) {
						t.Fatalf("frame %d: hard decisions differ between L%d and L%d", f, lw, refW)
					}
					if got.res[f].Iterations != ref.res[f].Iterations || got.res[f].Converged != ref.res[f].Converged {
						t.Fatalf("frame %d: L%d (it=%d conv=%v) vs L%d (it=%d conv=%v)",
							f, lw, got.res[f].Iterations, got.res[f].Converged,
							refW, ref.res[f].Iterations, ref.res[f].Converged)
					}
				}
			}
		})
	}
}

// TestLaneWidthValidation pins the LaneWidth contract: only 1, 2, 4, 8
// (or 0, defaulting to 1) construct; everything else errors before any
// goroutine is spawned.
func TestLaneWidthValidation(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	for _, lw := range []int{-1, 3, 5, 6, 7, 9, 16} {
		if _, err := NewParallel(c, p, ParallelConfig{LaneWidth: lw}); err == nil {
			t.Errorf("LaneWidth %d: want a construction error", lw)
		}
	}
	pd, err := NewParallel(c, p, ParallelConfig{LaneWidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	if got := pd.Config().LaneWidth; got != 1 {
		t.Errorf("LaneWidth 0 resolves to %d, want 1", got)
	}
	if got := pd.Capacity(); got != Lanes {
		t.Errorf("default capacity %d, want %d", got, Lanes)
	}
	wide, err := NewParallel(c, p, ParallelConfig{SuperBatch: 8, LaneWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	if got := wide.Capacity(); got != MaxFrames {
		t.Errorf("maximal capacity %d, want %d", got, MaxFrames)
	}
}

// TestEightWordBindingAliasesFour pins the kernelsFor(8) aliasing
// contract: LaneWidth 8 dispatches the [4]uint64 kernel instantiation
// for register-pressure reasons, which is only legal if the [8]uint64
// instantiation computes the identical result over the same words.
// This test force-binds the [8]uint64 kernels into a LaneWidth-8
// decoder and diffs every frame against the default binding, so the
// aliasing can never silently diverge from the code it stands in for.
func TestEightWordBindingAliasesFour(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	g := ldpc.NewGraph(c)
	cfg := ParallelConfig{SuperBatch: 1, LaneWidth: 8}
	nf := cfg.words()*Lanes - 5 // partial tail word
	qs := make([][]int16, nf)
	for f := range qs {
		qs[f] = noisyQ(t, c, p.Format, 2.5, uint64(1700+f))
	}
	decode := func(force8 bool) []ldpc.Result {
		pd, err := NewParallelGraph(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pd.Close()
		if force8 {
			pd.kern = bindKernels[[8]uint64]()
		}
		res := make([]ldpc.Result, nf)
		for f := range res {
			res[f].Bits = bitvec.New(c.N)
		}
		if err := pd.DecodeQInto(res, qs); err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, wide := decode(false), decode(true)
	for f := 0; f < nf; f++ {
		if !def[f].Bits.Equal(wide[f].Bits) {
			t.Fatalf("frame %d: [8]uint64 binding diverges from the default in hard decisions", f)
		}
		if def[f].Iterations != wide[f].Iterations || def[f].Converged != wide[f].Converged {
			t.Fatalf("frame %d: default (it=%d conv=%v) vs [8]uint64 (it=%d conv=%v)",
				f, def[f].Iterations, def[f].Converged, wide[f].Iterations, wide[f].Converged)
		}
	}
}

// FuzzWideVsFixed is the wide-lane fuzz oracle: the fuzzed frame set is
// decoded at two strip widths derived from the input and checked
// lane-for-lane against the scalar fixed-point decoder — which also
// pins the two widths to each other. Partial strips and ragged tail
// words come from the fuzzed frame count.
func FuzzWideVsFixed(f *testing.F) {
	c, err := code.SmallTestCode(2, 4, 31, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, uint8(10), uint8(3))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F}, uint8(20), uint8(60))
	f.Add([]byte{0x0F, 0xF0, 0x55, 0xAA, 0x01}, uint8(5), uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, iters, frames uint8) {
		p := fixed.DefaultHighSpeedParams()
		p.MaxIterations = 1 + int(iters)%25
		wa := LaneWidths[int(iters)%len(LaneWidths)]
		wb := LaneWidths[int(frames)%len(LaneWidths)]
		// Capacity 64 at every width, so both geometries carry the same
		// frame set with different strip shapes.
		ca, err := NewParallel(c, p, ParallelConfig{Shards: 1 + int(frames)%3, SuperBatch: MaxSuperBatch / wa, LaneWidth: wa})
		if err != nil {
			t.Fatal(err)
		}
		defer ca.Close()
		cb, err := NewParallel(c, p, ParallelConfig{Shards: 1 + int(iters)%2, SuperBatch: MaxSuperBatch / wb, LaneWidth: wb})
		if err != nil {
			t.Fatal(err)
		}
		defer cb.Close()
		fd, err := fixed.NewDecoder(c, p)
		if err != nil {
			t.Fatal(err)
		}
		nf := 1 + int(frames)%64
		qs := make([][]int16, nf)
		for ln := range qs {
			q := make([]int16, c.N)
			for j := range q {
				var b byte
				if len(data) > 0 {
					b = data[(j+ln*11)%len(data)]
				}
				q[j] = int16(b%31) - 15
			}
			qs[ln] = q
		}
		ga, err := ca.DecodeQ(qs)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := cb.DecodeQ(qs)
		if err != nil {
			t.Fatal(err)
		}
		for ln := 0; ln < nf; ln++ {
			want := fd.DecodeQ(qs[ln])
			for _, g := range []struct {
				w   int
				res ldpc.Result
			}{{wa, ga[ln]}, {wb, gb[ln]}} {
				if !g.res.Bits.Equal(want.Bits) {
					t.Fatalf("L%d frame %d/%d, %d iters: hard decisions diverge from scalar decoder",
						g.w, ln, nf, p.MaxIterations)
				}
				if g.res.Iterations != want.Iterations || g.res.Converged != want.Converged {
					t.Fatalf("L%d frame %d/%d: wide (it=%d conv=%v) vs scalar (it=%d conv=%v)",
						g.w, ln, nf, g.res.Iterations, g.res.Converged, want.Iterations, want.Converged)
				}
			}
		}
	})
}
