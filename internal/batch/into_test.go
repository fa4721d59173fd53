package batch

import (
	"testing"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
)

// TestDecodeQIntoMatchesDecodeQ checks the caller-owned-result path
// against the shared-vector path on identical frames at the
// single-word geometry: same hard decisions, iterations and
// convergence, with the caller's vectors filled in place and decoder
// state never aliased.
func TestDecodeQIntoMatchesDecodeQ(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	a, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, nf := range []int{1, 3, Lanes} {
		qs := make([][]int16, nf)
		for f := range qs {
			qs[f] = noisyQ(t, c, p.Format, 3.0, uint64(100*nf+f))
		}
		want, err := a.DecodeQ(qs)
		if err != nil {
			t.Fatal(err)
		}
		// Odd frames get caller-owned vectors, even frames nil (allocated).
		res := make([]ldpc.Result, nf)
		owned := make([]*bitvec.Vector, nf)
		for f := 1; f < nf; f += 2 {
			owned[f] = bitvec.New(c.N)
			res[f].Bits = owned[f]
		}
		if err := b.DecodeQInto(res, qs); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < nf; f++ {
			if !res[f].Bits.Equal(want[f].Bits) {
				t.Errorf("nf=%d frame %d: hard decision differs from DecodeQ", nf, f)
			}
			if res[f].Iterations != want[f].Iterations || res[f].Converged != want[f].Converged {
				t.Errorf("nf=%d frame %d: (%d,%v) vs DecodeQ (%d,%v)", nf, f,
					res[f].Iterations, res[f].Converged, want[f].Iterations, want[f].Converged)
			}
			if owned[f] != nil && res[f].Bits != owned[f] {
				t.Errorf("nf=%d frame %d: caller-owned vector replaced", nf, f)
			}
			for g := range b.hard {
				if res[f].Bits == b.hard[g] {
					t.Errorf("nf=%d frame %d: result aliases decoder scratch", nf, f)
				}
			}
		}
	}
}

func TestDecodeQIntoValidation(t *testing.T) {
	c := smallCode(t)
	d, err := NewParallel(c, highSpeedParams(), ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := noisyQ(t, c, d.Params().Format, 3.0, 7)
	if err := d.DecodeQInto(make([]ldpc.Result, 2), [][]int16{q}); err == nil {
		t.Error("mismatched res length accepted")
	}
	bad := []ldpc.Result{{Bits: bitvec.New(c.N - 1)}}
	if err := d.DecodeQInto(bad, [][]int16{q}); err == nil {
		t.Error("wrong-length bit vector accepted")
	}
	if err := d.DecodeQInto(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestDecodeQIntoZeroAlloc verifies the hot path a serve worker relies
// on: with caller-provided vectors, a single-word decode allocates
// nothing.
func TestDecodeQIntoZeroAlloc(t *testing.T) {
	skipUnderFuzzEngine(t)
	c := smallCode(t)
	p := highSpeedParams()
	d, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	qs := make([][]int16, Lanes)
	res := make([]ldpc.Result, Lanes)
	for f := range qs {
		qs[f] = noisyQ(t, c, p.Format, 3.0, uint64(f))
		res[f].Bits = bitvec.New(c.N)
	}
	allocs := bestAllocs(func() {
		if err := d.DecodeQInto(res, qs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeQInto allocates %.1f objects per call, want 0", allocs)
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	a, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewParallel(c, p, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	llrs := make([][]float64, 3)
	for f := range llrs {
		q := noisyQ(t, c, p.Format, 3.0, uint64(40+f))
		llrs[f] = make([]float64, len(q))
		for j, v := range q {
			llrs[f][j] = p.Format.Value(v)
		}
	}
	want, err := a.Decode(llrs)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]ldpc.Result, len(llrs))
	if err := b.DecodeInto(res, llrs); err != nil {
		t.Fatal(err)
	}
	for f := range res {
		if !res[f].Bits.Equal(want[f].Bits) || res[f].Iterations != want[f].Iterations || res[f].Converged != want[f].Converged {
			t.Errorf("frame %d: DecodeInto differs from Decode", f)
		}
	}
}
