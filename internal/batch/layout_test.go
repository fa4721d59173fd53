// Layout A/B bit-exactness: the circulant-run ("blocked") message
// layout must produce byte-for-byte the results of the identity
// ("indexed") layout, which stores canonical edge e at slot e, on every
// registry code — same hard decisions, iteration counts and convergence
// flags for the same frames. The package is external so it can reach
// the registry (which itself builds on batch).
package batch_test

import (
	"fmt"
	"testing"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
)

// abFrames draws nf quantized LLR frames in the format's range, with a
// sprinkling of zero (erased) positions standing in for punctured bits.
func abFrames(nf, n int, max int, seed uint64) [][]int16 {
	qs := make([][]int16, nf)
	for f := range qs {
		r := rng.New(seed + uint64(f)*0x9e3779b97f4a7c15)
		q := make([]int16, n)
		for j := range q {
			q[j] = int16(r.Intn(2*max+1) - max)
			if r.Intn(64) == 0 {
				q[j] = 0
			}
		}
		qs[f] = q
	}
	return qs
}

func TestBlockedMatchesIndexedRegistry(t *testing.T) {
	p := fixed.DefaultHighSpeedParams()
	geoms := []batch.ParallelConfig{
		{Shards: 1, SuperBatch: 1, LaneWidth: 4},
		{Shards: 3, SuperBatch: 2, LaneWidth: 8},
	}
	for _, name := range registry.Default().Names() {
		e, _ := registry.Default().ByName(name)
		built, err := e.Build()
		if err != nil {
			t.Fatal(name, err)
		}
		g := ldpc.NewGraph(built.Code)
		if g.QC == nil {
			t.Fatalf("%s: no QC layout, nothing to A/B", name)
		}
		bare := *g
		bare.QC = nil
		for gi, geom := range geoms {
			t.Run(fmt.Sprintf("%s/S%dW%dL%d", name, geom.Shards, geom.SuperBatch, geom.LaneWidth), func(t *testing.T) {
				decode := func(g *ldpc.Graph, identity bool) []ldpc.Result {
					d, err := batch.NewParallelGraph(g, p, geom)
					if err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					if got := batch.IdentityLayout(d); got != identity {
						t.Fatalf("identity layout %v, want %v", got, identity)
					}
					nf := d.Capacity()
					qs := abFrames(nf, g.N, int(p.Format.Max()), uint64(1000*gi+1))
					res := make([]ldpc.Result, nf)
					for f := range res {
						res[f].Bits = bitvec.New(g.N)
					}
					if err := d.DecodeQInto(res, qs); err != nil {
						t.Fatal(err)
					}
					return res
				}
				ind := decode(&bare, true)
				blk := decode(g, false)
				for f := range ind {
					if !ind[f].Bits.Equal(blk[f].Bits) {
						t.Fatalf("frame %d: hard decisions diverge", f)
					}
					if ind[f].Iterations != blk[f].Iterations || ind[f].Converged != blk[f].Converged {
						t.Fatalf("frame %d: indexed (it=%d conv=%v) vs blocked (it=%d conv=%v)",
							f, ind[f].Iterations, ind[f].Converged, blk[f].Iterations, blk[f].Converged)
					}
				}
			})
		}
	}
}
