//go:build amd64 && !purego

package batch

import "testing"

// TestAsmBlocksBounded checks the node blocks the AVX2 wrappers hand
// the assembly, in all four phases and for both strip widths at every
// nsw their lane widths reach. Recording bodies stand in for the
// assembly. The blocks must tile each range exactly, in order, and
// each must stay within asmSteps strip-edge steps, unless it is one
// node that alone exceeds them.
func TestAsmBlocksBounded(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		for _, set := range []*avx2Set{xmmSet, ymmSet} {
			// A body's node list is a re-slice offs[lo:end+1] of its
			// side's offset table, so its cap gives lo.
			var blocks [][]int32
			rec := &avx2Set{
				words: set.words,
				cnBody: func(_, _ []uint64, _, rows []int32, _ int, _, _, _ uint64) {
					blocks = append(blocks, rows)
				},
				cnFirstBody: func(_, _, _ []uint64, _, _, rows []int32, _ int, _, _, _ uint64) {
					blocks = append(blocks, rows)
				},
				bnBody: func(_, _, _, _ []uint64, _, cols []int32, _, _ int, _ uint64) {
					blocks = append(blocks, cols)
				},
				unsatBody: func(_, _ []uint64, _, rows []int32, _ int, _ []uint64) {
					blocks = append(blocks, rows)
				},
			}
			st := newStripState(g, highSpeedParams(), 16*set.words)
			out := make([]uint64, st.tw)
			for _, ph := range []struct {
				name string
				offs []int32
				run  func(lo, hi int)
			}{
				{"cnfirst", g.CNOff, func(lo, hi int) { rec.cnFirstAVX2(&st, lo, hi) }},
				{"cn", g.CNOff, func(lo, hi int) { rec.cnAVX2(&st, lo, hi) }},
				{"bn", g.VNOff, func(lo, hi int) { rec.bnAVX2(&st, lo, hi) }},
				{"unsat", g.CNOff, func(lo, hi int) { rec.unsatAVX2(&st, lo, hi, out) }},
			} {
				n := len(ph.offs) - 1
				for nsw := set.words; nsw <= st.tw; nsw *= 2 {
					st.nsw = nsw
					strips := nsw / set.words
					for _, r := range kernelRanges(n) {
						blocks = blocks[:0]
						ph.run(r[0], r[1])
						next := r[0]
						for _, b := range blocks {
							lo := len(ph.offs) - cap(b)
							end := lo + len(b) - 1
							if lo != next || end <= lo || end > r[1] {
								t.Fatalf("%s %s %d-word nsw=%d range %v: block [%d, %d) after node %d",
									kg.name, ph.name, set.words, nsw, r, lo, end, next)
							}
							if steps := int(b[len(b)-1]-b[0]) * strips; steps > asmSteps && end-lo > 1 {
								t.Fatalf("%s %s %d-word nsw=%d: block [%d, %d) is %d strip-edge steps, bound %d",
									kg.name, ph.name, set.words, nsw, lo, end, steps, asmSteps)
							}
							next = end
						}
						if next != r[1] {
							t.Fatalf("%s %s %d-word nsw=%d range %v: blocks end at node %d",
								kg.name, ph.name, set.words, nsw, r, next)
						}
						if kg.name == "c2" && strips == 1 && r[0] == 0 && r[1] == n && len(blocks) < 2 {
							t.Fatalf("c2 %s %d-word nsw=%d: the whole range fit one block", ph.name, set.words, nsw)
						}
					}
				}
			}
		}
	}
}
