//go:build amd64 && !purego

package batch

import "testing"

// TestAsmBlocksBounded checks the node blocks the AVX2 wrappers hand
// the assembly, for both strip widths at every nsw their lane widths
// reach: the blocks tile a range exactly, in order, and each stays
// within asmSteps strip-edge steps, unless it is one node that alone
// exceeds them.
func TestAsmBlocksBounded(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		for _, side := range []struct {
			name string
			offs []int32
			n    int
		}{{"cn", g.CNOff, g.M}, {"bn", g.VNOff, g.N}} {
			for _, set := range []*avx2Set{xmmSet, ymmSet} {
				for nsw := set.words; nsw <= 16*set.words; nsw *= 2 {
					strips := nsw / set.words
					blocks := 0
					for lo := 0; lo < side.n; blocks++ {
						end := blockEnd(side.offs, lo, side.n, strips)
						if end <= lo || end > side.n {
							t.Fatalf("%s %s nsw=%d: block [%d, %d) of %d nodes", kg.name, side.name, nsw, lo, end, side.n)
						}
						if steps := int(side.offs[end]-side.offs[lo]) * strips; steps > asmSteps && end-lo > 1 {
							t.Fatalf("%s %s %d-word nsw=%d: block [%d, %d) is %d strip-edge steps, bound %d",
								kg.name, side.name, set.words, nsw, lo, end, steps, asmSteps)
						}
						lo = end
					}
					if kg.name == "c2" && strips == 1 && blocks < 2 {
						t.Fatalf("c2 %s %d-word nsw=%d: the whole range fit one block", side.name, set.words, nsw)
					}
				}
			}
		}
	}
}
