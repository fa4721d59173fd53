//go:build amd64 && !purego

package batch

import "testing"

// TestAsmBlocksBounded checks the node blocks the AVX2 wrappers hand
// the assembly: they tile a range exactly, in order, and each stays
// within asmEdgeWords, unless it is one node that alone exceeds it.
func TestAsmBlocksBounded(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		for _, side := range []struct {
			name string
			offs []int32
			n    int
		}{{"cn", g.CNOff, g.M}, {"bn", g.VNOff, g.N}} {
			for _, nsw := range []int{4, 8, 16, 32, 64} {
				blocks := 0
				for lo := 0; lo < side.n; blocks++ {
					end := blockEnd(side.offs, lo, side.n, nsw)
					if end <= lo || end > side.n {
						t.Fatalf("%s %s nsw=%d: block [%d, %d) of %d nodes", kg.name, side.name, nsw, lo, end, side.n)
					}
					if words := int(side.offs[end]-side.offs[lo]) * nsw; words > asmEdgeWords && end-lo > 1 {
						t.Fatalf("%s %s nsw=%d: block [%d, %d) is %d edge words, bound %d",
							kg.name, side.name, nsw, lo, end, words, asmEdgeWords)
					}
					lo = end
				}
				if kg.name == "c2" && nsw == 64 && blocks < 2 {
					t.Fatalf("c2 %s nsw=64: the whole range fit one block", side.name)
				}
			}
		}
	}
}
