// Package ldpc implements message-passing decoders for LDPC codes over
// the Tanner graph of a parity-check matrix.
//
// The decoders are the ones the reproduced paper discusses: belief
// propagation (sum-product), min-sum, and the normalized ("sign-min")
// min-sum with the correction factor α of Chen & Fossorier — including
// the paper's fine-scaled per-iteration factor. Both the classical
// four-step flooding schedule (paper Section 2.1) and a layered schedule
// are provided.
//
// Message and LLR convention: LLR = log(P(bit=0)/P(bit=1)), so a
// positive value favours bit 0 and hard decision is bit = 1 iff the
// posterior is negative.
package ldpc

import (
	"fmt"

	"ccsdsldpc/internal/code"
)

// Graph is an edge-centric compressed representation of a Tanner graph.
// Edges are numbered row-major over the ones of H: the edges of check
// node i are the contiguous range [CNOff[i], CNOff[i+1]).
type Graph struct {
	N, M, E int
	// EdgeVN[e] is the variable node of edge e.
	EdgeVN []int32
	// CNOff[i]..CNOff[i+1] delimit the edges of check node i.
	CNOff []int32
	// VNOff[j]..VNOff[j+1] delimit VNEdges entries listing the edge ids
	// incident to variable node j.
	VNOff   []int32
	VNEdges []int32

	// QC is the circulant-run layout of the graph when the source code
	// is quasi-cyclic (nil otherwise). Decoders use it to store edge
	// messages run-major for sequential access on both graph walks; the
	// canonical edge numbering above stays the addressing contract for
	// everything observable (fault injection, tests, tools).
	QC *QCLayout
}

// NewGraph builds the Tanner graph of a constructed code.
func NewGraph(c *code.Code) *Graph {
	g := &Graph{N: c.N, M: c.M, E: c.NumEdges()}
	g.EdgeVN = make([]int32, 0, g.E)
	g.CNOff = make([]int32, g.M+1)
	deg := make([]int32, g.N)
	for i, idx := range c.RowIdx {
		g.CNOff[i] = int32(len(g.EdgeVN))
		for _, j := range idx {
			g.EdgeVN = append(g.EdgeVN, j)
			deg[j]++
		}
	}
	g.CNOff[g.M] = int32(len(g.EdgeVN))
	g.VNOff = make([]int32, g.N+1)
	for j := 0; j < g.N; j++ {
		g.VNOff[j+1] = g.VNOff[j] + deg[j]
	}
	g.VNEdges = make([]int32, g.E)
	fill := make([]int32, g.N)
	copy(fill, g.VNOff[:g.N])
	for e, j := range g.EdgeVN {
		g.VNEdges[fill[j]] = int32(e)
		fill[j]++
	}
	// Best effort: a code without a (consistent) circulant table simply
	// yields no QC layout, and decoders store edges in canonical order.
	if qc, err := NewQCLayout(c); err == nil {
		g.QC = qc
	}
	return g
}

// CNDegree returns the degree of check node i.
func (g *Graph) CNDegree(i int) int { return int(g.CNOff[i+1] - g.CNOff[i]) }

// VNDegree returns the degree of variable node j.
func (g *Graph) VNDegree(j int) int { return int(g.VNOff[j+1] - g.VNOff[j]) }

// Validate checks internal consistency; used by tests and by NewDecoder.
func (g *Graph) Validate() error {
	if int(g.CNOff[g.M]) != g.E || len(g.EdgeVN) != g.E || len(g.VNEdges) != g.E {
		return fmt.Errorf("ldpc: inconsistent edge counts")
	}
	seen := make([]bool, g.E)
	for j := 0; j < g.N; j++ {
		for k := g.VNOff[j]; k < g.VNOff[j+1]; k++ {
			e := g.VNEdges[k]
			if e < 0 || int(e) >= g.E {
				return fmt.Errorf("ldpc: VN %d references edge %d out of range", j, e)
			}
			if seen[e] {
				return fmt.Errorf("ldpc: edge %d referenced twice", e)
			}
			seen[e] = true
			if g.EdgeVN[e] != int32(j) {
				return fmt.Errorf("ldpc: edge %d belongs to VN %d, listed under %d", e, g.EdgeVN[e], j)
			}
		}
	}
	return nil
}
