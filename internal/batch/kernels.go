package batch

import (
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// This file holds the strip-generic decode kernels Parallel
// instantiates at its configured LaneWidth. Each kernel advances whole
// strips of packed words per graph step; the arithmetic per (word,
// node) is exactly the single-word SWAR loop body, so every lane stays
// bit-compatible with internal/fixed regardless of strip width.

// stripState is the decoder state a strip kernel operates on. Parallel
// embeds one; the kernels are free functions over it so a single
// generic body serves every strip width.
//
// The message memory is one word per edge, as in the paper's banked
// message memory: the check-node phase reads each edge's v→c word and
// overwrites it with the c→v word, and the bit-node phase does the
// reverse. Nothing seeds or clears it between decodes: the first
// iteration's check-node pass (stripKernels.cnFirst) reads its v→c words,
// the channel words, straight from qw. Lanes frozen at iteration 0 —
// the tail lanes of a partial word and the padding words — keep
// whatever the previous decode left in msg and postw. That is safe:
// every message word always holds lanes in ±Max (zero from make, a
// check-node output or a clamped bit-node output), and qw holds
// saturated channel lanes, so the SWAR precondition of no −128 lanes
// holds for lanes nobody reads, and their results are masked
// everywhere observable.
type stripState struct {
	g *ldpc.Graph

	// tw is the bank stride: each edge (or bit node) owns tw
	// consecutive packed words. nsw is the number of live words this
	// decode, rounded up to a whole number of strips; padding words in
	// [nw, nsw) are fully frozen from the start and never observed.
	tw  int
	nsw int

	qw    []uint64 // channel LLRs, per VN (bank-major)
	msg   []uint64 // edge messages: v→c before a CN pass, c→v after it
	postw []uint64 // posteriors, per VN

	// done[w] holds 0xFF in every frozen lane of word w.
	done []uint64

	// Offset tables of the circulant-run layout. The packed words of
	// canonical edge e live at [cnOff[e], cnOff[e]+tw) — the run-major
	// slot of ldpc.QCLayout times tw, or e·tw on a graph without a
	// circulant table. The adjacency is flattened CSR-style with the
	// word offsets precomputed, hoisting every multiply out of the
	// inner loops:
	//
	//	cnOff[e]  message words of canonical edge e (check-order walk)
	//	bnOff[kk] message words of edge VNEdges[kk] (bit-order walk)
	//	vnOff[e]  channel/posterior words of edge e's bit node
	cnOff []int32
	bnOff []int32
	vnOff []int32

	// The largest check and bit degrees, which bound the work of a
	// node range for the assembly's block cuts.
	maxCN, maxVN int

	// Precomputed lane constants of the scale and the format range.
	num       uint64
	shift     uint
	shiftMask uint64
	maxVec    uint64
}

// newStripState allocates the packed message state and the offset
// tables for tw words per bank index.
//
// Storing edge messages at their circulant-run slot QC.Perm[e] makes
// both graph walks advance a handful of sequential streams — one per
// circulant run of the block row (CN) or column block (BN) — instead
// of gathering at a ~rowweight·tw-word stride, while every kernel
// still visits edges in the canonical order, so the arithmetic (and
// with it every rounding, saturation and min tie-break) is untouched.
// A graph without a circulant table gets the identity layout: slot e
// for edge e, through the same tables.
func newStripState(g *ldpc.Graph, p fixed.Params, tw int) stripState {
	st := stripState{
		g:      g,
		tw:     tw,
		qw:     make([]uint64, g.N*tw),
		msg:    make([]uint64, g.E*tw),
		postw:  make([]uint64, g.N*tw),
		done:   make([]uint64, tw),
		cnOff:  make([]int32, g.E),
		bnOff:  make([]int32, g.E),
		vnOff:  make([]int32, g.E),
		maxCN:  maxDegree(g.CNOff),
		maxVN:  maxDegree(g.VNOff),
		maxVec: broadcast8(uint8(p.Format.Max())),
	}
	st.setScale(p.Scale)
	var perm []int32
	if g.QC != nil {
		perm = g.QC.Perm
	}
	w := int32(tw)
	for e := range st.cnOff {
		slot := int32(e)
		if perm != nil {
			slot = perm[e]
		}
		st.cnOff[e] = slot * w
		st.vnOff[e] = g.EdgeVN[e] * w
	}
	for kk, e := range g.VNEdges {
		st.bnOff[kk] = st.cnOff[e]
	}
	return st
}

// maxDegree returns the largest node degree of a CSR offset table.
func maxDegree(offs []int32) int {
	d := int32(0)
	for k := 1; k < len(offs); k++ {
		d = max(d, offs[k]-offs[k-1])
	}
	return int(d)
}

// setScale sets the lane constants of the check-node scale.
func (st *stripState) setScale(s fixed.Scale) {
	st.num = uint64(s.Num)
	st.shift = uint(s.Shift)
	st.shiftMask = broadcast8(0xFF >> uint(s.Shift))
}

// stripKernels binds one strip width's kernel instantiations, chosen
// once at decoder construction so the decode loop pays a plain
// indirect call instead of a per-phase switch. cnFirst is the first
// iteration's check-node pass, and cn every later one.
type stripKernels struct {
	cnFirst func(st *stripState, ilo, ihi int)
	cn      func(st *stripState, ilo, ihi int)
	bn      func(st *stripState, jlo, jhi int)
	unsat   func(st *stripState, ilo, ihi int, out []uint64)
}

func bindKernels[S strip]() stripKernels {
	return stripKernels{cnFirst: cnFirstBlockedStrips[S], cn: cnBlockedStrips[S], bn: bnBlockedStrips[S], unsat: unsatBlockedStrips[S]}
}

// kernelsFor returns the kernel set for a validated lane width.
//
// On a CPU with AVX2 (amd64, detected once at package init; the purego
// build tag opts out) every width runs the assembly of
// kernels_amd64.s: widths 1 and 2 the one-word strip, the paper's
// 8-frame word in one XMM register, and widths 4 and 8 the 4-word
// strip in one YMM register. Elsewhere widths 1 and 2 run the generic
// [1]uint64 and [2]uint64 instantiations and widths 4 and 8 the
// [4]uint64 one; those stay the oracle the assembly is diffed against
// (kernels_test.go). The platform makes the choice; nothing
// configures it.
//
// Width 8 always binds a 4-word strip, and width 2 the one-word strip
// where the assembly runs: the kernels only see tw and nsw, and an nsw
// rounded to 8 (or 2) words is also a whole number of 4-word (or
// one-word) strips, so the result is identical to the [8]uint64 (or
// [2]uint64) instantiation's (TestEightWordBindingAliasesFour). The [8]uint64
// body keeps ~5 eight-word accumulators live and can spill on machines
// without 32 wide registers, and AVX2 holds 4 words per register. The
// 2- and 8-word layouts (their frame capacities) are kept either way.
func kernelsFor(w int) stripKernels {
	if k, ok := simdKernels(w); ok {
		return k
	}
	return genericFor(w)
}

// genericFor returns the generic Go kernel set for a validated lane
// width.
func genericFor(w int) stripKernels {
	switch w {
	case 1:
		return bindKernels[[1]uint64]()
	case 2:
		return bindKernels[[2]uint64]()
	case 4, 8:
		return bindKernels[[4]uint64]()
	}
	// Construction validates via ValidLaneWidth; unreachable after that.
	panic("batch: unsupported lane width")
}

// --- blocked (circulant-run) kernels ----------------------------------
//
// The kernels visit edges in the canonical order of ldpc.Graph and
// produce, at every step of every iteration, the lane values of the
// scalar min-sum recurrence in internal/fixed — the bit-exactness
// contract — while shaping the memory traffic and the lane arithmetic
// in three compounding ways:
//
//  1. Layout: edge e's words live at cnOff[e] (its circulant-run slot
//     of ldpc.QCLayout times tw), found via one precomputed int32 load
//     instead of an index gather plus multiply. Run-major storage
//     keeps the B edges of a circulant shift consecutive, so the
//     check-node walk advances one sequential stream per run of the
//     block row and the bit-node walk one stream per run of the column
//     block (one wrap at the cyclic shift), where canonical storage
//     would gather at a ~rowweight·tw-word stride.
//  2. Bounds checks: the re-slice-to-strip pattern (`x[base:][:K]`,
//     with K a per-instantiation constant) pays one slice check per
//     edge strip and makes every per-word load and store inside
//     bounds-check-free (verified with -d=ssa/check_bce; see
//     EXPERIMENTS.md E-kernels).
//  3. Arithmetic strength: the check-node min1/min2 chain runs on the
//     *Pos8 helper forms — legal because magnitudes and edge indices
//     are bit-7-clear in every lane — and the scaled magnitudes
//     min1·Num≫Shift and min2·Num≫Shift are computed once per strip
//     instead of once per edge word (legal because pass 2 only ever
//     emits one of those two values per lane). Both transformations
//     preserve exact lane values, so the freeze masks, iteration
//     counts and fault-injection trajectories stay identical.

// cnBlockedStrips runs the packed check-node update (paper equation
// (2)) on a check-node range, one strip of words at a time: per lane,
// the sign product and scaled min of the other inputs via the
// min1/min2 trick. It reads each edge's v→c word from msg and
// overwrites it with the edge's c→v word.
func cnBlockedStrips[S strip](st *stripState, ilo, ihi int) {
	cnStrips[S](st, ilo, ihi, st.msg, st.cnOff)
}

// cnFirstBlockedStrips is the first iteration's check-node pass. At
// iteration 0 the v→c word of edge e is the channel word of its bit
// node, so it reads qw through vnOff where cnBlockedStrips reads msg
// through cnOff, and nothing needs to seed the message memory.
func cnFirstBlockedStrips[S strip](st *stripState, ilo, ihi int) {
	cnStrips[S](st, ilo, ihi, st.qw, st.vnOff)
}

// cnStrips is the body of both check-node passes: the v→c words of
// edge e are at in[inOff[e]:], and its c→v words go to msg[cnOff[e]:].
// The edges of check i stay the canonical contiguous range
// [CNOff[i], CNOff[i+1]); their message words advance one sequential
// stream per circulant run of the block row. A strip whose lanes are
// all frozen is skipped; frozen lanes inside a live strip keep their
// message words through the done-mask blend, and the bit-node pass
// blends them back in the same way, which freezes the whole lane
// trajectory.
//
// The min1/min2 recurrence tracks the strict minimum — lt is a strict
// compare, so the first edge attaining the minimum keeps minIdx, as in
// internal/fixed — around a single compare per edge word: the round's
// loser (the larger of m and the old min1) is what competes for min2,
// which equals min(min2, m) because min1 ≤ min2 holds inductively.
func cnStrips[S strip](st *stripState, ilo, ihi int, in []uint64, inOff []int32) {
	g, nsw := st.g, st.nsw
	msg, done := st.msg, st.done
	cnOff := st.cnOff
	num, shift, shiftMask := st.num, st.shift, st.shiftMask
	K := stripLen[S]()
	for i := ilo; i < ihi; i++ {
		elo, ehi := g.CNOff[i], g.CNOff[i+1]
		rd := inOff[elo:ehi]
		wr := cnOff[elo:ehi][:len(rd)]
		for sb := 0; sb < nsw; sb += K {
			dw := done[sb:][:K]
			var dn S
			frozen := ^uint64(0)
			anyDone := uint64(0)
			for k := 0; k < K; k++ {
				dn[k] = dw[k]
				frozen &= dn[k]
				anyDone |= dn[k]
			}
			if frozen == ^uint64(0) {
				continue
			}
			// Pass 1: per-lane sign parity, min1, min2 and min1's position.
			var signAcc, minIdx, min1, min2 S
			for k := 0; k < K; k++ {
				min1[k] = ^laneMSB // +127 in every lane: above any magnitude
				min2[k] = ^laneMSB
			}
			idx := uint64(0)
			for _, e := range rd {
				eb := int(e) + sb
				for k := 0; k < K; k++ {
					x := in[eb+k]
					t := x & laneMSB
					signAcc[k] ^= t
					n := t >> 7
					s := n * 0xFF
					// |x| in 3 ops: conditional two's-complement negate.
					// Lane sums stay ≤ 0x7F (no −128 inputs), so the plain
					// add cannot carry across lanes.
					m := (x ^ s) + n
					lt := ltPos8(m, min1[k])
					hi := blend8(m, min1[k], lt)
					min1[k] = blend8(min1[k], m, lt)
					minIdx[k] = blend8(minIdx[k], idx, lt)
					min2[k] = minPos8(min2[k], hi)
				}
				idx += laneLSB
			}
			// The only four values pass 2 can emit, computed once per
			// strip: ±min1·Num≫Shift and ±min2·Num≫Shift. After scanning
			// a degree-≥2 check, min1 and min2 are true message magnitudes
			// (≤ Format.Max), so the lane products stay within a byte
			// exactly as in the per-edge computation.
			var v1, v2, n1, n2 S
			for k := 0; k < K; k++ {
				v1[k] = min1[k] * num >> shift & shiftMask
				v2[k] = min2[k] * num >> shift & shiftMask
				n1[k] = neg8(v1[k])
				n2[k] = neg8(v2[k])
			}
			// Pass 2: each edge outputs min1 — or min2 in the lanes where
			// this edge is the minimum — with the extrinsic sign: two
			// blends pick among the four precomputed values. Each edge's
			// v→c word is read before its c→v word overwrites it. The
			// frozen-lane blend is hoisted into a per-strip branch: a
			// strip with no frozen lane (the common case) writes outputs
			// directly.
			idx = 0
			if anyDone == 0 {
				for t, e := range rd {
					rb, wb := int(e)+sb, int(wr[t])+sb
					for k := 0; k < K; k++ {
						eq := eqPos8(minIdx[k], idx)
						sf := boolMask8(signAcc[k] ^ in[rb+k])
						pos := blend8(v1[k], v2[k], eq)
						neg := blend8(n1[k], n2[k], eq)
						msg[wb+k] = blend8(pos, neg, sf)
					}
					idx += laneLSB
				}
			} else {
				for t, e := range rd {
					rb, wb := int(e)+sb, int(wr[t])+sb
					for k := 0; k < K; k++ {
						eq := eqPos8(minIdx[k], idx)
						sf := boolMask8(signAcc[k] ^ in[rb+k])
						pos := blend8(v1[k], v2[k], eq)
						neg := blend8(n1[k], n2[k], eq)
						msg[wb+k] = blend8(blend8(pos, neg, sf), msg[wb+k], dn[k])
					}
					idx += laneLSB
				}
			}
		}
	}
}

// bnBlockedStrips runs the packed bit-node update (paper equation (3))
// on a bit-node range, strip-wise: the posterior is the channel word
// plus all incoming c→v messages; each outgoing v→c message, written
// over the edge's c→v word, is the posterior minus the edge's own
// input, saturated into the format range. The incident edges of bit
// node j stay the canonical VNOff range, with the message words found
// through bnOff — one sequential stream per circulant run of j's
// column block. The saturation runs in sign-magnitude form — split off
// the sign, cap the magnitude with the cheap bit-7-clear minimum,
// reapply the sign — which is lane-for-lane clamp(x, −Max, +Max),
// since the posterior sums cannot reach −128 by the validatePacked
// headroom bound. Frozen lanes keep their posterior and message words
// through the done blend: their message word holds the v→c message the
// check-node pass kept, which this pass cannot recompute. Fully frozen
// strips are skipped.
func bnBlockedStrips[S strip](st *stripState, jlo, jhi int) {
	g, tw, nsw := st.g, st.tw, st.nsw
	msg, postw, qw, done := st.msg, st.postw, st.qw, st.done
	bnOff := st.bnOff
	maxVec := st.maxVec
	K := stripLen[S]()
	for j := jlo; j < jhi; j++ {
		klo, khi := int(g.VNOff[j]), int(g.VNOff[j+1])
		jt := j * tw
		for sb := 0; sb < nsw; sb += K {
			var dn S
			frozen := ^uint64(0)
			for k := 0; k < K; k++ {
				dn[k] = done[sb+k]
				frozen &= dn[k]
			}
			if frozen == ^uint64(0) {
				continue
			}
			jb := jt + sb
			var post S
			for k := 0; k < K; k++ {
				post[k] = qw[jb+k]
			}
			for kk := klo; kk < khi; kk++ {
				eb := int(bnOff[kk]) + sb
				for k := 0; k < K; k++ {
					post[k] = add8(post[k], msg[eb+k])
				}
			}
			for k := 0; k < K; k++ {
				postw[jb+k] = blend8(post[k], postw[jb+k], dn[k])
			}
			for kk := klo; kk < khi; kk++ {
				eb := int(bnOff[kk]) + sb
				for k := 0; k < K; k++ {
					cv := msg[eb+k]
					x := sub8(post[k], cv)
					t := x & laneMSB
					n := t >> 7
					s := n * 0xFF
					m := minPos8((x^s)+n, maxVec)
					// Re-sign with the same cheap conditional negate:
					// in every lane with s = 0xFF the magnitude m ≥ 1,
					// so (m^s)+n cannot carry out of the lane.
					msg[eb+k] = blend8((m^s)+n, cv, dn[k])
				}
			}
		}
	}
}

// unsatBlockedStrips evaluates the parity checks of a check-node range
// on the packed posterior signs, accumulating per-word syndrome MSBs
// into out[w]. The posteriors stay per bit node at stride tw, with
// their base offsets precomputed in vnOff. A strip exits the node loop
// early once every word in it is decided — each live lane known
// unsatisfied or frozen; the syndrome accumulator is OR-monotone and
// frozen lanes are masked downstream, so the early exit is observably
// identical to evaluating every check.
func unsatBlockedStrips[S strip](st *stripState, ilo, ihi int, out []uint64) {
	g, nsw := st.g, st.nsw
	postw, done := st.postw, st.done
	vnOff := st.vnOff
	K := stripLen[S]()
	for w := 0; w < nsw; w++ {
		out[w] = 0
	}
	for sb := 0; sb < nsw; sb += K {
		dw := done[sb:][:K]
		var dn S
		frozen := ^uint64(0)
		for k := 0; k < K; k++ {
			dn[k] = dw[k] & laneMSB
			frozen &= dw[k]
		}
		if frozen == ^uint64(0) {
			continue
		}
		var acc S
		for i := ilo; i < ihi; i++ {
			var par S
			for _, vb := range vnOff[g.CNOff[i]:g.CNOff[i+1]] {
				pv := postw[int(vb)+sb:][:K]
				for k := 0; k < K; k++ {
					par[k] ^= pv[k]
				}
			}
			decided := true
			for k := 0; k < K; k++ {
				acc[k] |= par[k] & laneMSB
				if acc[k]|dn[k] != laneMSB {
					decided = false
				}
			}
			if decided {
				break
			}
		}
		for k := 0; k < K; k++ {
			out[sb+k] = acc[k]
		}
	}
}
