//go:build amd64 && !purego

package batch

// hasAVX2 is fixed once, at package init: the CPU implements AVX2 and
// the OS saves the YMM registers across context switches.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID leaves 1 and 7 and XCR0 (kernels_amd64.s).
func cpuHasAVX2() bool

//go:noescape
func cnStripsAVX2(vcw, cvw, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)

//go:noescape
func bnStripsAVX2(qw, postw, vcw, cvw, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)

//go:noescape
func unsatStripsAVX2(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)

// simdKernels returns the AVX2 bodies of the [4]uint64 strip kernels,
// and false on a CPU without AVX2. They compute the generic kernels'
// words exactly; kernelsFor binds them for LaneWidth 4 and 8, where
// nsw is a whole number of 4-word strips.
func simdKernels() (stripKernels, bool) {
	if !hasAVX2 {
		return stripKernels{}, false
	}
	return stripKernels{init: initBlockedEdges, cn: cnAVX2, bn: bnAVX2, unsat: unsatAVX2}, true
}

// asmEdgeWords bounds the work of one assembly call, in edge words:
// the edges of the nodes it covers times nsw. The runtime cannot
// preempt a goroutine inside assembly, so one call over a shard's
// whole node range would hold off a stop-the-world pause, and the
// other goroutines of its P, for milliseconds at the 512-frame
// geometry. At up to about 1.6 ns per CN edge-word (EXPERIMENTS.md
// § E-simd) a block takes at most about 50 µs.
const asmEdgeWords = 1 << 15

// blockEnd returns the end of the node block that starts at lo: the
// nodes of [lo, hi) whose edges, [offs[k], offs[k+1]) for node k, fit
// in asmEdgeWords at nsw words per edge, and always at least one.
func blockEnd(offs []int32, lo, hi, nsw int) int {
	limit := offs[lo] + int32(asmEdgeWords/nsw)
	end := lo + 1
	for end < hi && offs[end+1] <= limit {
		end++
	}
	return end
}

func cnAVX2(st *stripState, ilo, ihi int) {
	for i := ilo; i < ihi; {
		end := blockEnd(st.g.CNOff, i, ihi, st.nsw)
		cnStripsAVX2(st.vcw, st.cvw, st.done, st.cnOff, st.g.CNOff[i:end+1], st.nsw,
			st.num, uint64(st.shift), st.shiftMask)
		i = end
	}
}

func bnAVX2(st *stripState, jlo, jhi int) {
	for j := jlo; j < jhi; {
		end := blockEnd(st.g.VNOff, j, jhi, st.nsw)
		jt := j * st.tw
		bnStripsAVX2(st.qw[jt:], st.postw[jt:], st.vcw, st.cvw, st.done, st.bnOff, st.g.VNOff[j:end+1],
			st.tw, st.nsw, st.maxVec)
		j = end
	}
}

// unsatAVX2 ORs each check block's syndrome into out, which starts at
// zero; the assembly skips a strip whose lanes are all already known
// unsatisfied or frozen, so the early exit carries across blocks.
func unsatAVX2(st *stripState, ilo, ihi int, out []uint64) {
	clear(out[:st.nsw])
	for i := ilo; i < ihi; {
		end := blockEnd(st.g.CNOff, i, ihi, st.nsw)
		unsatStripsAVX2(st.postw, st.done, st.vnOff, st.g.CNOff[i:end+1], st.nsw, out)
		i = end
	}
}
