//go:build amd64 && !purego

package batch

// hasAVX2 is fixed once, at package init: the CPU implements AVX2 and
// the OS saves the YMM registers across context switches.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID leaves 1 and 7 and XCR0 (kernels_amd64.s).
func cpuHasAVX2() bool

// The AVX2 kernel bodies of kernels_amd64.s: the *YMM functions hold
// one 4-word strip per YMM register, the *XMM functions one one-word
// strip per XMM register. Both widths take the same arguments.

//go:noescape
func cnYMM(msg, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)

//go:noescape
func cnFirstYMM(qw, msg, done []uint64, vnOff, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)

//go:noescape
func bnYMM(qw, postw, msg, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)

//go:noescape
func unsatYMM(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)

//go:noescape
func cnXMM(msg, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)

//go:noescape
func cnFirstXMM(qw, msg, done []uint64, vnOff, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)

//go:noescape
func bnXMM(qw, postw, msg, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)

//go:noescape
func unsatXMM(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)

// avx2Set is the assembly of one strip width: words packed words per
// strip, one vector register each, and the four kernel bodies.
type avx2Set struct {
	words       int
	cnBody      func(msg, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
	cnFirstBody func(qw, msg, done []uint64, vnOff, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
	bnBody      func(qw, postw, msg, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)
	unsatBody   func(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)
}

var (
	ymmSet = &avx2Set{4, cnYMM, cnFirstYMM, bnYMM, unsatYMM}
	xmmSet = &avx2Set{1, cnXMM, cnFirstXMM, bnXMM, unsatXMM}
)

// simdKernels returns the AVX2 kernels for a validated lane width w,
// and false on a CPU without AVX2. They compute the generic kernels' words exactly.
// Widths 4 and 8 bind the 4-word strip and widths 1 and 2 the one-word
// strip: nsw is a whole number of strips either way.
func simdKernels(w int) (stripKernels, bool) {
	if !hasAVX2 {
		return stripKernels{}, false
	}
	set := ymmSet
	if w <= 2 {
		set = xmmSet
	}
	return stripKernels{cnFirst: set.cnFirstAVX2, cn: set.cnAVX2, bn: set.bnAVX2, unsat: set.unsatAVX2}, true
}

// asmSteps bounds the work of one assembly call, in strip-edge steps:
// the edges of the nodes it covers times the strips per edge,
// nsw/words. The runtime cannot preempt a goroutine inside assembly,
// so one call over a shard's whole node range would hold off a
// stop-the-world pause, and the other goroutines of its P, for
// milliseconds at the 512-frame geometry. A CN step costs up to about
// 6.2 ns in a YMM register (1.56 ns per edge-word, EXPERIMENTS.md
// § E-simd) and 4.3 ns in an XMM register (§ E-word), so a block
// takes at most about 50 µs at either width.
const asmSteps = 1 << 13

// blockNodes returns how many nodes one assembly call covers on a side
// whose nodes have at most maxDeg edges: as many as fit in asmSteps at
// strips steps per edge, and always at least one. The cut depends only
// on the graph and nsw, so a phase call pays one division for it.
func blockNodes(maxDeg, strips int) int { return max(1, asmSteps/(maxDeg*strips)) }

func (a *avx2Set) cnAVX2(st *stripState, ilo, ihi int) {
	step := blockNodes(st.maxCN, st.nsw/a.words)
	for i := ilo; i < ihi; i += step {
		a.cnBody(st.msg, st.done, st.cnOff, st.g.CNOff[i:min(i+step, ihi)+1], st.nsw,
			st.num, uint64(st.shift), st.shiftMask)
	}
}

func (a *avx2Set) cnFirstAVX2(st *stripState, ilo, ihi int) {
	step := blockNodes(st.maxCN, st.nsw/a.words)
	for i := ilo; i < ihi; i += step {
		a.cnFirstBody(st.qw, st.msg, st.done, st.vnOff, st.cnOff, st.g.CNOff[i:min(i+step, ihi)+1], st.nsw,
			st.num, uint64(st.shift), st.shiftMask)
	}
}

func (a *avx2Set) bnAVX2(st *stripState, jlo, jhi int) {
	step := blockNodes(st.maxVN, st.nsw/a.words)
	for j := jlo; j < jhi; j += step {
		jt := j * st.tw
		a.bnBody(st.qw[jt:], st.postw[jt:], st.msg, st.done, st.bnOff, st.g.VNOff[j:min(j+step, jhi)+1],
			st.tw, st.nsw, st.maxVec)
	}
}

// unsatAVX2 ORs each check block's syndrome into out, which starts at
// zero; the assembly skips a strip whose lanes are all already known
// unsatisfied or frozen, so the early exit carries across blocks.
func (a *avx2Set) unsatAVX2(st *stripState, ilo, ihi int, out []uint64) {
	clear(out[:st.nsw])
	step := blockNodes(st.maxCN, st.nsw/a.words)
	for i := ilo; i < ihi; i += step {
		a.unsatBody(st.postw, st.done, st.vnOff, st.g.CNOff[i:min(i+step, ihi)+1], st.nsw, out)
	}
}
