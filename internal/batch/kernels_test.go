package batch

import (
	"fmt"
	"sync"
	"testing"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/rng"
)

// Kernel-level differential tests: the vector strip kernels
// (simdKernels) against the generic [4]uint64 instantiation they
// replace, phase by phase and word by word, on randomized stripState
// inputs that reach the corners the end-to-end tests rarely do:
// messages at ±Max, done masks with frozen lanes inside live strips,
// fully frozen strips, nsw < tw, partial shard ranges and every scale
// the packed datapath accepts.

// vectorKernels returns the vector kernel set, skipping the caller
// when this CPU or build has none.
func vectorKernels(t testing.TB) stripKernels {
	t.Helper()
	k, ok := simdKernels()
	if !ok {
		t.Skip("no vector strip kernels here: they need amd64 with AVX2, built without the purego tag")
	}
	return k
}

var (
	c2Once  sync.Once
	c2Graph *ldpc.Graph
	c2Err   error
)

// kernelGraphs returns the graphs the differential tests run on: the
// small test code and C2, the (8176, 7156) code.
func kernelGraphs(t testing.TB) []struct {
	name string
	g    *ldpc.Graph
} {
	t.Helper()
	c2Once.Do(func() {
		var c *code.Code
		if c, c2Err = code.CCSDS(); c2Err == nil {
			c2Graph = ldpc.NewGraph(c)
		}
	})
	if c2Err != nil {
		t.Fatal(c2Err)
	}
	return []struct {
		name string
		g    *ldpc.Graph
	}{{"small", ldpc.NewGraph(smallCode(t))}, {"c2", c2Graph}}
}

// packedScales lists every scale validatePacked accepts for p's format
// on g.
func packedScales(g *ldpc.Graph, p fixed.Params) []fixed.Scale {
	var out []fixed.Scale
	for shift := 0; shift <= 14; shift++ {
		for num := 1; num <= 1<<shift && num <= 255; num++ {
			p.Scale = fixed.Scale{Num: num, Shift: shift}
			if validatePacked(g, p, 4) == nil {
				out = append(out, p.Scale)
			}
		}
	}
	return out
}

// kernelCase is one randomized input of the differential test.
type kernelCase struct {
	tw, nsw  int
	mixed    bool // done masks with frozen lanes and frozen strips; else none frozen
	sparse   bool // posteriors mostly satisfy every check, so unsat walks far
	clo, chi int  // check-node range of the CN and unsat phases
	vlo, vhi int  // bit-node range of the BN phase
}

func (kc kernelCase) String() string {
	return fmt.Sprintf("tw=%d/nsw=%d/mixed=%v/sparse=%v/cn=[%d,%d)/bn=[%d,%d)",
		kc.tw, kc.nsw, kc.mixed, kc.sparse, kc.clo, kc.chi, kc.vlo, kc.vhi)
}

// randomWords fills ws with packed words of lanes in [−max, +max],
// half of them at ±max.
func randomWords(r *rng.RNG, ws []uint64, max int) {
	for i := range ws {
		bits := r.Uint64()
		var w uint64
		for ln := 0; ln < Lanes; ln++ {
			b := int(bits >> (8 * ln) & 0xFF)
			v := b>>2%(2*max+1) - max
			if b&1 != 0 {
				v = max * (1 - b&2)
			}
			w |= uint64(uint8(int8(v))) << (8 * ln)
		}
		ws[i] = w
	}
}

// fillKernelState seeds st with the random inputs of kc. Channel and
// message lanes lie in [−Max, +Max], half of them at the rails, so
// the bit-node sums reach their largest magnitude, (column weight +
// 1)·Max, inside the validatePacked headroom, and the clamp fires.
// Done words are whole-lane masks; in mixed mode consecutive 4-word
// strips cycle through live, partly frozen and fully frozen from a
// random start.
func fillKernelState(st *stripState, r *rng.RNG, max int, kc kernelCase) {
	st.nsw = kc.nsw
	randomWords(r, st.qw, max)
	randomWords(r, st.vcw, max)
	randomWords(r, st.cvw, max)
	for i := range st.postw {
		st.postw[i] = r.Uint64()
	}
	start := r.Intn(3)
	for sb := 0; sb < len(st.done); sb += 4 {
		mode := 0
		if kc.mixed {
			mode = (start + sb/4) % 3
		}
		for w := sb; w < sb+4 && w < len(st.done); w++ {
			var d uint64
			for ln := 0; ln < Lanes; ln++ {
				if mode == 2 || mode == 1 && r.Intn(4) == 0 {
					d |= 0xFF << (8 * ln)
				}
			}
			st.done[w] = d
		}
	}
}

// sparsePosteriors makes every lane positive but for rare negative
// lanes, so most lanes satisfy every check and the syndrome walk
// reaches far past the first few checks.
func sparsePosteriors(st *stripState, r *rng.RNG) {
	for i := range st.postw {
		w := r.Uint64() &^ laneMSB
		if r.Intn(64) == 0 {
			w |= 0x80 << (8 * r.Intn(Lanes))
		}
		st.postw[i] = w
	}
}

func cloneState(st stripState) stripState {
	c := st
	for _, p := range []*[]uint64{&c.qw, &c.vcw, &c.cvw, &c.postw, &c.done} {
		*p = append([]uint64(nil), (*p)...)
	}
	return c
}

func diffWords(t testing.TB, what string, want, got []uint64) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s word %d: generic %#016x, vector %#016x", what, i, want[i], got[i])
		}
	}
}

// diffKernels runs CN, BN and unsat, in that order, through the
// generic and the vector kernels on identical copies of one random
// state and requires every word of cvw, vcw, postw and the syndrome
// output to match after each phase.
func diffKernels(t testing.TB, vec stripKernels, g *ldpc.Graph, p fixed.Params, seed uint64, kc kernelCase) {
	t.Helper()
	r := rng.New(seed)
	ref := newStripState(g, p, kc.tw)
	fillKernelState(&ref, r, int(p.Format.Max()), kc)
	got := cloneState(ref)
	gen := bindKernels[[4]uint64]()

	gen.cn(&ref, kc.clo, kc.chi)
	vec.cn(&got, kc.clo, kc.chi)
	diffWords(t, fmt.Sprintf("%v scale %s: CN cvw", kc, p.Scale), ref.cvw, got.cvw)

	gen.bn(&ref, kc.vlo, kc.vhi)
	vec.bn(&got, kc.vlo, kc.vhi)
	diffWords(t, fmt.Sprintf("%v: BN vcw", kc), ref.vcw, got.vcw)
	diffWords(t, fmt.Sprintf("%v: BN postw", kc), ref.postw, got.postw)

	if kc.sparse {
		sparsePosteriors(&ref, r)
		copy(got.postw, ref.postw)
	}
	// Words past nsw must come out untouched: start both outputs from
	// the same garbage.
	wantOut, gotOut := make([]uint64, kc.tw), make([]uint64, kc.tw)
	for i := range wantOut {
		wantOut[i] = 0x5A5A5A5A5A5A5A5A
		gotOut[i] = wantOut[i]
	}
	gen.unsat(&ref, kc.clo, kc.chi, wantOut)
	vec.unsat(&got, kc.clo, kc.chi, gotOut)
	diffWords(t, fmt.Sprintf("%v: unsat out", kc), wantOut, gotOut)
}

// kernelRanges returns shard ranges over n nodes: the whole range, an
// odd-sized interior range and an empty one.
func kernelRanges(n int) [][2]int {
	lo := n / 3
	return [][2]int{{0, n}, {lo, min(n, lo+17)}, {n / 2, n / 2}}
}

// TestKernelsMatchGeneric diffs the vector kernels against the generic
// [4]uint64 kernels on C2 and the small test code. It must fail if the
// vector BN drops its +Max clamp or the vector CN drops its
// frozen-lane blend. On C2 the whole-range cases span several
// assembly calls, so the syndrome's accumulation and early exit
// across them are diffed too.
func TestKernelsMatchGeneric(t *testing.T) {
	vec := vectorKernels(t)
	seed := uint64(1)
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		p := highSpeedParams()
		cns, bns := kernelRanges(g.M), kernelRanges(g.N)
		for _, geo := range [][2]int{{4, 4}, {8, 8}, {16, 8}, {16, 12}} {
			for _, mixed := range []bool{false, true} {
				for ri := range cns {
					kc := kernelCase{tw: geo[0], nsw: geo[1], mixed: mixed, sparse: ri%2 == 0,
						clo: cns[ri][0], chi: cns[ri][1], vlo: bns[ri][0], vhi: bns[ri][1]}
					t.Run(kg.name+"/"+kc.String(), func(t *testing.T) {
						diffKernels(t, vec, g, p, seed, kc)
					})
					seed++
				}
			}
		}
		// Every accepted scale: the scale only enters the CN phase.
		t.Run(kg.name+"/scales", func(t *testing.T) {
			kc := kernelCase{tw: 8, nsw: 8, mixed: true, clo: 0, chi: g.M}
			ref := newStripState(g, p, kc.tw)
			fillKernelState(&ref, rng.New(seed), int(p.Format.Max()), kc)
			got := cloneState(ref)
			cv := append([]uint64(nil), ref.cvw...)
			gen := bindKernels[[4]uint64]()
			for _, sc := range packedScales(g, p) {
				ref.setScale(sc)
				got.setScale(sc)
				copy(ref.cvw, cv)
				copy(got.cvw, cv)
				gen.cn(&ref, kc.clo, kc.chi)
				vec.cn(&got, kc.clo, kc.chi)
				diffWords(t, fmt.Sprintf("%v scale %s: CN cvw", kc, sc), ref.cvw, got.cvw)
			}
		})
	}
}

// FuzzKernelsVsGeneric is TestKernelsMatchGeneric's check under fuzzed
// geometry, masks, ranges, scale and seed.
func FuzzKernelsVsGeneric(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint16(0xFFFF), uint8(0))
	f.Add(uint64(2), uint8(14), uint8(3), uint16(100), uint16(40), uint8(77))
	f.Add(uint64(3), uint8(0x82), uint8(1), uint16(9), uint16(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, geo, modes uint8, lo, span uint16, scale uint8) {
		vec := vectorKernels(t)
		graphs := kernelGraphs(t)
		g := graphs[0].g
		if geo&0x80 != 0 {
			g = graphs[1].g
		}
		tw := 4 << (geo % 3)                // 4, 8, 16
		nsw := 4 * (1 + int(geo>>2)%(tw/4)) // 4..tw
		p := highSpeedParams()
		scales := packedScales(g, p)
		p.Scale = scales[int(scale)%len(scales)]
		clo := int(lo) % (g.M + 1)
		vlo := int(lo) % (g.N + 1)
		kc := kernelCase{tw: tw, nsw: nsw, mixed: modes&1 != 0, sparse: modes&2 != 0,
			clo: clo, chi: min(g.M, clo+int(span)), vlo: vlo, vhi: min(g.N, vlo+int(span))}
		diffKernels(t, vec, g, p, seed, kc)
	})
}

// BenchmarkStripKernels times one whole-graph pass of each strip
// kernel on C2, generic and AVX2, at lane widths 4 and 8 (superbatch
// 1: 32 and 64 frames), with no lane frozen. CN and BN report ns per
// edge-word, one edge of one packed 8-frame word; unsat reports ns per
// check, on posteriors that satisfy every check, so the walk never
// exits early.
func BenchmarkStripKernels(b *testing.B) {
	g := kernelGraphs(b)[1].g
	p := highSpeedParams()
	vec, ok := simdKernels()
	sets := []struct {
		name string
		k    stripKernels
		ok   bool
	}{{"generic", bindKernels[[4]uint64](), true}, {"avx2", vec, ok}}
	for _, lanes := range []int{4, 8} {
		st := newStripState(g, p, lanes)
		fillKernelState(&st, rng.New(1), int(p.Format.Max()), kernelCase{nsw: lanes})
		out := make([]uint64, lanes)
		edgeWords := float64(g.E * lanes)
		for _, set := range sets {
			for _, ph := range []struct {
				name, unit string
				per        float64
				run        func()
			}{
				{"cn", "ns/edge-word", edgeWords, func() { set.k.cn(&st, 0, g.M) }},
				{"bn", "ns/edge-word", edgeWords, func() { set.k.bn(&st, 0, g.N) }},
				{"unsat", "ns/check", float64(g.M), func() { set.k.unsat(&st, 0, g.M, out) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/lanes=%d", ph.name, set.name, lanes), func(b *testing.B) {
					if !set.ok {
						b.Skip("no AVX2 kernels on this CPU or build")
					}
					if ph.name == "unsat" {
						clear(st.postw) // all-positive posteriors satisfy every check
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ph.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ph.per, ph.unit)
				})
			}
		}
	}
}
