package batch

import (
	"fmt"
	"sync"
	"testing"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/protograph"
	"ccsdsldpc/internal/rng"
)

// Kernel-level differential tests: the vector strip kernels
// (simdKernels) against the generic instantiation of their strip
// width — [4]uint64 for the 4-word set, [1]uint64 for the one-word set
// — phase by phase and word by word, on randomized stripState inputs
// that reach the corners the end-to-end tests rarely do: messages at
// ±Max, done masks with frozen lanes inside live strips, fully frozen
// strips, nsw < tw, partial shard ranges and every scale the packed
// datapath accepts.

// vectorKernels returns the vector kernel set of strips of words
// packed words, skipping the caller when this CPU or build has none.
func vectorKernels(t testing.TB, words int) stripKernels {
	t.Helper()
	k, ok := simdKernels(words)
	if !ok {
		t.Skip("no vector strip kernels here: they need amd64 with AVX2, built without the purego tag")
	}
	return k
}

// kernelGraph is one graph of the differential tests; punct lists its
// punctured bit nodes, whose channel words are zero in a real decode.
type kernelGraph struct {
	name  string
	g     *ldpc.Graph
	punct []int
}

var (
	graphsOnce sync.Once
	bigGraphs  []kernelGraph
	graphsErr  error
)

// kernelGraphs returns the graphs the differential tests run on: the
// small test code; C2, the (8176, 7156) code; and ds12, the registry's
// rate-1/2 deep-space code (its lift 511 and seed, built here because
// the registry imports this package), whose punctured degree-6 column
// drives the bit-node differences to 8×Max, the validatePacked
// headroom.
func kernelGraphs(t testing.TB) []kernelGraph {
	t.Helper()
	graphsOnce.Do(func() {
		c2, err := code.CCSDS()
		if err != nil {
			graphsErr = err
			return
		}
		ds, err := protograph.NewDeepSpaceCode(protograph.Rate12, 2*511, 20090417)
		if err != nil {
			graphsErr = err
			return
		}
		bigGraphs = []kernelGraph{{"c2", ldpc.NewGraph(c2), nil}, {"ds12", ldpc.NewGraph(ds.Inner), ds.PuncturedCols}}
	})
	if graphsErr != nil {
		t.Fatal(graphsErr)
	}
	return append([]kernelGraph{{"small", ldpc.NewGraph(smallCode(t)), nil}}, bigGraphs...)
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
	words    int // strip width of the kernel set under test: 4 or 1
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

// label names the case in a failure message, strip width included.
func (kc kernelCase) label() string { return fmt.Sprintf("%d-word %v", kc.words, kc) }

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
// 1)·Max, inside the validatePacked headroom, and the clamp fires;
// the punctured bit nodes punct get zero channel words. Done words are
// whole-lane masks; in mixed mode consecutive strips of kc.words words
// cycle through live, partly frozen and fully frozen from a random
// start.
func fillKernelState(st *stripState, r *rng.RNG, max int, kc kernelCase, punct []int) {
	st.nsw = kc.nsw
	randomWords(r, st.qw, max)
	for _, j := range punct {
		clear(st.qw[j*st.tw:][:st.tw])
	}
	randomWords(r, st.msg, max)
	for i := range st.postw {
		st.postw[i] = r.Uint64()
	}
	start := r.Intn(3)
	for sb := 0; sb < len(st.done); sb += kc.words {
		mode := 0
		if kc.mixed {
			mode = (start + sb/kc.words) % 3
		}
		for w := sb; w < sb+kc.words && w < len(st.done); w++ {
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
	for _, p := range []*[]uint64{&c.qw, &c.msg, &c.postw, &c.done} {
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

// diffKernels runs the first-pass CN, CN, BN and unsat, in that order,
// through the generic and the vector kernels of kc.words-word strips
// on identical copies of one random state and requires every word of
// msg, postw and the syndrome output to match after each phase.
func diffKernels(t testing.TB, kg kernelGraph, p fixed.Params, seed uint64, kc kernelCase) {
	t.Helper()
	vec, gen := vectorKernels(t, kc.words), genericFor(kc.words)
	r := rng.New(seed)
	ref := newStripState(kg.g, p, kc.tw)
	fillKernelState(&ref, r, int(p.Format.Max()), kc, kg.punct)
	got := cloneState(ref)

	gen.cnFirst(&ref, kc.clo, kc.chi)
	vec.cnFirst(&got, kc.clo, kc.chi)
	diffWords(t, fmt.Sprintf("%s %s scale %s: first CN msg", kg.name, kc.label(), p.Scale), ref.msg, got.msg)

	gen.cn(&ref, kc.clo, kc.chi)
	vec.cn(&got, kc.clo, kc.chi)
	diffWords(t, fmt.Sprintf("%s %s scale %s: CN msg", kg.name, kc.label(), p.Scale), ref.msg, got.msg)

	gen.bn(&ref, kc.vlo, kc.vhi)
	vec.bn(&got, kc.vlo, kc.vhi)
	diffWords(t, fmt.Sprintf("%s %s: BN msg", kg.name, kc.label()), ref.msg, got.msg)
	diffWords(t, fmt.Sprintf("%s %s: BN postw", kg.name, kc.label()), ref.postw, got.postw)

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
	diffWords(t, fmt.Sprintf("%s %s: unsat out", kg.name, kc.label()), wantOut, gotOut)
}

// kernelRanges returns shard ranges over n nodes: the whole range, an
// odd-sized interior range and an empty one.
func kernelRanges(n int) [][2]int {
	lo := n / 3
	return [][2]int{{0, n}, {lo, min(n, lo+17)}, {n / 2, n / 2}}
}

// kernelSets lists the vector kernel sets the differential tests
// cover, each with the (tw, nsw) geometries it runs at: the 4-word set
// (LaneWidth 4 and 8) and the one-word set (LaneWidth 1 and 2, and a
// LaneWidth-1 super-batch with a ragged nsw). The 4-word set's case
// names carry no prefix.
var kernelSets = []struct {
	prefix string
	words  int
	geos   [][2]int
}{
	{"", 4, [][2]int{{4, 4}, {8, 8}, {16, 8}, {16, 12}}},
	{"word/", 1, [][2]int{{1, 1}, {2, 1}, {2, 2}, {8, 5}}},
}

// TestKernelsMatchGeneric diffs the vector kernels against the generic
// kernels of their strip width on the small test code, C2 and ds12. It
// must fail if a vector BN drops its +Max clamp or its frozen-lane
// blends, a vector CN drops its frozen-lane blend, or the first-pass
// CN stores through its read table. On C2 and ds12 the whole-range
// cases span several assembly calls, so the syndrome's accumulation
// and early exit across them are diffed too.
func TestKernelsMatchGeneric(t *testing.T) {
	vectorKernels(t, 4)
	seed := uint64(1)
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		p := highSpeedParams()
		cns, bns := kernelRanges(g.M), kernelRanges(g.N)
		for _, set := range kernelSets {
			for _, geo := range set.geos {
				for _, mixed := range []bool{false, true} {
					for ri := range cns {
						kc := kernelCase{words: set.words, tw: geo[0], nsw: geo[1], mixed: mixed, sparse: ri%2 == 0,
							clo: cns[ri][0], chi: cns[ri][1], vlo: bns[ri][0], vhi: bns[ri][1]}
						t.Run(kg.name+"/"+set.prefix+kc.String(), func(t *testing.T) {
							diffKernels(t, kg, p, seed, kc)
						})
						seed++
					}
				}
			}
		}
		// Every accepted scale: the scale only enters the CN phases.
		t.Run(kg.name+"/scales", func(t *testing.T) {
			for _, set := range kernelSets {
				kc := kernelCase{words: set.words, tw: 8, nsw: 8, mixed: true, clo: 0, chi: g.M}
				ref := newStripState(g, p, kc.tw)
				fillKernelState(&ref, rng.New(seed), int(p.Format.Max()), kc, kg.punct)
				got := cloneState(ref)
				msg := append([]uint64(nil), ref.msg...)
				vec, gen := vectorKernels(t, kc.words), genericFor(kc.words)
				for _, sc := range packedScales(g, p) {
					ref.setScale(sc)
					got.setScale(sc)
					for _, ph := range []struct {
						name     string
						gen, vec func(*stripState, int, int)
					}{{"first CN", gen.cnFirst, vec.cnFirst}, {"CN", gen.cn, vec.cn}} {
						copy(ref.msg, msg)
						copy(got.msg, msg)
						ph.gen(&ref, kc.clo, kc.chi)
						ph.vec(&got, kc.clo, kc.chi)
						diffWords(t, fmt.Sprintf("%s scale %s: %s msg", kc.label(), sc, ph.name), ref.msg, got.msg)
					}
				}
			}
		})
	}
}

// TestFrozenLanesKeepTheirWords checks the freeze contract of every
// kernel set, generic and vector: the check-node passes and the
// bit-node pass leave every lane of a frozen frame as they found it, in
// the message and posterior words alike, as a clock-gated memory
// would. Decode results show only the posterior half of it, since
// nothing reads a frozen lane's message word, so it is checked on the
// kernels.
func TestFrozenLanesKeepTheirWords(t *testing.T) {
	p := highSpeedParams()
	for _, kg := range kernelGraphs(t) {
		g := kg.g
		for _, words := range []int{1, 4} {
			sets := map[string]stripKernels{"generic": genericFor(words)}
			if k, ok := simdKernels(words); ok {
				sets["vector"] = k
			}
			for name, k := range sets {
				// Three strips: live, partly frozen and fully frozen.
				kc := kernelCase{words: words, tw: 3 * words, nsw: 3 * words, mixed: true}
				st := newStripState(g, p, kc.tw)
				fillKernelState(&st, rng.New(uint64(words)), int(p.Format.Max()), kc, kg.punct)
				for _, ph := range []struct {
					name string
					run  func()
				}{
					{"first CN", func() { k.cnFirst(&st, 0, g.M) }},
					{"CN", func() { k.cn(&st, 0, g.M) }},
					{"BN", func() { k.bn(&st, 0, g.N) }},
				} {
					msg := append([]uint64(nil), st.msg...)
					post := append([]uint64(nil), st.postw...)
					ph.run()
					// Word i of either array belongs to packed word i mod tw.
					for _, a := range []struct {
						what     string
						was, now []uint64
					}{{"msg", msg, st.msg}, {"postw", post, st.postw}} {
						for i, was := range a.was {
							if dn := st.done[i%st.tw]; (was^a.now[i])&dn != 0 {
								t.Fatalf("%s %d-word %s %s: %s word %d changed a frozen lane: %#016x -> %#016x (done %#016x)",
									kg.name, words, name, ph.name, a.what, i, was, a.now[i], dn)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzKernelsVsGeneric is TestKernelsMatchGeneric's check under fuzzed
// geometry, masks, ranges, scale and seed.
func FuzzKernelsVsGeneric(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint16(0xFFFF), uint8(0))
	f.Add(uint64(2), uint8(14), uint8(3), uint16(100), uint16(40), uint8(77))
	f.Add(uint64(3), uint8(0x82), uint8(1), uint16(9), uint16(3), uint8(200))
	f.Add(uint64(4), uint8(0x61), uint8(3), uint16(0), uint16(0xFFFF), uint8(5)) // one-word, c2, tw 2, frozen lanes
	f.Add(uint64(5), uint8(0xB4), uint8(2), uint16(0), uint16(0xFFFF), uint8(0)) // one-word, ds12, tw 1, live
	f.Fuzz(func(t *testing.T, seed uint64, geo, modes uint8, lo, span uint16, scale uint8) {
		vectorKernels(t, 4)
		graphs := kernelGraphs(t)
		kg := graphs[int(geo>>6)%len(graphs)]
		g := kg.g
		// Bit 5 picks the strip width, bits 0–1 the bank stride and
		// bits 2–4 the live words.
		words := 4
		if geo&0x20 != 0 {
			words = 1
		}
		tw := words << (geo % 3)                      // 4, 8, 16, or 1, 2, 4
		nsw := words * (1 + int(geo>>2&7)%(tw/words)) // whole strips, 1..tw
		p := highSpeedParams()
		scales := packedScales(g, p)
		p.Scale = scales[int(scale)%len(scales)]
		clo := int(lo) % (g.M + 1)
		vlo := int(lo) % (g.N + 1)
		kc := kernelCase{words: words, tw: tw, nsw: nsw, mixed: modes&1 != 0, sparse: modes&2 != 0,
			clo: clo, chi: min(g.M, clo+int(span)), vlo: vlo, vhi: min(g.N, vlo+int(span))}
		diffKernels(t, kg, p, seed, kc)
	})
}

// BenchmarkStripKernels times one whole-graph pass of each strip
// kernel on C2, generic and AVX2, at every lane width (superbatch 1:
// 8, 16, 32 and 64 frames; LaneWidth 1 is serve's), with no lane
// frozen. The CN passes (cnfirst, the first iteration's, and cn) and
// BN report ns per edge-word, one edge of one packed 8-frame word;
// unsat reports ns per check, on posteriors that satisfy every check,
// so the walk never exits early.
func BenchmarkStripKernels(b *testing.B) {
	g := kernelGraphs(b)[1].g
	p := highSpeedParams()
	for _, lanes := range LaneWidths {
		st := newStripState(g, p, lanes)
		fillKernelState(&st, rng.New(1), int(p.Format.Max()), kernelCase{words: 1, nsw: lanes}, nil)
		out := make([]uint64, lanes)
		edgeWords := float64(g.E * lanes)
		vec, ok := simdKernels(lanes)
		sets := []struct {
			name string
			k    stripKernels
			ok   bool
		}{{"generic", genericFor(lanes), true}, {"avx2", vec, ok}}
		for _, set := range sets {
			for _, ph := range []struct {
				name, unit string
				per        float64
				run        func()
			}{
				{"cnfirst", "ns/edge-word", edgeWords, func() { set.k.cnFirst(&st, 0, g.M) }},
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
