package batch

import (
	"fmt"
	"math"
	"sync"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// MaxSuperBatch is the largest super-batch depth: up to 8 strips per
// decode call, the paper's high-speed packing squared at LaneWidth 1.
const MaxSuperBatch = 8

// MaxFrames is the frame capacity of a maximally configured Parallel
// decoder: 8 strips × 8 words × 8 lanes = 512 frames per decode call.
const MaxFrames = MaxSuperBatch * MaxLaneWidth * Lanes

// ParallelConfig sizes a sharded super-batch decoder.
//
// Shards is the intra-decode data parallelism: the check-node phase is
// partitioned by check-node range (each check owns a disjoint slice of
// the check→bit message memory — the software form of the paper's
// Fig. 3 bank addressing) and the bit-node phase by bit-node column
// range, across Shards worker goroutines separated by phase barriers.
// No message word is ever written by two shards and the partition
// boundaries are a deterministic function of (graph, Shards), so the
// results are bit-identical to the scalar decoder for every shard
// count. Shards beyond the number of check nodes idle harmlessly.
//
// LaneWidth is the strip width in packed words (1, 2, 4 or 8,
// default 1): the CN/BN kernels advance LaneWidth words — up to
// 8×LaneWidth frames — as one register-resident strip per graph step,
// the software form of widening the paper's Fig. 3 memory word a
// second time beyond its 8-frame packing.
//
// SuperBatch is the number of strips one decode call processes
// (1..MaxSuperBatch): SuperBatch × LaneWidth packed words carry up to
// SuperBatch × LaneWidth × 8 independent frames through a single
// traversal of the Tanner graph per phase, with the per-edge words
// laid out consecutively (bank-major) so the graph indices are
// fetched once per edge rather than once per word.
//
// Where the paper scales its processing block by instantiating more
// CN/BN units per clock, this decoder scales it along three axes:
// Shards plays the role of the parallelism degree of the processing
// block, LaneWidth the width of one processing unit's datapath, and
// SuperBatch the depth of the frame buffer feeding it. The zero value
// {1, 1, 1} is the paper's high-speed decoder: 8 frames per memory
// word, one word per decode call, one goroutine.
type ParallelConfig struct {
	Shards     int // phase worker goroutines (default 1)
	SuperBatch int // strips per decode call (default 1)
	LaneWidth  int // packed words per strip: 1, 2, 4 or 8 (default 1)
}

func (cfg *ParallelConfig) setDefaults() error {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.SuperBatch == 0 {
		cfg.SuperBatch = 1
	}
	if cfg.LaneWidth == 0 {
		cfg.LaneWidth = 1
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("batch: %d shards", cfg.Shards)
	}
	if cfg.SuperBatch < 1 || cfg.SuperBatch > MaxSuperBatch {
		return fmt.Errorf("batch: super-batch %d out of range [1,%d]", cfg.SuperBatch, MaxSuperBatch)
	}
	if !ValidLaneWidth(cfg.LaneWidth) {
		return fmt.Errorf("batch: lane width %d not in {1, 2, 4, 8}", cfg.LaneWidth)
	}
	return nil
}

// words returns the packed words per decode call (the bank stride).
func (cfg ParallelConfig) words() int { return cfg.SuperBatch * cfg.LaneWidth }

// Parallel is the frame-packed quantized normalized min-sum decoder:
// up to Capacity independent frames are decoded per call, their
// messages stored as int8 lanes of shared uint64 words, scaled across
// ParallelConfig.Shards worker goroutines inside a single decode call
// and across SuperBatch × LaneWidth packed words per call. One pass
// over the Tanner graph advances all lanes at once; lanes never
// interact.
//
// Every lane of every word is bit-compatible with fixed.Decoder
// configured with the same Params: identical hard decisions, iteration
// counts and convergence flags for any geometry — the sharded phases
// partition their write sets by node, all additions are associative
// lane-wise two's-complement sums, and per-word early-stop bookkeeping
// freezes a lane exactly when the scalar decoder stops iterating.
//
// A Parallel is not safe for concurrent use (one decode at a time);
// its shard goroutines are spawned once at construction and reused,
// so the steady-state decode path allocates nothing. Call Close to
// release them.
type Parallel struct {
	g   *ldpc.Graph
	p   fixed.Params
	cfg ParallelConfig

	// st holds the packed state, bank-major: the tw = SuperBatch ×
	// LaneWidth words of edge e are consecutive at its layout slot
	// times tw (see stripState.cnOff), those of bit node j at
	// [j*tw : j*tw+tw). kern is the strip-kernel set bound to
	// cfg.LaneWidth at construction.
	st   stripState
	kern stripKernels

	// Deterministic shard partitions: shard s owns check nodes
	// [cnLo[s], cnHi[s]) and bit nodes [vnLo[s], vnHi[s]), both
	// balanced by edge count.
	cnLo, cnHi []int32
	vnLo, vnHi []int32

	pool *shardPool

	// Per-decode live state, read by the shard workers between the
	// barriers of one phase (the channel send/receive pair orders the
	// writes here before the reads there). st.done holds the per-word
	// frozen-lane masks, st.nsw the live word count rounded up to
	// whole strips.
	nw    int        // live words this decode
	nf    int        // live frames this decode
	unsat [][]uint64 // per-shard, per-word partial syndrome MSB accumulators

	hard []*bitvec.Vector // Decode/DecodeQ shared result vectors
	q16  []int16          // quantization scratch for Decode

	iters []int  // per-frame iteration bookkeeping
	conv  []bool // per-frame convergence bookkeeping

	// inj, when non-nil, perturbs the packed message write-backs; lane
	// w*Lanes+f of its address space is frame f of word w.
	inj   fixed.Injector
	cvMem *superMem
	vcMem *superMem

	closed bool
}

// NewParallel builds a sharded super-batch decoder for a code.
func NewParallel(c *code.Code, p fixed.Params, cfg ParallelConfig) (*Parallel, error) {
	return NewParallelGraph(ldpc.NewGraph(c), p, cfg)
}

// NewParallelGraph builds a sharded super-batch decoder over a shared
// graph. The format must be narrow enough for the int8 lanes: every
// bit-node sum (degree+2 terms of magnitude ≤ Max) must fit in int8,
// and scaled magnitudes must fit in a byte. The paper's high-speed
// Q(5,1) format on the column-weight-4 CCSDS code satisfies both; the
// low-cost Q(6,2) format does not (which is exactly why the paper's
// high-speed decoder narrows its messages to 5 bits before packing 8
// per word).
func NewParallelGraph(g *ldpc.Graph, p fixed.Params, cfg ParallelConfig) (*Parallel, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	tw := cfg.words()
	if err := validatePacked(g, p, tw); err != nil {
		return nil, err
	}
	d := &Parallel{
		g: g, p: p, cfg: cfg,
		st:    newStripState(g, p, tw),
		kern:  kernelsFor(cfg.LaneWidth),
		hard:  make([]*bitvec.Vector, tw*Lanes),
		q16:   make([]int16, g.N),
		iters: make([]int, tw*Lanes),
		conv:  make([]bool, tw*Lanes),
	}
	for f := range d.hard {
		d.hard[f] = bitvec.New(g.N)
	}
	d.cnLo, d.cnHi = partitionByEdges(cfg.Shards, g.M, g.E, func(i int) int { return g.CNDegree(i) })
	d.vnLo, d.vnHi = partitionByEdges(cfg.Shards, g.N, g.E, func(j int) int { return g.VNDegree(j) })
	d.unsat = make([][]uint64, cfg.Shards)
	for s := range d.unsat {
		d.unsat[s] = make([]uint64, tw)
	}
	d.pool = newShardPool(d, cfg.Shards)
	return d, nil
}

// validatePacked checks, before anything is allocated, that a graph
// and format fit the int8-lane packed datapath and that the word
// offsets of tw words per edge fit the int32 offset tables.
func validatePacked(g *ldpc.Graph, p fixed.Params, tw int) error {
	if err := p.Format.Validate(); err != nil {
		return err
	}
	if err := p.Scale.Validate(); err != nil {
		return err
	}
	if p.MaxIterations < 1 {
		return fmt.Errorf("batch: MaxIterations %d < 1", p.MaxIterations)
	}
	if int64(g.E)*int64(tw) > math.MaxInt32 {
		return fmt.Errorf("batch: word offsets overflow int32 (%d edges × %d words)", g.E, tw)
	}
	maxVN, maxCN, minCN := 0, 0, g.E+1
	for i := 0; i < g.M; i++ {
		dcn := g.CNDegree(i)
		if dcn > maxCN {
			maxCN = dcn
		}
		if dcn < minCN {
			minCN = dcn
		}
	}
	for j := 0; j < g.N; j++ {
		if d := g.VNDegree(j); d > maxVN {
			maxVN = d
		}
	}
	max := int(p.Format.Max())
	if (maxVN+2)*max > 127 {
		return fmt.Errorf("batch: %s with column weight %d overflows int8 lanes ((%d+2)×%d > 127); use a ≤5-bit format",
			p.Format, maxVN, maxVN, max)
	}
	if max*p.Scale.Num > 255 {
		return fmt.Errorf("batch: scale %s overflows a lane product (%d×%d > 255)", p.Scale, max, p.Scale.Num)
	}
	if maxCN > 127 {
		return fmt.Errorf("batch: check degree %d exceeds the 127-edge lane index range", maxCN)
	}
	if minCN < 2 {
		return fmt.Errorf("batch: degree-%d check node; packed min1/min2 needs degree ≥ 2", minCN)
	}
	return nil
}

// partitionByEdges splits nodes [0,n), whose degrees sum to total,
// into shards contiguous ranges whose edge counts are as balanced as a
// greedy prefix walk allows. The boundaries depend only on (degree
// profile, shards), never on runtime scheduling, so the partition — and
// with it every rounding and saturation — is deterministic. Shards
// beyond n come out empty; the last shard takes whatever remains, so a
// single shard costs no walk at all.
func partitionByEdges(shards, n, total int, degree func(int) int) (lo, hi []int32) {
	lo = make([]int32, shards)
	hi = make([]int32, shards)
	node, acc := 0, 0
	for s := 0; s < shards-1; s++ {
		lo[s] = int32(node)
		// Edge budget through the end of this shard.
		budget := (total * (s + 1)) / shards
		for node < n && acc < budget {
			acc += degree(node)
			node++
		}
		hi[s] = int32(node)
	}
	lo[shards-1], hi[shards-1] = int32(node), int32(n)
	return lo, hi
}

// Config returns the shard/super-batch configuration (defaults
// resolved).
func (d *Parallel) Config() ParallelConfig { return d.cfg }

// Params returns the decoder's fixed-point configuration.
func (d *Parallel) Params() fixed.Params { return d.p }

// Capacity returns the maximum frames per decode call
// (SuperBatch × LaneWidth × Lanes).
func (d *Parallel) Capacity() int { return d.cfg.words() * Lanes }

// MaxIterations returns the current iteration budget.
func (d *Parallel) MaxIterations() int { return d.p.MaxIterations }

// SetMaxIterations changes the iteration budget for subsequent decodes
// (the serving layer's degraded-mode lever). It must not be called
// while a decode is in flight.
func (d *Parallel) SetMaxIterations(n int) error {
	if n < 1 {
		return fmt.Errorf("batch: MaxIterations %d < 1", n)
	}
	d.p.MaxIterations = n
	return nil
}

// Close releases the shard worker goroutines. It is idempotent; a
// decode after Close fails. Close must not race a decode in flight.
func (d *Parallel) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.pool.close()
}

// SetInjector installs (or, with nil, removes) a fault injector that
// perturbs the packed message words between phases. Lane w*Lanes+f of
// the injector's address space is frame f of packed word w, so an
// 8-frame scenario addresses the same lanes at every geometry. The
// decode path pays one nil check per phase when no injector is
// installed.
func (d *Parallel) SetInjector(inj fixed.Injector) {
	d.inj = inj
	if inj == nil {
		d.cvMem, d.vcMem = nil, nil
		return
	}
	d.cvMem = &superMem{d: d, msgs: d.st.cvw}
	d.vcMem = &superMem{d: d, msgs: d.st.vcw}
}

// superMem adapts the bank-major packed words to fixed.MessageMem:
// lane w*Lanes+f of the address space is lane f of word w. Lanes of
// frozen (early-stopped or tail) frames are not held — their memory is
// clock-gated, so writes are discarded — keeping fault trajectories
// identical to a scalar decoder that stopped iterating at convergence.
type superMem struct {
	d    *Parallel
	msgs []uint64
}

func (m *superMem) Holds(ln int) bool {
	d := m.d
	if ln < 0 || ln >= d.nf {
		return false
	}
	w, f := ln/Lanes, ln%Lanes
	return d.st.done[w]&(0xFF<<(8*uint(f))) == 0
}

// base maps a canonical edge index to its first packed word through
// the layout's offset table, so injectors keep addressing canonical
// edges and produce identical fault trajectories at every geometry.
func (m *superMem) base(edge int) int { return int(m.d.st.cnOff[edge]) }

func (m *superMem) Get(ln, edge int) int16 {
	if !m.Holds(ln) {
		return 0
	}
	return int16(lane(m.msgs[m.base(edge)+ln/Lanes], ln%Lanes))
}

func (m *superMem) Set(ln, edge int, v int16) {
	if !m.Holds(ln) {
		return
	}
	i := m.base(edge) + ln/Lanes
	m.msgs[i] = putLane(m.msgs[i], ln%Lanes, int8(v))
}

// Decode quantizes up to Capacity frames of real LLRs and decodes them
// together. Result f corresponds to llrs[f]; the returned Bits vectors
// are reused across calls, clone to retain.
func (d *Parallel) Decode(llrs [][]float64) ([]ldpc.Result, error) {
	res := d.sharedResults(len(llrs))
	if err := d.DecodeInto(res, llrs); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeInto is Decode writing into caller-owned results; see
// DecodeQInto for the res contract.
func (d *Parallel) DecodeInto(res []ldpc.Result, llrs [][]float64) error {
	if err := d.validateBatch(len(llrs), len(res)); err != nil {
		return err
	}
	for f, llr := range llrs {
		if len(llr) != d.g.N {
			return fmt.Errorf("batch: frame %d has %d LLRs for code length %d", f, len(llr), d.g.N)
		}
	}
	for f, llr := range llrs {
		d.p.Format.QuantizeSlice(d.q16, llr)
		d.packFrame(f, d.q16)
	}
	return d.decodeInto(res)
}

// DecodeQ decodes up to Capacity frames of already-quantized channel
// LLRs (each length N). Values outside the format range are saturated
// into it during packing, so equality with fixed.Decoder.DecodeQ holds
// for inputs within the format range (which Format.Quantize
// guarantees). The returned Bits vectors are reused across calls,
// clone to retain.
func (d *Parallel) DecodeQ(qllrs [][]int16) ([]ldpc.Result, error) {
	res := d.sharedResults(len(qllrs))
	if err := d.DecodeQInto(res, qllrs); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeQInto is DecodeQ writing into caller-owned results, the
// allocation-free form the serving pool uses: res must have one entry
// per frame; an entry whose Bits is a non-nil length-N vector receives
// the hard decision in place, a nil Bits is replaced by a fresh
// vector. Nothing in res aliases decoder state afterwards.
func (d *Parallel) DecodeQInto(res []ldpc.Result, qllrs [][]int16) error {
	if err := d.validateBatch(len(qllrs), len(res)); err != nil {
		return err
	}
	for f, q := range qllrs {
		if len(q) != d.g.N {
			return fmt.Errorf("batch: frame %d has %d LLRs for code length %d", f, len(q), d.g.N)
		}
	}
	for f, q := range qllrs {
		d.packFrame(f, q)
	}
	return d.decodeInto(res)
}

func (d *Parallel) validateBatch(nf, nres int) error {
	if d.closed {
		return fmt.Errorf("batch: decode on a closed Parallel decoder")
	}
	if nf < 1 || nf > d.Capacity() {
		return fmt.Errorf("batch: %d frames per call, want 1..%d", nf, d.Capacity())
	}
	if nres != nf {
		return fmt.Errorf("batch: %d results for %d frames", nres, nf)
	}
	return nil
}

func (d *Parallel) sharedResults(nf int) []ldpc.Result {
	if nf < 1 || nf > d.Capacity() {
		nf = 1 // DecodeInto re-validates and errors; any placeholder works
	}
	res := make([]ldpc.Result, nf)
	for f := range res {
		res[f].Bits = d.hard[f]
	}
	return res
}

// packFrame writes one frame's quantized LLRs into lane f%Lanes of
// word f/Lanes, saturating into the format range.
func (d *Parallel) packFrame(f int, q []int16) {
	tw := d.st.tw
	w, ln := f/Lanes, f%Lanes
	max := d.p.Format.Max()
	for j, v := range q {
		if v > max {
			v = max
		} else if v < -max {
			v = -max
		}
		d.st.qw[j*tw+w] = putLane(d.st.qw[j*tw+w], ln, int8(v))
	}
}

// zeroTail erases the lanes of the last live word beyond the supplied
// frames, so a partial word computes on all-zero (trivially converged)
// tail lanes.
func (d *Parallel) zeroTail(nf int) {
	rem := nf % Lanes
	if rem == 0 {
		return
	}
	tw := d.st.tw
	w := nf / Lanes
	keep := ^uint64(0) >> (8 * uint(Lanes-rem))
	for j := 0; j < d.g.N; j++ {
		d.st.qw[j*tw+w] &= keep
	}
}

// decodeInto runs the sharded iteration loop on the packed channel
// words. The per-word trajectory — message values, freeze masks,
// iteration counts — does not depend on the geometry, which is what
// keeps every lane bit-exact against the scalar reference for any
// shard count and strip width.
func (d *Parallel) decodeInto(res []ldpc.Result) error {
	nf := len(res)
	for f := range res {
		if b := res[f].Bits; b != nil && b.Len() != d.g.N {
			return fmt.Errorf("batch: result %d has a length-%d bit vector for code length %d", f, b.Len(), d.g.N)
		}
	}
	d.zeroTail(nf)
	nw := (nf + Lanes - 1) / Lanes
	d.nw, d.nf = nw, nf
	// Round the live words up to whole strips; the padding words in
	// [nw, nsw) are fully frozen from the start, so the kernels compute
	// on them only as dead weight inside a live strip and nothing
	// observable ever reads them.
	K := d.cfg.LaneWidth
	d.st.nsw = (nw + K - 1) / K * K
	for w := 0; w < nw; w++ {
		live := nf - w*Lanes
		if live >= Lanes {
			d.st.done[w] = 0
		} else {
			d.st.done[w] = ^(^uint64(0) >> (8 * uint(Lanes-live)))
		}
	}
	for w := nw; w < d.st.nsw; w++ {
		d.st.done[w] = ^uint64(0)
	}
	for f := 0; f < nf; f++ {
		d.iters[f], d.conv[f] = 0, false
	}
	earlyStop := !d.p.DisableEarlyStop

	d.pool.run(opInit)
	allDone := false
	for it := 0; it < d.p.MaxIterations && !allDone; it++ {
		d.pool.run(opCN)
		if d.inj != nil {
			d.inj.AfterCN(it, d.cvMem)
		}
		d.pool.run(opBN)
		if d.inj != nil {
			d.inj.AfterBN(it, d.vcMem)
		}
		if !earlyStop {
			continue
		}
		d.pool.run(opUnsat)
		allDone = true
		for w := 0; w < nw; w++ {
			if d.st.done[w] == ^uint64(0) {
				continue
			}
			var acc uint64
			for s := 0; s < d.cfg.Shards; s++ {
				acc |= d.unsat[s][w]
			}
			unsat := boolMask8(acc)
			if newly := ^unsat &^ d.st.done[w]; newly != 0 {
				base := w * Lanes
				top := nf - base
				if top > Lanes {
					top = Lanes
				}
				for f := 0; f < top; f++ {
					if newly&(0xFF<<(8*uint(f))) != 0 {
						d.iters[base+f] = it + 1
						d.conv[base+f] = true
					}
				}
				d.st.done[w] |= newly
			}
			if d.st.done[w] != ^uint64(0) {
				allDone = false
			}
		}
	}
	if earlyStop {
		for f := 0; f < nf; f++ {
			if !d.conv[f] {
				d.iters[f] = d.p.MaxIterations
			}
		}
	} else {
		d.pool.run(opUnsat)
		for w := 0; w < nw; w++ {
			var acc uint64
			for s := 0; s < d.cfg.Shards; s++ {
				acc |= d.unsat[s][w]
			}
			unsat := boolMask8(acc)
			base := w * Lanes
			top := nf - base
			if top > Lanes {
				top = Lanes
			}
			for f := 0; f < top; f++ {
				d.iters[base+f] = d.p.MaxIterations
				d.conv[base+f] = unsat&(0xFF<<(8*uint(f))) == 0
			}
		}
	}
	tw := d.st.tw
	for f := 0; f < nf; f++ {
		if res[f].Bits == nil {
			res[f].Bits = bitvec.New(d.g.N)
		}
		h := res[f].Bits
		h.Zero()
		w, sh := f/Lanes, uint(8*(f%Lanes)+7)
		for j := 0; j < d.g.N; j++ {
			if d.st.postw[j*tw+w]>>sh&1 == 1 {
				h.Set(j)
			}
		}
		res[f].Iterations = d.iters[f]
		res[f].Converged = d.conv[f]
	}
	return nil
}

// --- shard phase kernels ---------------------------------------------
//
// Each phase runs the strip kernels of kernels.go on one shard's node
// range for every live strip, LaneWidth words per unrolled kernel
// step, with the graph offsets fetched once per node instead of once
// per (node, word). Strips whose lanes are all frozen are skipped:
// their messages must stay put, and skipping is exactly the freeze a
// scalar decoder realizes by breaking out of its iteration loop.

// initRange seeds vc with the channel words and clears cv on the edge
// range owned by shard s (the contiguous edges of its check range).
func (d *Parallel) initRange(s int) {
	g := d.g
	d.kern.init(&d.st, int(g.CNOff[d.cnLo[s]]), int(g.CNOff[d.cnHi[s]]))
}

// cnRange runs the packed check-node update on shard s's check range:
// disjoint cv write ranges per check node, so shards never contend.
func (d *Parallel) cnRange(s int) {
	d.kern.cn(&d.st, int(d.cnLo[s]), int(d.cnHi[s]))
}

// bnRange runs the packed bit-node update on shard s's bit-node range:
// each bit node owns its posterior word and the vc words of its own
// edges, so shard write sets are disjoint by column.
func (d *Parallel) bnRange(s int) {
	d.kern.bn(&d.st, int(d.vnLo[s]), int(d.vnHi[s]))
}

// unsatRange evaluates the parity checks of shard s's check range on
// the packed posterior signs, accumulating the per-word syndrome MSBs
// into d.unsat[s]. Per strip it exits early once every live lane is
// known unsatisfied.
func (d *Parallel) unsatRange(s int) {
	d.kern.unsat(&d.st, int(d.cnLo[s]), int(d.cnHi[s]), d.unsat[s])
}

// --- spawn-once shard pool -------------------------------------------

type shardOp uint8

const (
	opInit shardOp = iota
	opCN
	opBN
	opUnsat
)

// shardPool coordinates the phase barriers: shards−1 helper goroutines
// plus the caller (which always executes shard 0 inline, so Shards=1
// degenerates to today's single-goroutine loop with no pool traffic).
// Dispatch is one buffered-channel send of an op code per helper and a
// WaitGroup join — no per-phase allocation, channels and goroutines
// reused for the life of the decoder.
type shardPool struct {
	d   *Parallel
	ops []chan shardOp
	wg  sync.WaitGroup
}

func newShardPool(d *Parallel, shards int) *shardPool {
	p := &shardPool{d: d, ops: make([]chan shardOp, shards-1)}
	for i := range p.ops {
		p.ops[i] = make(chan shardOp, 1)
		go p.work(i+1, p.ops[i])
	}
	return p
}

func (p *shardPool) work(s int, ops <-chan shardOp) {
	for op := range ops {
		p.d.shardWork(s, op)
		p.wg.Done()
	}
}

func (d *Parallel) shardWork(s int, op shardOp) {
	switch op {
	case opInit:
		d.initRange(s)
	case opCN:
		d.cnRange(s)
	case opBN:
		d.bnRange(s)
	case opUnsat:
		d.unsatRange(s)
	}
}

// run executes one phase across all shards and waits for the barrier.
func (p *shardPool) run(op shardOp) {
	p.wg.Add(len(p.ops))
	for _, ch := range p.ops {
		ch <- op
	}
	p.d.shardWork(0, op)
	p.wg.Wait()
}

func (p *shardPool) close() {
	for _, ch := range p.ops {
		close(ch)
	}
}
