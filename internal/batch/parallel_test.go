package batch

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/protect"
)

// TestParallelMatchesFixed sweeps the (shards, superbatch) matrix —
// including shards beyond the check-node count ("more units than
// banks") and frame counts that leave a partial tail word inside the
// super-batch — and requires bit-exact agreement with the scalar
// fixed-point decoder, under both schedules.
func TestParallelMatchesFixed(t *testing.T) {
	for _, early := range []bool{true, false} {
		p := highSpeedParams()
		p.DisableEarlyStop = !early
		for _, cfg := range []ParallelConfig{
			{Shards: 1, SuperBatch: 1},
			{Shards: 2, SuperBatch: 1},
			{Shards: 4, SuperBatch: 2},
			{Shards: 3, SuperBatch: 4},
			{Shards: 8, SuperBatch: 8},
			{Shards: 1, SuperBatch: 8},
		} {
			name := fmt.Sprintf("early=%v/S%dW%d", early, cfg.Shards, cfg.SuperBatch)
			t.Run(name, func(t *testing.T) {
				// 27 frames: full words, a partial 3-lane tail word, and
				// for SuperBatch>4 a partially filled super-batch.
				crossCheck(t, smallCode(t), cfg, p, 3.0, 27, uint64(1000*cfg.Shards+cfg.SuperBatch))
			})
		}
	}
}

// TestParallelMoreShardsThanBanks pins the degenerate partition: more
// shards than the code has check nodes (and bit nodes), leaving most
// shards empty, must still decode bit-exactly.
func TestParallelMoreShardsThanBanks(t *testing.T) {
	c := smallCode(t)
	shards := c.M + 7 // small test code: more workers than CN banks
	crossCheck(t, c, ParallelConfig{Shards: shards, SuperBatch: 2}, highSpeedParams(), 3.0, 19, 77)
}

// TestParallelPartition checks the partition invariants NewParallel
// relies on for determinism and disjointness: contiguous coverage of
// [0,n) with no overlap, for shard counts below, at and above the node
// count.
func TestParallelPartition(t *testing.T) {
	deg := func(i int) int { return 2 + i%5 }
	for _, n := range []int{1, 7, 62, 124} {
		total := 0
		for i := 0; i < n; i++ {
			total += deg(i)
		}
		for _, shards := range []int{1, 2, 3, 8, n, n + 3, 4 * n} {
			lo, hi := partitionByEdges(shards, n, total, deg)
			if len(lo) != shards || len(hi) != shards {
				t.Fatalf("n=%d shards=%d: %d/%d ranges", n, shards, len(lo), len(hi))
			}
			next := int32(0)
			for s := 0; s < shards; s++ {
				if lo[s] != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, lo[s], next)
				}
				if hi[s] < lo[s] {
					t.Fatalf("n=%d shards=%d: shard %d range [%d,%d)", n, shards, s, lo[s], hi[s])
				}
				next = hi[s]
			}
			if next != int32(n) {
				t.Fatalf("n=%d shards=%d: coverage ends at %d", n, shards, next)
			}
			// Deterministic: a second call yields identical boundaries.
			lo2, hi2 := partitionByEdges(shards, n, total, deg)
			for s := range lo {
				if lo[s] != lo2[s] || hi[s] != hi2[s] {
					t.Fatalf("n=%d shards=%d: partition not deterministic", n, shards)
				}
			}
		}
	}
}

// TestParallelDecodeQInto checks the caller-owned-result contract at
// super-batch width: owned vectors filled in place, nil vectors
// allocated, no aliasing of decoder scratch.
func TestParallelDecodeQInto(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	a, err := NewParallel(c, p, ParallelConfig{Shards: 2, SuperBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewParallel(c, p, ParallelConfig{Shards: 2, SuperBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	nf := 2*Lanes + 5 // partial tail word
	qs := make([][]int16, nf)
	for f := range qs {
		qs[f] = noisyQ(t, c, p.Format, 3.0, uint64(900+f))
	}
	want, err := a.DecodeQ(qs)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]ldpc.Result, nf)
	owned := make([]*bitvec.Vector, nf)
	for f := 1; f < nf; f += 2 {
		owned[f] = bitvec.New(c.N)
		res[f].Bits = owned[f]
	}
	if err := b.DecodeQInto(res, qs); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nf; f++ {
		if !res[f].Bits.Equal(want[f].Bits) {
			t.Errorf("frame %d: hard decision differs from DecodeQ", f)
		}
		if res[f].Iterations != want[f].Iterations || res[f].Converged != want[f].Converged {
			t.Errorf("frame %d: (%d,%v) vs DecodeQ (%d,%v)", f,
				res[f].Iterations, res[f].Converged, want[f].Iterations, want[f].Converged)
		}
		if owned[f] != nil && res[f].Bits != owned[f] {
			t.Errorf("frame %d: caller-owned vector replaced", f)
		}
		for g := range b.hard {
			if res[f].Bits == b.hard[g] {
				t.Errorf("frame %d: result aliases decoder scratch", f)
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	if _, err := NewParallel(c, p, ParallelConfig{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewParallel(c, p, ParallelConfig{SuperBatch: MaxSuperBatch + 1}); err == nil {
		t.Error("oversized super-batch accepted")
	}
	d, err := NewParallel(c, p, ParallelConfig{Shards: 2, SuperBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := noisyQ(t, c, p.Format, 3.0, 7)
	if err := d.DecodeQInto(make([]ldpc.Result, 2), [][]int16{q}); err == nil {
		t.Error("mismatched res length accepted")
	}
	over := make([][]int16, d.Capacity()+1)
	for i := range over {
		over[i] = q
	}
	if _, err := d.DecodeQ(over); err == nil {
		t.Error("over-capacity batch accepted")
	}
	if err := d.DecodeQInto(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := []ldpc.Result{{Bits: bitvec.New(c.N - 1)}}
	if err := d.DecodeQInto(bad, [][]int16{q}); err == nil {
		t.Error("wrong-length bit vector accepted")
	}
}

// TestParallelClose verifies the shard goroutines exit on Close, a
// closed decoder refuses to decode, and Close is idempotent.
func TestParallelClose(t *testing.T) {
	c := smallCode(t)
	p := highSpeedParams()
	before := runtime.NumGoroutine()
	d, err := NewParallel(c, p, ParallelConfig{Shards: 6, SuperBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := noisyQ(t, c, p.Format, 3.0, 3)
	if _, err := d.DecodeQ([][]int16{q}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, err := d.DecodeQ([][]int16{q}); err == nil {
		t.Error("decode on a closed decoder succeeded")
	}
	// The 5 helper goroutines must drain; allow the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines after Close, %d before", g, before)
	}
}

// flipInjector is a deterministic test fault source: at chosen
// iterations it XORs a bit into the message of (lane, edge) cells that
// the memory holds, through the decoder-agnostic MessageMem view — the
// same perturbation therefore lands on the scalar and the sharded
// decoder.
type flipInjector struct {
	lanes, edges int
}

func (fi *flipInjector) perturb(it int, mem fixed.MessageMem) {
	for ln := 0; ln < fi.lanes; ln++ {
		if !mem.Holds(ln) {
			continue
		}
		e := (7*ln + 13*it) % fi.edges
		mem.Set(ln, e, mem.Get(ln, e)^0x4)
	}
}

func (fi *flipInjector) AfterCN(it int, mem fixed.MessageMem) {
	if it%2 == 0 {
		fi.perturb(it, mem)
	}
}

func (fi *flipInjector) AfterBN(it int, mem fixed.MessageMem) {
	if it%3 == 1 {
		fi.perturb(it, mem)
	}
}

// TestParallelInjectorMatchesFixed replays a deterministic fault
// sequence — bare and wrapped in a protect.Guard scrubber — through the
// scalar decoder lane by lane and through sharded super-batch decoders,
// and requires bit-identical outcomes. Run under -race this doubles as
// the data-race check on the sharded phases under fault injection.
func TestParallelInjectorMatchesFixed(t *testing.T) {
	c := smallCode(t)
	g := ldpc.NewGraph(c)
	for _, early := range []bool{true, false} {
		for _, mode := range []protect.Mode{protect.ModeOff, protect.ModeSECDED} {
			p := highSpeedParams()
			p.DisableEarlyStop = !early
			t.Run(fmt.Sprintf("early=%v/protect=%v", early, mode), func(t *testing.T) {
				nf := Lanes + 3 // two words, partial tail
				inj := &flipInjector{lanes: nf, edges: g.E}
				var dinj fixed.Injector = inj
				if mode != protect.ModeOff {
					guard, err := protect.NewGuard(protect.Config{
						Mode: mode, Format: p.Format, Lanes: nf, Edges: g.E,
					})
					if err != nil {
						t.Fatal(err)
					}
					guard.Attach(inj)
					dinj = guard
				}
				qs := make([][]int16, nf)
				for f := range qs {
					qs[f] = noisyQ(t, c, p.Format, 3.0, uint64(3000+f))
				}
				for _, cfg := range []ParallelConfig{
					{Shards: 1, SuperBatch: 2},
					{Shards: 4, SuperBatch: 2},
					{Shards: 3, SuperBatch: 4},
				} {
					checkLanes(t, g, cfg, p, qs, dinj)
				}
			})
		}
	}
}

// TestIdentityLayoutMatchesFixed decodes over a graph without a
// circulant table, which stores edge e at slot e through the same
// offset tables, and requires bit-exact agreement with internal/fixed,
// bare and under fault injection, at the single-word and a sharded
// wide-strip geometry.
func TestIdentityLayoutMatchesFixed(t *testing.T) {
	c := smallCode(t)
	g := ldpc.NewGraph(c)
	if g.QC == nil {
		t.Fatal("test code has no circulant layout to strip")
	}
	bare := *g
	bare.QC = nil
	p := highSpeedParams()
	for _, cfg := range []ParallelConfig{{}, {Shards: 2, SuperBatch: 2, LaneWidth: 8}} {
		d, err := NewParallelGraph(&bare, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !IdentityLayout(d) {
			t.Fatalf("%+v: edges not stored at their identity slots", cfg)
		}
		nf := d.Capacity() - 3 // partial tail word
		d.Close()
		qs := make([][]int16, nf)
		for f := range qs {
			qs[f] = noisyQ(t, c, p.Format, 3.0, uint64(4000+f))
		}
		checkLanes(t, &bare, cfg, p, qs, nil)
		checkLanes(t, &bare, cfg, p, qs, &flipInjector{lanes: nf, edges: g.E})
	}
}

// TestOffsetOverflowRejected pins the int32 bound of the offset tables:
// a graph whose edges × words exceed it fails construction before any
// state is allocated (the message memory alone would be tens of GB).
func TestOffsetOverflowRejected(t *testing.T) {
	g := &ldpc.Graph{E: math.MaxInt32/64 + 1}
	if _, err := NewParallelGraph(g, highSpeedParams(), ParallelConfig{SuperBatch: 8, LaneWidth: 8}); err == nil {
		t.Fatal("edges × words beyond int32 accepted")
	}
}
