// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	Table 1  — BenchmarkTable1_*       (throughput vs iterations)
//	Table 2  — BenchmarkTable2_*       (low-cost resources)
//	Table 3  — BenchmarkTable3_*       (high-speed resources)
//	Figure 2 — BenchmarkFigure2_*      (H scatter chart)
//	Figure 4 — BenchmarkFigure4_*      (BER/PER operating points)
//	A1..A4   — BenchmarkAblation_*     (quantization, alpha, schedule,
//	                                    frame packing)
//
// Custom metrics attach the reproduced quantities to the benchmark
// output (model_mbps, alut, ber, …), so `go test -bench=.` regenerates
// the paper's numbers alongside the timing.
package ccsdsldpc_test

import (
	"fmt"
	"sync"
	"testing"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/hwsim"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/plot"
	"ccsdsldpc/internal/protograph"
	"ccsdsldpc/internal/resource"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/throughput"
)

var (
	benchGraphOnce sync.Once
	benchGraph     *ldpc.Graph
)

func ccsdsCode(b *testing.B) *code.Code {
	b.Helper()
	c, err := code.CCSDS()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func sharedGraph(b *testing.B, c *code.Code) *ldpc.Graph {
	b.Helper()
	benchGraphOnce.Do(func() { benchGraph = ldpc.NewGraph(c) })
	return benchGraph
}

// noisyLLR produces one noisy random-codeword frame and its codeword.
func noisyLLR(b *testing.B, c *code.Code, ebn0 float64, seed uint64) ([]float64, *bitvec.Vector) {
	b.Helper()
	ch, err := channel.NewAWGN(ebn0, c.Rate())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(seed)
	info := bitvec.New(c.K)
	for i := 0; i < c.K; i++ {
		if r.Bool() {
			info.Set(i)
		}
	}
	cw := c.Encode(info)
	return ch.CorruptCodeword(cw, r), cw
}

// --- Table 1: iterations vs output throughput ------------------------

func benchTable1(b *testing.B, cfg hwsim.Config, iterations int) {
	c := ccsdsCode(b)
	cfg.Iterations = iterations
	m, err := hwsim.New(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	qllrs := make([][]int16, cfg.Frames)
	for f := range qllrs {
		llr, _ := noisyLLR(b, c, 4.2, uint64(f+1))
		qllrs[f] = cfg.Format.QuantizeSlice(nil, llr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.DecodeBatch(qllrs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The paper's quantity: modelled info throughput at 200 MHz.
	mbps, err := throughput.MachineMbps(m, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(mbps, "model_mbps")
	b.ReportMetric(float64(m.CyclesPerBatch()), "cycles/batch")
}

func BenchmarkTable1_LowCost_10iter(b *testing.B)   { benchTable1(b, hwsim.LowCost(), 10) }
func BenchmarkTable1_LowCost_18iter(b *testing.B)   { benchTable1(b, hwsim.LowCost(), 18) }
func BenchmarkTable1_LowCost_50iter(b *testing.B)   { benchTable1(b, hwsim.LowCost(), 50) }
func BenchmarkTable1_HighSpeed_10iter(b *testing.B) { benchTable1(b, hwsim.HighSpeed(), 10) }
func BenchmarkTable1_HighSpeed_18iter(b *testing.B) { benchTable1(b, hwsim.HighSpeed(), 18) }
func BenchmarkTable1_HighSpeed_50iter(b *testing.B) { benchTable1(b, hwsim.HighSpeed(), 50) }

// --- Tables 2 and 3: resource estimates -------------------------------

func benchResources(b *testing.B, cfg hwsim.Config, dev resource.Device) {
	c := ccsdsCode(b)
	m, err := hwsim.New(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var est resource.Estimate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err = resource.EstimateMachine(m, dev, resource.DefaultCoefficients())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(est.ALUTs), "alut")
	b.ReportMetric(float64(est.Registers), "regs")
	b.ReportMetric(float64(est.MemoryBits), "membits")
	b.ReportMetric(100*est.MemoryUtil, "mem_pct")
}

func BenchmarkTable2_LowCostResources(b *testing.B) {
	benchResources(b, hwsim.LowCost(), resource.CycloneIIEP2C50)
}

func BenchmarkTable3_HighSpeedResources(b *testing.B) {
	benchResources(b, hwsim.HighSpeed(), resource.StratixIIEP2S180)
}

// --- Figure 2: parity-check matrix scatter ----------------------------

func BenchmarkFigure2_Scatter(b *testing.B) {
	c := ccsdsCode(b)
	s := plot.Scatter{Rows: c.M, Cols: c.N, Points: c.Ones()}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.ASCII(128, 24)
	}
	b.StopTimer()
	if len(out) == 0 {
		b.Fatal("empty scatter")
	}
	b.ReportMetric(float64(len(s.Points)), "ones")
}

// --- Figure 4: BER/PER operating points --------------------------------
//
// Full Monte-Carlo curves take minutes (see cmd/ldpcber and
// EXPERIMENTS.md); the benchmarks time the decode path at a waterfall
// operating point and report the residual error statistics over the
// frames they decode.

func benchFigure4(b *testing.B, mk func(c *code.Code) (interface {
	Decode([]float64) (ldpc.Result, error)
}, error), ebn0 float64) {
	c := ccsdsCode(b)
	dec, err := mk(c)
	if err != nil {
		b.Fatal(err)
	}
	const pool = 8
	llrs := make([][]float64, pool)
	cws := make([]*bitvec.Vector, pool)
	for i := range llrs {
		llrs[i], cws[i] = noisyLLR(b, c, ebn0, uint64(1000+i))
	}
	frameErrs, bitErrs, iters := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pool
		res, err := dec.Decode(llrs[k])
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
		diff := res.Bits.Clone()
		diff.Xor(cws[k])
		if e := diff.PopCount(); e > 0 {
			frameErrs++
			bitErrs += e
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bitErrs)/float64(b.N*c.N), "ber")
	b.ReportMetric(float64(frameErrs)/float64(b.N), "per")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/frame")
}

func BenchmarkFigure4_NMS18(b *testing.B) {
	benchFigure4(b, func(c *code.Code) (interface {
		Decode([]float64) (ldpc.Result, error)
	}, error) {
		return ldpc.NewDecoderGraph(sharedGraph(b, c), c, ldpc.Options{
			Algorithm: ldpc.NormalizedMinSum, MaxIterations: 18, Alpha: 4.0 / 3,
		})
	}, 4.0)
}

func BenchmarkFigure4_MS50Baseline(b *testing.B) {
	benchFigure4(b, func(c *code.Code) (interface {
		Decode([]float64) (ldpc.Result, error)
	}, error) {
		return ldpc.NewDecoderGraph(sharedGraph(b, c), c, ldpc.Options{
			Algorithm: ldpc.MinSum, MaxIterations: 50,
		})
	}, 4.0)
}

func BenchmarkFigure4_BP18(b *testing.B) {
	benchFigure4(b, func(c *code.Code) (interface {
		Decode([]float64) (ldpc.Result, error)
	}, error) {
		return ldpc.NewDecoderGraph(sharedGraph(b, c), c, ldpc.Options{
			Algorithm: ldpc.SumProduct, MaxIterations: 18,
		})
	}, 4.0)
}

func BenchmarkFigure4_Fixed6bitNMS18(b *testing.B) {
	benchFigure4(b, func(c *code.Code) (interface {
		Decode([]float64) (ldpc.Result, error)
	}, error) {
		return fixed.NewDecoder(c, fixed.DefaultLowCostParams())
	}, 4.0)
}

// --- Ablations ---------------------------------------------------------

// A1: quantization width.
func BenchmarkAblation_Quantization(b *testing.B) {
	c := ccsdsCode(b)
	for _, bits := range []int{4, 5, 6, 8} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			frac := bits - 4
			d, err := fixed.NewDecoder(c, fixed.Params{
				Format:        fixed.Format{Bits: bits, Frac: frac},
				Scale:         fixed.Scale{Num: 3, Shift: 2},
				MaxIterations: 18,
			})
			if err != nil {
				b.Fatal(err)
			}
			llr, cw := noisyLLR(b, c, 4.0, uint64(bits))
			errs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Decode(llr)
				if err != nil {
					b.Fatal(err)
				}
				diff := res.Bits.Clone()
				diff.Xor(cw)
				errs = diff.PopCount()
			}
			b.StopTimer()
			b.ReportMetric(float64(errs), "residual_bit_errs")
		})
	}
}

// A2: normalization factor alpha.
func BenchmarkAblation_Alpha(b *testing.B) {
	c := ccsdsCode(b)
	g := sharedGraph(b, c)
	for _, alpha := range []float64{1.0, 1.2, 4.0 / 3, 1.6} {
		b.Run(fmt.Sprintf("alpha%.2f", alpha), func(b *testing.B) {
			d, err := ldpc.NewDecoderGraph(g, c, ldpc.Options{
				Algorithm: ldpc.NormalizedMinSum, MaxIterations: 18, Alpha: alpha,
			})
			if err != nil {
				b.Fatal(err)
			}
			llr, _ := noisyLLR(b, c, 3.9, 99)
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Decode(llr)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.StopTimer()
			b.ReportMetric(float64(iters), "iters_to_converge")
		})
	}
}

// A3: flooding vs layered schedule.
func BenchmarkAblation_Schedule(b *testing.B) {
	c := ccsdsCode(b)
	g := sharedGraph(b, c)
	for _, sched := range []ldpc.Schedule{ldpc.Flooding, ldpc.Layered} {
		b.Run(sched.String(), func(b *testing.B) {
			d, err := ldpc.NewDecoderGraph(g, c, ldpc.Options{
				Algorithm: ldpc.NormalizedMinSum, Schedule: sched, MaxIterations: 50, Alpha: 4.0 / 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			llr, _ := noisyLLR(b, c, 3.9, 7)
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Decode(llr)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.StopTimer()
			b.ReportMetric(float64(iters), "iters_to_converge")
		})
	}
}

// A4: frame-packing scaling — the paper's 8x-throughput-for-4x-resources
// trade.
func BenchmarkAblation_FrameParallel(b *testing.B) {
	c := ccsdsCode(b)
	for _, frames := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("F%d", frames), func(b *testing.B) {
			cfg := hwsim.HighSpeed()
			cfg.Frames = frames
			m, err := hwsim.New(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			qllrs := make([][]int16, frames)
			for f := range qllrs {
				llr, _ := noisyLLR(b, c, 4.2, uint64(f+1))
				qllrs[f] = cfg.Format.QuantizeSlice(nil, llr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.DecodeBatch(qllrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			mbps, err := throughput.MachineMbps(m, c)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps, "model_mbps")
			est, err := resource.EstimateMachine(m, resource.StratixIIEP2S180, resource.DefaultCoefficients())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(est.ALUTs), "alut")
		})
	}
}

// --- End-to-end software decode speed (for context in EXPERIMENTS.md) --

func BenchmarkSoftwareDecodeNMS18FullCode(b *testing.B) {
	c := ccsdsCode(b)
	d, err := ldpc.NewDecoderGraph(sharedGraph(b, c), c, ldpc.Options{
		Algorithm: ldpc.NormalizedMinSum, MaxIterations: 18, Alpha: 4.0 / 3, DisableEarlyStop: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	llr, _ := noisyLLR(b, c, 4.0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(llr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Software throughput for comparison with the architecture model.
	nsPerFrame := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(c.K)/nsPerFrame*1000, "sw_mbps")
}

// --- Frame-packed SWAR batch decoding (paper's high-speed trick in
// software): 8 frames as int8 lanes of uint64 words. The pair
// BenchmarkScalarFixedDecode8 / BenchmarkParallelDecode's
// shards=1,superbatch=1,lanes=1 cell measures the same work — 8 noisy
// frames through the Q(5,1) fixed-latency datapath — so frames_per_sec
// is directly comparable (the acceptance target is ≥3×).

func batchBenchFrames(b *testing.B, c *code.Code, f fixed.Format) [][]int16 {
	b.Helper()
	qs := make([][]int16, batch.Lanes)
	for i := range qs {
		llr, _ := noisyLLR(b, c, 4.2, uint64(100+i))
		qs[i] = f.QuantizeSlice(nil, llr)
	}
	return qs
}

func batchBenchParams() fixed.Params {
	p := fixed.DefaultHighSpeedParams()
	p.DisableEarlyStop = true // the hardware's fixed-period schedule
	return p
}

func BenchmarkScalarFixedDecode8(b *testing.B) {
	c := ccsdsCode(b)
	p := batchBenchParams()
	d, err := fixed.NewDecoderGraph(sharedGraph(b, c), p)
	if err != nil {
		b.Fatal(err)
	}
	qs := batchBenchFrames(b, c, p.Format)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			d.DecodeQ(q)
		}
	}
	b.StopTimer()
	reportFramesPerSec(b, batch.Lanes, c)
}

// BenchmarkParallelDecode measures the packed decoder — the
// processing block scaled across P cores (DESIGN.md §10) with W-word
// kernel strips (DESIGN.md §11) over the circulant-run layout
// (DESIGN.md §15) — over a (shards × superbatch × lanes) grid. Every
// cell is bit-identical to the single-word cell shards=1,superbatch=1,
// lanes=1; only the partitioning and batch width change, so
// frames_per_sec isolates the scaling.
func BenchmarkParallelDecode(b *testing.B) {
	c := ccsdsCode(b)
	p := batchBenchParams()
	for _, g := range []struct{ shards, super, lanes int }{
		{1, 1, 1}, {2, 1, 1}, {4, 1, 1},
		{1, 8, 1}, {4, 8, 1},
		{1, 1, 2}, {1, 1, 4}, {1, 1, 8},
		{1, 8, 8}, {4, 8, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d,superbatch=%d,lanes=%d", g.shards, g.super, g.lanes), func(b *testing.B) {
			d, err := batch.NewParallelGraph(sharedGraph(b, c), p, batch.ParallelConfig{
				Shards: g.shards, SuperBatch: g.super, LaneWidth: g.lanes,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			qs := make([][]int16, d.Capacity())
			for i := range qs {
				llr, _ := noisyLLR(b, c, 4.2, uint64(100+i))
				qs[i] = p.Format.QuantizeSlice(nil, llr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeQ(qs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportFramesPerSec(b, len(qs), c)
		})
	}
}

// reportFramesPerSec attaches decoded frames/sec and the software
// info-bit throughput to a benchmark that decodes `frames` frames per
// iteration.
func reportFramesPerSec(b *testing.B, frames int, c *code.Code) {
	nsPerIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	fps := float64(frames) / (nsPerIter / 1e9)
	b.ReportMetric(fps, "frames_per_sec")
	b.ReportMetric(fps*float64(c.K)/1e6, "sw_mbps")
}

func BenchmarkEncodeFullCode(b *testing.B) {
	c := ccsdsCode(b)
	r := rng.New(1)
	info := bitvec.New(c.K)
	for i := 0; i < c.K; i++ {
		if r.Bool() {
			info.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Encode(info)
	}
}

// A5: syndrome-check early termination — the architecture option that
// trades Table 1's deterministic latency for SNR-dependent average
// throughput. Reported model_mbps uses the iterations actually run.
func BenchmarkAblation_EarlyStop(b *testing.B) {
	c := ccsdsCode(b)
	for _, ebn0 := range []float64{3.6, 4.0, 4.4} {
		b.Run(fmt.Sprintf("%.1fdB", ebn0), func(b *testing.B) {
			cfg := hwsim.LowCost()
			cfg.EarlyStop = true
			cfg.SyndromeOverhead = 8
			m, err := hwsim.New(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			llr, _ := noisyLLR(b, c, ebn0, 5)
			q := cfg.Format.QuantizeSlice(nil, llr)
			var cy hwsim.CycleBreakdown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cy, err = m.DecodeBatch([][]int16{q})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cy.IterationsRun), "iters_run")
			mbps, err := throughput.Mbps(c.K, cy.Total, 1, cfg.ClockMHz)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps, "model_mbps")
		})
	}
}

// A6: relative dynamic energy per decoded information bit, low-cost vs
// high-speed — frame packing amortizes memory and control energy.
func BenchmarkAblation_EnergyPerBit(b *testing.B) {
	c := ccsdsCode(b)
	for _, cfg := range []hwsim.Config{hwsim.LowCost(), hwsim.HighSpeed()} {
		name := fmt.Sprintf("F%d", cfg.Frames)
		b.Run(name, func(b *testing.B) {
			m, err := hwsim.New(c, cfg)
			if err != nil {
				b.Fatal(err)
			}
			qllrs := make([][]int16, cfg.Frames)
			for f := range qllrs {
				llr, _ := noisyLLR(b, c, 4.2, uint64(f+1))
				qllrs[f] = cfg.Format.QuantizeSlice(nil, llr)
			}
			var cy hwsim.CycleBreakdown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cy, err = m.DecodeBatch(qllrs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e := m.EstimateEnergy(hwsim.DefaultEnergyWeights(), cy.Total)
			b.ReportMetric(e.PerInfoBit(c.K*cfg.Frames), "energy/bit")
		})
	}
}

// F1: the deep-space protograph family on the generic machine (the
// paper's future work).
func BenchmarkFutureWork_DeepSpace(b *testing.B) {
	for _, r := range []protograph.Rate{protograph.Rate12, protograph.Rate23, protograph.Rate45} {
		b.Run(r.String(), func(b *testing.B) {
			pc, err := protograph.NewDeepSpaceCode(r, 1024, 7)
			if err != nil {
				b.Fatal(err)
			}
			cfg := hwsim.LowCost()
			m, err := hwsim.New(pc.Inner, cfg)
			if err != nil {
				b.Fatal(err)
			}
			q := make([]int16, pc.Inner.N)
			for i := range q {
				q[i] = int16(i%13 - 6)
			}
			for _, j := range pc.PuncturedCols {
				q[j] = 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.DecodeBatch([][]int16{q}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			mbps, err := throughput.MachineMbps(m, pc.Inner)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps, "model_mbps")
			b.ReportMetric(pc.Rate(), "rate")
		})
	}
}
