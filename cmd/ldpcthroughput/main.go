// Command ldpcthroughput regenerates the paper's Table 1: decoder output
// data rate versus iteration count for the low-cost and high-speed
// configurations, from the cycle-accurate architecture model.
//
// With -batch n it additionally measures this machine's software
// decoding throughput, scalar versus frame-packed SWAR (n frames' int8
// messages per 64-bit word, the software analogue of the paper's
// high-speed frame-packed memory).
//
// With -parallel it sweeps the sharded wide-lane super-batch decoder
// over a (shards × superbatch × lanes) matrix — the software form of
// scaling the paper's processing block with more CN/BN units and wider
// memory words — reporting frames/s, ns/frame, Mbit/s and the p50
// latency of a single full batch. Each decode carries
// superbatch × lanes × 8 frames, up to 512. -json writes the matrix
// (with host CPU topology, so results from different machines stay
// comparable) to a file.
//
// All software measurements repeat their workload until a minimum wall
// time has elapsed, so the rates are immune to sub-millisecond timer
// artifacts and can never divide by zero.
//
// -code runs the model and the software measurements on any registry
// code (c2, c2s, ds12, ds23, ds45) — the throughput axis of the
// multi-mode family; the paper comparison column appears only for the
// C2 code at the paper's operating point.
//
// Usage:
//
//	ldpcthroughput [-code c2] [-iters 10,18,50] [-clock 200] [-detail]
//	               [-batch 8] [-batchframes 64]
//	               [-parallel] [-shards 1,2,4,8] [-superbatches 1,4,8]
//	               [-lanes 1,2,4,8] [-json BENCH_parallel.json]
//	               [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/hwsim"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/throughput"
)

// minMeasure is the minimum wall time per software measurement: long
// enough that coarse timers and one-off cache effects cannot dominate,
// short enough that the full default matrix stays interactive.
// -mintime raises it when the host is noisy (a shared single-core box
// needs longer windows to catch quiet intervals).
var minMeasure = 250 * time.Millisecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcthroughput: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		codeName   = flag.String("code", "c2", "registry code to measure (c2, c2s, ds12, ds23, ds45)")
		itersFlag  = flag.String("iters", "10,18,50", "comma-separated iteration counts")
		clock      = flag.Float64("clock", 200, "system clock in MHz")
		detail     = flag.Bool("detail", false, "print the cycle breakdown per configuration")
		batchN     = flag.Int("batch", 0, "also measure software throughput, scalar vs n-frame packed SWAR (2..8)")
		batchFr    = flag.Int("batchframes", 64, "frames per software throughput measurement")
		parallel   = flag.Bool("parallel", false, "sweep the sharded super-batch decoder over the shards × superbatches × lanes matrix")
		shardsF    = flag.String("shards", "1,2,4,8", "shard counts for the -parallel sweep")
		supersF    = flag.String("superbatches", "1,4,8", "super-batch depths (strips) for the -parallel sweep")
		lanesF     = flag.String("lanes", "1,2,4,8", "strip widths (words) for the -parallel sweep, each in {1, 2, 4, 8}")
		jsonPath   = flag.String("json", "", "write the -parallel matrix as JSON to this file")
		minTime    = flag.Duration("mintime", minMeasure, "minimum wall time per software measurement round")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *minTime <= 0 {
		return fmt.Errorf("-mintime must be positive")
	}
	minMeasure = *minTime

	// Validate the software-measurement geometry before any simulation
	// work, so a bad flag fails immediately with a precise message.
	if *batchN != 0 && (*batchN < 2 || *batchN > batch.Lanes) {
		return fmt.Errorf("-batch must be in [2,%d]", batch.Lanes)
	}
	shards, err := parseInts(*shardsF)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	supers, err := parseInts(*supersF)
	if err != nil {
		return fmt.Errorf("-superbatches: %w", err)
	}
	lanes, err := parseInts(*lanesF)
	if err != nil {
		return fmt.Errorf("-lanes: %w", err)
	}
	for _, w := range supers {
		if w < 1 || w > batch.MaxSuperBatch {
			return fmt.Errorf("-superbatches entries must be in [1,%d], got %d", batch.MaxSuperBatch, w)
		}
	}
	for _, l := range lanes {
		if !batch.ValidLaneWidth(l) {
			return fmt.Errorf("-lanes entries must be in {1, 2, 4, 8}, got %d", l)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	iters, err := parseInts(*itersFlag)
	if err != nil {
		return err
	}
	entry, ok := registry.Default().ByName(*codeName)
	if !ok {
		return fmt.Errorf("unknown code %q (registry has %s)", *codeName, strings.Join(registry.Default().Names(), ", "))
	}
	built, err := entry.Build()
	if err != nil {
		return err
	}
	c, punctured := built.Code, built.PuncturedCols
	rows, err := throughput.Table1(c, iters, *clock)
	if err != nil {
		return err
	}
	fmt.Printf("Table 1 — %s (%d,%d) output data rate at %.0f MHz (paper values at 200 MHz)\n\n",
		entry.Name, c.N, c.K, *clock)
	fmt.Print(throughput.FormatTable(rows, paperIfDefault(iters, *clock, entry.Name == "c2")))

	if *detail {
		fmt.Println("\nCycle breakdown at 18 iterations:")
		for _, cfg := range []hwsim.Config{hwsim.LowCost(), hwsim.HighSpeed()} {
			cfg.ClockMHz = *clock
			m, err := hwsim.New(c, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("  %d frame(s), %s messages: %d cycles/batch (%d CN units, %d BN units, %d banks, %d messages/cycle)\n",
				cfg.Frames, cfg.Format, m.CyclesPerBatch(), m.NumCNUnits(), m.NumBNUnits(), m.NumBanks(), m.MessagesPerCycle())
		}
	}

	if *batchN > 0 {
		if err := softwareBatchReport(c, punctured, *batchN, *batchFr); err != nil {
			return err
		}
	}

	if *parallel {
		if err := parallelReport(c, punctured, shards, supers, lanes, *jsonPath); err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// noisyFrames generates deterministic quantized noisy frames of the
// all-zero codeword at 4.2 dB, the fixture every software measurement
// shares. Punctured positions enter as erasures, matching the live
// decode conditions of the protograph codes.
func noisyFrames(c *code.Code, punctured []int, f fixed.Format, n int) ([][]int16, error) {
	nTx := c.N - len(punctured)
	ch, err := channel.NewAWGN(4.2, float64(c.K)/float64(nTx))
	if err != nil {
		return nil, err
	}
	zero := bitvec.New(c.N)
	qs := make([][]int16, n)
	for i := range qs {
		r := rng.New(uint64(i)*0x9e3779b97f4a7c15 + 1)
		qs[i] = make([]int16, c.N)
		f.QuantizeSlice(qs[i], ch.CorruptCodeword(zero, r))
		for _, j := range punctured {
			qs[i][j] = 0
		}
	}
	return qs, nil
}

// perFrameSeconds runs fn — which decodes framesPerCall frames —
// repeatedly until minMeasure wall time has elapsed, returning the
// mean seconds per frame. Elapsed time is bounded below by minMeasure,
// so the derived rates cannot hit a zero or sub-resolution interval.
func perFrameSeconds(framesPerCall int, fn func() error) (float64, error) {
	return perFrameSecondsN(1, framesPerCall, fn)
}

// perFrameSecondsN takes the best of `rounds` independent measurements
// — the best sustained rate is the one least disturbed by scheduler
// and frequency jitter, which on a shared single-core host otherwise
// swamps the few-percent effects a sweep is trying to resolve.
func perFrameSecondsN(rounds, framesPerCall int, fn func() error) (float64, error) {
	best := 0.0
	for r := 0; r < rounds; r++ {
		spf, err := perFrameSecondsOnce(framesPerCall, fn)
		if err != nil {
			return 0, err
		}
		if best == 0 || spf < best {
			best = spf
		}
	}
	return best, nil
}

func perFrameSecondsOnce(framesPerCall int, fn func() error) (float64, error) {
	frames := 0
	start := time.Now()
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		frames += framesPerCall
		if time.Since(start) >= minMeasure {
			break
		}
	}
	return time.Since(start).Seconds() / float64(frames), nil
}

// softwareBatchReport times the software reference decoders on this
// machine: the scalar fixed-point decoder frame by frame versus the
// frame-packed SWAR decoder at `lanes` frames per word, over the same
// deterministic noisy frames (4.2 dB, Q(5,1), 18 iterations at a fixed
// decoding period like the architecture model).
func softwareBatchReport(c *code.Code, punctured []int, lanes, frames int) error {
	if lanes < 2 || lanes > batch.Lanes {
		return fmt.Errorf("-batch must be in [2,%d]", batch.Lanes)
	}
	if frames < lanes {
		frames = lanes
	}
	p := fixed.DefaultHighSpeedParams()
	p.DisableEarlyStop = true
	sd, err := fixed.NewDecoder(c, p)
	if err != nil {
		return err
	}
	bd, err := batch.NewParallel(c, p, batch.ParallelConfig{})
	if err != nil {
		return err
	}
	defer bd.Close()
	qs, err := noisyFrames(c, punctured, p.Format, frames)
	if err != nil {
		return err
	}

	scalarSPF, err := perFrameSeconds(frames, func() error {
		for _, q := range qs {
			sd.DecodeQ(q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	packedSPF, err := perFrameSeconds(frames, func() error {
		for i := 0; i < frames; i += lanes {
			j := i + lanes
			if j > frames {
				j = frames
			}
			if _, err := bd.DecodeQ(qs[i:j]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	mbps := func(spf float64) float64 { return float64(c.K) / spf / 1e6 }
	fmt.Printf("\nSoftware throughput on this machine — %d frames, Q(%d,%d), %d iterations, fixed period:\n",
		frames, p.Format.Bits, p.Format.Frac, p.MaxIterations)
	fmt.Printf("  scalar fixed-point        %10.1f frames/s %12.0f ns/frame %10.2f Mbit/s\n",
		1/scalarSPF, scalarSPF*1e9, mbps(scalarSPF))
	fmt.Printf("  packed SWAR x%d            %10.1f frames/s %12.0f ns/frame %10.2f Mbit/s   speedup x%.1f\n",
		lanes, 1/packedSPF, packedSPF*1e9, mbps(packedSPF), scalarSPF/packedSPF)
	return nil
}

// ParallelCell is one (shards, superbatch, lanes) measurement of the
// sharded wide-lane super-batch decoder.
type ParallelCell struct {
	Shards          int     `json:"shards"`
	SuperBatch      int     `json:"superbatch"`
	LaneWidth       int     `json:"lane_width"`
	Frames          int     `json:"frames_per_call"`
	FramesPerSec    float64 `json:"frames_per_sec"`
	NsPerFrame      float64 `json:"ns_per_frame"`
	Mbps            float64 `json:"mbps"`
	P50BatchMicros  float64 `json:"p50_batch_latency_us"`
	SpeedupVsShard1 float64 `json:"speedup_vs_shards1"`
}

// ParallelMatrix is the JSON document -json writes: the measurement
// matrix plus enough host context to interpret it (a shards sweep on a
// single-core box is expected to be flat).
type ParallelMatrix struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CodeN      int            `json:"code_n"`
	CodeK      int            `json:"code_k"`
	Iterations int            `json:"iterations"`
	Format     string         `json:"format"`
	Matrix     []ParallelCell `json:"matrix"`
}

// parallelReport sweeps the sharded wide-lane super-batch decoder over
// the (shards × superbatches × lanes) matrix on full super-batches of
// deterministic noisy frames, printing a table and optionally writing
// JSON.
func parallelReport(c *code.Code, punctured []int, shards, supers, lanes []int, jsonPath string) error {
	p := fixed.DefaultHighSpeedParams()
	p.DisableEarlyStop = true
	maxFrames := 0
	for _, w := range supers {
		for _, l := range lanes {
			if w*l*batch.Lanes > maxFrames {
				maxFrames = w * l * batch.Lanes
			}
		}
	}
	qs, err := noisyFrames(c, punctured, p.Format, maxFrames)
	if err != nil {
		return err
	}

	doc := ParallelMatrix{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CodeN:      c.N,
		CodeK:      c.K,
		Iterations: p.MaxIterations,
		Format:     p.Format.String(),
	}
	type baseKey struct{ w, l int }
	base := map[baseKey]float64{} // (superbatch, lanes) → shards=1 seconds/frame
	fmt.Printf("\nSharded wide-lane super-batch decoder — Q(%d,%d), %d iterations, fixed period, GOMAXPROCS=%d, NumCPU=%d:\n",
		p.Format.Bits, p.Format.Frac, p.MaxIterations, doc.GOMAXPROCS, doc.NumCPU)
	fmt.Printf("  %6s %10s %6s %8s %12s %12s %10s %14s %8s\n",
		"shards", "superbatch", "lanes", "frames", "frames/s", "ns/frame", "Mbit/s", "p50 batch µs", "speedup")
	for _, w := range supers {
		for _, l := range lanes {
			for _, s := range shards {
				d, err := batch.NewParallel(c, p, batch.ParallelConfig{Shards: s, SuperBatch: w, LaneWidth: l})
				if err != nil {
					return err
				}
				nf := d.Capacity()
				spf, err := perFrameSecondsN(5, nf, func() error {
					_, err := d.DecodeQ(qs[:nf])
					return err
				})
				if err != nil {
					d.Close()
					return err
				}
				p50, err := p50BatchLatency(d, qs[:nf])
				d.Close()
				if err != nil {
					return err
				}
				cell := ParallelCell{
					Shards:         s,
					SuperBatch:     w,
					LaneWidth:      l,
					Frames:         nf,
					FramesPerSec:   1 / spf,
					NsPerFrame:     spf * 1e9,
					Mbps:           float64(c.K) / spf / 1e6,
					P50BatchMicros: p50.Seconds() * 1e6,
				}
				if s == 1 {
					base[baseKey{w, l}] = spf
				}
				if b, ok := base[baseKey{w, l}]; ok && b > 0 {
					cell.SpeedupVsShard1 = b / spf
				}
				doc.Matrix = append(doc.Matrix, cell)
				fmt.Printf("  %6d %10d %6d %8d %12.1f %12.0f %10.2f %14.1f %7.2fx\n",
					cell.Shards, cell.SuperBatch, cell.LaneWidth, cell.Frames,
					cell.FramesPerSec, cell.NsPerFrame,
					cell.Mbps, cell.P50BatchMicros, cell.SpeedupVsShard1)
			}
		}
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

// p50BatchLatency measures the median wall time of a single full
// super-batch decode: the latency a synchronous caller sees, as opposed
// to the pipelined throughput of the timed loop.
func p50BatchLatency(d *batch.Parallel, qs [][]int16) (time.Duration, error) {
	var samples []time.Duration
	start := time.Now()
	for len(samples) < 9 || time.Since(start) < minMeasure {
		t0 := time.Now()
		if _, err := d.DecodeQ(qs); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0))
		if len(samples) >= 1024 {
			break
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
}

// paperIfDefault returns the paper comparison column only when the run
// matches the paper's operating conditions (the C2 code at 200 MHz over
// the default iteration set).
func paperIfDefault(iters []int, clock float64, isC2 bool) []throughput.Row {
	if !isC2 || clock != 200 || len(iters) != 3 || iters[0] != 10 || iters[1] != 18 || iters[2] != 50 {
		return nil
	}
	return throughput.PaperTable1
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
