// Command ldpcthroughput regenerates the paper's Table 1: decoder output
// data rate versus iteration count for the low-cost and high-speed
// configurations, from the cycle-accurate architecture model.
//
// With -batch n it additionally measures this machine's software
// decoding throughput, scalar versus frame-packed SWAR (n frames' int8
// messages per 64-bit word, the software analogue of the paper's
// high-speed frame-packed memory). Each rate repeats its workload
// until a minimum wall time has elapsed, so it is immune to
// sub-millisecond timer artifacts and can never divide by zero. The
// packed decoder's geometries (shards, super-batches, lane widths) are
// measured by the root package's BenchmarkParallelDecode.
//
// -code runs the model and the software measurement on any registry
// code (c2, c2s, ds12, ds23, ds45) — the throughput axis of the
// multi-mode family; the paper comparison column appears only for the
// C2 code at the paper's operating point.
//
// Usage:
//
//	ldpcthroughput [-code c2] [-iters 10,18,50] [-clock 200] [-detail]
//	               [-batch 8] [-batchframes 64]
package main

import (
	"flag"
	"fmt"
	"log"
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
// short enough to stay interactive.
const minMeasure = 250 * time.Millisecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcthroughput: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		codeName  = flag.String("code", "c2", "registry code to measure (c2, c2s, ds12, ds23, ds45)")
		itersFlag = flag.String("iters", "10,18,50", "comma-separated iteration counts")
		clock     = flag.Float64("clock", 200, "system clock in MHz")
		detail    = flag.Bool("detail", false, "print the cycle breakdown per configuration")
		batchN    = flag.Int("batch", 0, "also measure software throughput, scalar vs n-frame packed SWAR (2..8)")
		batchFr   = flag.Int("batchframes", 64, "frames per software throughput measurement")
	)
	flag.Parse()

	// Validate the software-measurement geometry before any simulation
	// work, so a bad flag fails immediately with a precise message.
	if *batchN != 0 && (*batchN < 2 || *batchN > batch.Lanes) {
		return fmt.Errorf("-batch must be in [2,%d]", batch.Lanes)
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
		return softwareBatchReport(c, punctured, *batchN, *batchFr)
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
