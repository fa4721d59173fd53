// Command ldpcber measures bit and packet error rate curves over an
// Eb/N0 sweep — the paper's Figure 4 — for any of the implemented
// decoders, and renders them as a table, ASCII semilog plot, CSV or SVG.
//
// -code selects any registry code: the C2 default, the shortened c2s
// frame (pinned known-zero positions), or the punctured deep-space
// protograph rates (erased positions, channel at the transmitted rate).
//
// Examples:
//
//	ldpcber -from 3.0 -to 4.2 -step 0.2 -alg nms -iters 18
//	ldpcber -code ds12 -from 0.5 -to 2.0 -step 0.5 -alg nms
//	ldpcber -alg ms -iters 50 -csv ms50.csv
//	ldpcber -testcode -alg nms -iters 18 -fine -svg fig4.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/correction"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/plot"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcber: ")
	var (
		from     = flag.Float64("from", 3.0, "sweep start Eb/N0 (dB)")
		to       = flag.Float64("to", 4.2, "sweep end Eb/N0 (dB)")
		step     = flag.Float64("step", 0.2, "sweep step (dB)")
		alg      = flag.String("alg", "nms", "decoder: bp, ms, nms, oms, fixed, lmin, scms, gb, wbf")
		iters    = flag.Int("iters", 18, "decoding iterations")
		alpha    = flag.Float64("alpha", 4.0/3, "normalization factor for nms")
		beta     = flag.Float64("beta", 0.15, "offset for oms")
		fine     = flag.Bool("fine", false, "estimate and use the fine-scaled per-iteration correction factor")
		layered  = flag.Bool("layered", false, "layered schedule instead of flooding")
		quant    = flag.Int("quant", 6, "message bits for -alg fixed")
		batchN   = flag.Int("batch", 1, "decode n-frame packed batches through the SWAR decoder (requires -alg fixed -quant 5, n <= 512; n > 8 rides a super-batch)")
		shards   = flag.Int("shards", 1, "shard goroutines per batch decoder (bit-exact multi-core decode, requires -batch > 1)")
		lanesN   = flag.Int("lanes", 1, "strip width in 8-frame words for the batch kernels (1, 2, 4 or 8; bit-exact, requires -batch > 1)")
		minErr   = flag.Int("minerrors", 50, "frame errors per point before stopping")
		maxFr    = flag.Int("maxframes", 20000, "max frames per point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		codeName = flag.String("code", "c2", "registry code to measure (c2, c2s, ds12, ds23, ds45)")
		testCode = flag.Bool("testcode", false, "use the fast miniature code instead of a registry code")
		csvPath  = flag.String("csv", "", "write points as CSV to this path")
		svgPath  = flag.String("svg", "", "write the curves as SVG to this path")
		ascii    = flag.Bool("ascii", true, "print ASCII curves")
	)
	flag.Parse()

	// Validate the batch geometry before any work: a bad combination
	// should fail in microseconds with a precise message, not after the
	// correction-factor estimate.
	if *shards > 1 && *batchN <= 1 {
		log.Fatalf("-shards %d requires -batch > 1 (the sharded decoder is a batch decoder)", *shards)
	}
	if !batch.ValidLaneWidth(*lanesN) {
		log.Fatalf("-lanes %d not in {1, 2, 4, 8}", *lanesN)
	}
	if *lanesN > 1 && *batchN <= 1 {
		log.Fatalf("-lanes %d requires -batch > 1 (wide lanes pack a batch decoder's strips)", *lanesN)
	}
	if *batchN > batch.MaxFrames {
		log.Fatalf("-batch %d exceeds the %d-frame super-batch capacity", *batchN, batch.MaxFrames)
	}
	if *batchN > 1 && *alg != "fixed" {
		log.Fatal("-batch requires -alg fixed (the packed decoder implements the quantized datapath)")
	}

	var c *code.Code
	var punctured, shortened []int
	var err error
	if *testCode {
		c, err = code.SmallTestCode(2, 4, 31, 1)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		entry, ok := registry.Default().ByName(*codeName)
		if !ok {
			log.Fatalf("unknown code %q (registry has %s)", *codeName, strings.Join(registry.Default().Names(), ", "))
		}
		built, berr := entry.Build()
		if berr != nil {
			log.Fatal(berr)
		}
		// Punctured positions are simulated as erasures, shortened ones
		// as pinned known zeros — the same conditions the serve layer
		// expands wire frames into.
		c = built.Code
		punctured = built.PuncturedCols
		shortened = built.KnownZero
	}

	var schedule []float64
	if *fine {
		fmt.Fprintln(os.Stderr, "estimating fine-scaled correction factor...")
		est, err := correction.EstimateAlpha(c, correction.Config{
			EbN0dB: (*from + *to) / 2, Iterations: *iters, Frames: 20, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		schedule = est.Alphas
		fmt.Fprintf(os.Stderr, "fine schedule (first 5): %.3f, global %.3f\n", est.Alphas[:min(5, len(est.Alphas))], est.Global)
	}

	factory := func() (sim.FrameDecoder, error) {
		switch *alg {
		case "bp":
			return ldpc.NewDecoder(c, ldpc.Options{Algorithm: ldpc.SumProduct, MaxIterations: *iters, Schedule: sched(*layered)})
		case "ms":
			return ldpc.NewDecoder(c, ldpc.Options{Algorithm: ldpc.MinSum, MaxIterations: *iters, Schedule: sched(*layered)})
		case "nms":
			return ldpc.NewDecoder(c, ldpc.Options{Algorithm: ldpc.NormalizedMinSum, MaxIterations: *iters, Alpha: *alpha, AlphaSchedule: schedule, Schedule: sched(*layered)})
		case "oms":
			return ldpc.NewDecoder(c, ldpc.Options{Algorithm: ldpc.OffsetMinSum, MaxIterations: *iters, Beta: *beta, Schedule: sched(*layered)})
		case "fixed":
			scale, err := fixed.ScaleForAlpha(*alpha, 4)
			if err != nil {
				return nil, err
			}
			frac := *quant - 4
			if frac < 0 {
				frac = 0
			}
			return fixed.NewDecoder(c, fixed.Params{
				Format: fixed.Format{Bits: *quant, Frac: frac}, Scale: scale, MaxIterations: *iters,
			})
		case "lmin":
			return ldpc.NewLambdaMin(c, 3, *iters)
		case "scms":
			return ldpc.NewSCMS(c, *iters)
		case "gb":
			return ldpc.NewGallagerB(c, *iters, 0)
		case "wbf":
			return ldpc.NewWBF(c, *iters*4)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", *alg)
		}
	}

	cfg := sim.Config{
		Code: c, NewDecoder: factory,
		MinFrameErrors: *minErr, MaxFrames: *maxFr, Workers: *workers, Seed: *seed,
		PuncturedCols: punctured, ShortenedCols: shortened,
	}
	if *batchN > 1 {
		// The frame-packed decoder is the quantized datapath with up to
		// 8 frames' int8 messages per word; it is bit-compatible with
		// -alg fixed, so the measured curve is unchanged — only faster.
		// Beyond 8 frames it stacks up to 64 words (512 frames) per
		// decode, and -shards and -lanes spread each decode across
		// cores and wider strips, still bit-exact.
		scale, err := fixed.ScaleForAlpha(*alpha, 4)
		if err != nil {
			log.Fatal(err)
		}
		frac := *quant - 4
		if frac < 0 {
			frac = 0
		}
		p := fixed.Params{Format: fixed.Format{Bits: *quant, Frac: frac}, Scale: scale, MaxIterations: *iters}
		cfg.BatchSize = *batchN
		words := (*batchN + batch.Lanes - 1) / batch.Lanes
		super := (words + *lanesN - 1) / *lanesN
		if super > batch.MaxSuperBatch {
			log.Fatalf("-batch %d exceeds the %d-strip capacity at -lanes %d (raise -lanes)", *batchN, batch.MaxSuperBatch, *lanesN)
		}
		cfg.NewBatchDecoder = func() (sim.BatchDecoder, error) {
			return batch.NewParallel(c, p, batch.ParallelConfig{Shards: *shards, SuperBatch: super, LaneWidth: *lanesN})
		}
	}
	grid := sim.Sweep(*from, *to, *step)
	fmt.Printf("%8s %12s %12s %10s %10s %8s %10s\n", "Eb/N0", "BER", "PER", "frames", "frameErr", "avgIter", "elapsed")
	pts := make([]sim.Point, 0, len(grid))
	for _, e := range grid {
		p, err := sim.RunPoint(cfg, e)
		if err != nil {
			log.Fatal(err)
		}
		pts = append(pts, p)
		fmt.Printf("%8.2f %12.3e %12.3e %10d %10d %8.2f %10s\n",
			p.EbN0dB, p.BER(), p.PER(), p.Frames, p.FrameErrors, p.AvgIterations(), p.Elapsed.Round(1e6))
	}

	curves := toCurves(*alg, *iters, pts)
	if *ascii {
		fmt.Println()
		fmt.Print(curves.ASCII(72, 20))
	}
	if *csvPath != "" {
		if err := withFile(*csvPath, func(f *os.File) error { return curves.WriteCSV(f) }); err != nil {
			log.Fatal(err)
		}
	}
	if *svgPath != "" {
		if err := withFile(*svgPath, func(f *os.File) error { return curves.WriteSVG(f, 720, 480) }); err != nil {
			log.Fatal(err)
		}
	}
}

func sched(layered bool) ldpc.Schedule {
	if layered {
		return ldpc.Layered
	}
	return ldpc.Flooding
}

func toCurves(alg string, iters int, pts []sim.Point) plot.Curves {
	name := fmt.Sprintf("%s-%d", alg, iters)
	var x, ber, per []float64
	for _, p := range pts {
		x = append(x, p.EbN0dB)
		ber = append(ber, p.BER())
		per = append(per, p.PER())
	}
	return plot.Curves{
		Title:  "LDPC decoder performance (paper Figure 4)",
		XLabel: "Eb/N0 (dB)",
		YLabel: "error rate",
		Series: []plot.Series{
			{Name: "BER " + name, X: x, Y: ber, Marker: 'o'},
			{Name: "PER " + name, X: x, Y: per, Marker: 'x'},
		},
	}
}

func withFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
