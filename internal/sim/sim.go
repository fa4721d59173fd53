// Package sim is the Monte-Carlo BER/PER harness that regenerates the
// paper's Figure 4: bit and packet error rates of the decoder versus
// Eb/N0 on a BPSK/AWGN channel.
//
// Frames are simulated in parallel by worker goroutines, each with its
// own decoder instance and split RNG stream, so a run is a deterministic
// function of (config, seed, worker count is irrelevant to the set of
// frames only to their interleaving — statistics are exact counts and
// order-independent).
//
// With Config.BatchSize > 1 each worker fills and decodes whole frame
// batches through a BatchDecoder (the frame-packed SWAR decoder of
// internal/batch), with a shorter tail batch at the MaxFrames boundary;
// every frame is still a pure function of (seed, index).
//
// A point stops when it has seen MinFrameErrors frame errors (sound
// relative precision) or MaxFrames frames, whichever comes first.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/stats"
)

// FrameDecoder is the decoding interface the harness drives. Both
// ldpc.Decoder and fixed.Decoder satisfy it.
type FrameDecoder interface {
	Decode(llr []float64) (ldpc.Result, error)
}

// BatchDecoder decodes several frames per call — the software analogue
// of the paper's frame-packed high-speed memory layout. batch.Parallel
// satisfies it. Result i corresponds to llrs[i]; implementations may
// reuse the Bits vectors across calls.
type BatchDecoder interface {
	Decode(llrs [][]float64) ([]ldpc.Result, error)
}

// Config describes one measurement campaign.
type Config struct {
	// Code under test.
	Code *code.Code
	// NewDecoder creates a per-worker decoder instance.
	NewDecoder func() (FrameDecoder, error)
	// BatchSize > 1 makes every worker fill and decode BatchSize-frame
	// batches through NewBatchDecoder (with a shorter tail batch at the
	// MaxFrames boundary). Frames remain a pure function of
	// (seed, index), so the set of simulated frames — and therefore the
	// statistics — is independent of the batch size.
	BatchSize int
	// NewBatchDecoder creates a per-worker batch decoder; required when
	// BatchSize > 1, ignored otherwise.
	NewBatchDecoder func() (BatchDecoder, error)
	// MinFrameErrors stops a point once this many frame errors have been
	// observed (default 50).
	MinFrameErrors int
	// MaxFrames bounds the work per point (default 100_000).
	MaxFrames int
	// Workers is the parallelism (default GOMAXPROCS).
	Workers int
	// Seed makes the campaign reproducible.
	Seed uint64
	// RandomData encodes random information words instead of simulating
	// the all-zero codeword. The all-zero shortcut is exact for
	// symmetric channels and linear codes; RandomData exercises the
	// encoder too.
	RandomData bool
	// PuncturedCols lists codeword positions that are never transmitted
	// (protograph-punctured nodes). Their channel LLRs are erased to
	// zero, and the channel operates at the effective transmitted rate
	// K / (N − len(PuncturedCols)).
	PuncturedCols []int
	// ShortenedCols lists information positions fixed to zero by frame
	// shortening: never transmitted, known a priori, so the receiver
	// pins their LLRs maximally confident. They are excluded from the
	// transmitted rate and from the information-bit error denominator,
	// giving the shortened code's true BER over its K − S payload bits.
	ShortenedCols []int
}

// shortenedLLR is the receiver's a-priori confidence in a shortened
// (known-zero) position — far beyond any channel draw, so quantized
// decoders saturate it to their format maximum.
const shortenedLLR = 1e3

// ColumnMask expands a codeword-column list into a length-n boolean
// mask, or nil for an empty list.
func ColumnMask(n int, cols []int) []bool {
	if len(cols) == 0 {
		return nil
	}
	mask := make([]bool, n)
	for _, j := range cols {
		mask[j] = true
	}
	return mask
}

// RandomInfo draws a uniform information word from r, leaving
// information positions whose inner codeword column is shortened (known
// zero, never transmitted) clear. shortened may be nil or a length-N
// mask by inner column. It is the one frame generator the Monte-Carlo
// harness, the load generator and the station stream builder share, so
// "the frames encoded into the stream" mean the same thing everywhere.
func RandomInfo(c *code.Code, shortened []bool, r *rng.RNG) *bitvec.Vector {
	info := bitvec.New(c.K)
	for i := 0; i < c.K; i++ {
		if shortened != nil && shortened[c.InfoCols[i]] {
			continue
		}
		if r.Bool() {
			info.Set(i)
		}
	}
	return info
}

func (c *Config) setDefaults() error {
	if c.Code == nil {
		return fmt.Errorf("sim: nil code")
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.BatchSize > 1 {
		if c.NewBatchDecoder == nil {
			return fmt.Errorf("sim: BatchSize %d without a batch decoder factory", c.BatchSize)
		}
	} else if c.NewDecoder == nil {
		return fmt.Errorf("sim: nil decoder factory")
	}
	if c.MinFrameErrors <= 0 {
		c.MinFrameErrors = 50
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = 100000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Point is the measurement at one Eb/N0.
type Point struct {
	EbN0dB float64

	// Frames simulated and frame (packet) errors observed. A frame is in
	// error if any decoded information bit differs from the transmitted
	// one.
	Frames      int64
	FrameErrors int64
	// InfoBits / InfoBitErrors count information-bit errors (the BER the
	// paper plots); CodeBits counts over the whole codeword.
	InfoBits      int64
	InfoBitErrors int64
	CodeBits      int64
	CodeBitErrors int64
	// Converged counts frames whose syndrome reached zero.
	Converged int64
	// TotalIterations across frames (for average-iteration statistics).
	TotalIterations int64

	Elapsed time.Duration
}

// BER returns the information-bit error rate.
func (p Point) BER() float64 {
	if p.InfoBits == 0 {
		return 0
	}
	return float64(p.InfoBitErrors) / float64(p.InfoBits)
}

// PER returns the packet (frame) error rate.
func (p Point) PER() float64 {
	if p.Frames == 0 {
		return 0
	}
	return float64(p.FrameErrors) / float64(p.Frames)
}

// AvgIterations returns the mean decoding iterations per frame.
func (p Point) AvgIterations() float64 {
	if p.Frames == 0 {
		return 0
	}
	return float64(p.TotalIterations) / float64(p.Frames)
}

// BERInterval returns the 95% Wilson interval of the BER.
func (p Point) BERInterval() (lo, hi float64) {
	r := stats.Rate{Events: p.InfoBitErrors, Trials: p.InfoBits}
	return r.Wilson(1.96)
}

// PERInterval returns the 95% Wilson interval of the PER.
func (p Point) PERInterval() (lo, hi float64) {
	r := stats.Rate{Events: p.FrameErrors, Trials: p.Frames}
	return r.Wilson(1.96)
}

// RunPoint measures one Eb/N0 operating point.
func RunPoint(cfg Config, ebn0dB float64) (Point, error) {
	if err := cfg.setDefaults(); err != nil {
		return Point{}, err
	}
	kEff := cfg.Code.K - len(cfg.ShortenedCols)
	nTx := cfg.Code.N - len(cfg.PuncturedCols) - len(cfg.ShortenedCols)
	if nTx <= 0 || nTx < kEff || kEff <= 0 {
		return Point{}, fmt.Errorf("sim: puncturing/shortening leaves %d transmitted bits for k=%d", nTx, kEff)
	}
	ch, err := channel.NewAWGN(ebn0dB, float64(kEff)/float64(nTx))
	if err != nil {
		return Point{}, err
	}
	var punctured []bool
	if len(cfg.PuncturedCols) > 0 {
		punctured = make([]bool, cfg.Code.N)
		for _, j := range cfg.PuncturedCols {
			if j < 0 || j >= cfg.Code.N {
				return Point{}, fmt.Errorf("sim: punctured column %d out of range", j)
			}
			punctured[j] = true
		}
	}
	var shortened []bool
	if len(cfg.ShortenedCols) > 0 {
		shortened = make([]bool, cfg.Code.N)
		for _, j := range cfg.ShortenedCols {
			if j < 0 || j >= cfg.Code.N {
				return Point{}, fmt.Errorf("sim: shortened column %d out of range", j)
			}
			if punctured != nil && punctured[j] {
				return Point{}, fmt.Errorf("sim: column %d both punctured and shortened", j)
			}
			shortened[j] = true
		}
	}
	start := time.Now()
	pointSeed := cfg.Seed ^ uint64(int64(ebn0dB*1000))*0x9e3779b97f4a7c15

	var mu sync.Mutex
	total := Point{EbN0dB: ebn0dB}
	// stopErrs is set once enough frame errors have accumulated; frame
	// indices are claimed atomically so that a MaxFrames-bounded run
	// simulates exactly frames [0, MaxFrames) regardless of scheduling.
	var stopErrs atomic.Bool
	var nextFrame atomic.Int64

	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dec FrameDecoder
			var bdec BatchDecoder
			var err error
			if cfg.BatchSize > 1 {
				bdec, err = cfg.NewBatchDecoder()
			} else {
				dec, err = cfg.NewDecoder()
			}
			if err != nil {
				errs[w] = err
				return
			}
			// The sharded super-batch decoder owns shard goroutines;
			// release them with the worker.
			if closer, ok := bdec.(interface{ Close() }); ok {
				defer closer.Close()
			}
			local := Point{}
			c := cfg.Code
			zero := bitvec.New(c.N)
			flush := func() {
				mu.Lock()
				accumulate(&total, &local)
				if total.FrameErrors >= int64(cfg.MinFrameErrors) {
					stopErrs.Store(true)
				}
				mu.Unlock()
				local = Point{}
			}
			defer flush()
			bs := cfg.BatchSize
			llrs := make([][]float64, 0, bs)
			cws := make([]*bitvec.Vector, 0, bs)
			results := make([]ldpc.Result, 0, bs)
			sinceFlush := 0
			for {
				if stopErrs.Load() {
					return
				}
				// Claim a contiguous run of frame indices; a tail run
				// shorter than the batch size keeps the simulated set
				// exactly [0, MaxFrames).
				base := nextFrame.Add(int64(bs)) - int64(bs)
				if base >= int64(cfg.MaxFrames) {
					return
				}
				n := bs
				if rem := int64(cfg.MaxFrames) - base; int64(n) > rem {
					n = int(rem)
				}
				llrs, cws = llrs[:0], cws[:0]
				for t := 0; t < n; t++ {
					// Every frame is a pure function of (seed, index).
					r := rng.New(pointSeed ^ uint64(base+int64(t))*0xd1b54a32d192ed03)
					cw := zero
					if cfg.RandomData {
						cw = c.Encode(RandomInfo(c, shortened, r))
					}
					llr := ch.CorruptCodeword(cw, r)
					// Punctured positions are never transmitted: the
					// decoder sees an erasure (LLR 0) regardless of the
					// noise draw. Shortened positions are known zeros the
					// receiver pins maximally confident.
					for j, p := range punctured {
						if p {
							llr[j] = 0
						}
					}
					for j, s := range shortened {
						if s {
							llr[j] = shortenedLLR
						}
					}
					llrs = append(llrs, llr)
					cws = append(cws, cw)
				}
				if bdec != nil {
					results, err = bdec.Decode(llrs)
					if err != nil {
						errs[w] = err
						return
					}
				} else {
					results = results[:0]
					for _, llr := range llrs {
						res, err := dec.Decode(llr)
						if err != nil {
							errs[w] = err
							return
						}
						results = append(results, res)
					}
				}
				batchErrs := 0
				for t, res := range results {
					diff := res.Bits.Clone()
					diff.Xor(cws[t])
					codeErrs := diff.PopCount()
					infoErrs := 0
					if codeErrs > 0 {
						for _, j := range c.InfoCols {
							if shortened != nil && shortened[j] {
								continue
							}
							infoErrs += diff.Bit(j)
						}
					}
					local.Frames++
					local.CodeBits += int64(c.N)
					local.InfoBits += int64(kEff)
					local.CodeBitErrors += int64(codeErrs)
					local.InfoBitErrors += int64(infoErrs)
					local.TotalIterations += int64(res.Iterations)
					if res.Converged {
						local.Converged++
					}
					if infoErrs > 0 {
						local.FrameErrors++
						batchErrs++
					}
				}
				// Flush every few frames so the error-stop condition is
				// responsive without lock contention.
				sinceFlush += n
				if sinceFlush >= 8 || batchErrs > 0 {
					flush()
					sinceFlush = 0
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Point{}, err
		}
	}
	total.Elapsed = time.Since(start)
	return total, nil
}

func accumulate(dst, src *Point) {
	dst.Frames += src.Frames
	dst.FrameErrors += src.FrameErrors
	dst.InfoBits += src.InfoBits
	dst.InfoBitErrors += src.InfoBitErrors
	dst.CodeBits += src.CodeBits
	dst.CodeBitErrors += src.CodeBitErrors
	dst.Converged += src.Converged
	dst.TotalIterations += src.TotalIterations
}

// RunSweep measures a whole Eb/N0 curve.
func RunSweep(cfg Config, ebn0s []float64) ([]Point, error) {
	pts := make([]Point, 0, len(ebn0s))
	for _, e := range ebn0s {
		p, err := RunPoint(cfg, e)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// Sweep builds a uniformly spaced Eb/N0 grid.
func Sweep(from, to, step float64) []float64 {
	if step <= 0 || to < from {
		panic(fmt.Sprintf("sim: bad sweep [%v,%v] step %v", from, to, step))
	}
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, x)
	}
	return out
}
