package ccsdsldpc

import (
	"fmt"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/sim"
)

// Algorithm selects the decoding rule.
type Algorithm int

// The supported decoding algorithms. The first four are the soft
// message-passing decoders of paper Sections 2.1 and 5; GallagerB and
// WBF are hard-decision baselines (Gallager's algorithm B from the
// paper's reference [6], and weighted bit-flipping).
const (
	SumProduct Algorithm = iota
	MinSum
	NormalizedMinSum
	OffsetMinSum
	GallagerB
	WBF
)

// Config selects the decoder the system uses.
type Config struct {
	// Algorithm is the check-node update rule.
	Algorithm Algorithm
	// Iterations is the decoding period (paper default trade-off: 18).
	Iterations int
	// Alpha is the normalization divisor for NormalizedMinSum; the
	// paper's fixed datapath realizes α = 4/3.
	Alpha float64
	// AlphaSchedule optionally enables the paper's fine-scaled
	// per-iteration factor (overrides Alpha when non-nil).
	AlphaSchedule []float64
	// Beta is the OffsetMinSum offset.
	Beta float64
	// Layered selects the layered schedule instead of flooding.
	Layered bool
	// Quantized selects the bit-exact fixed-point datapath (the
	// hardware's arithmetic) instead of floating point.
	Quantized bool
	// QuantBits is the fixed-point message width (6 = low-cost datapath,
	// 5 = high-speed datapath). Only used when Quantized is set.
	QuantBits int
}

// DefaultConfig returns the paper's operating point: normalized min-sum,
// 18 iterations, α = 4/3.
func DefaultConfig() Config {
	return Config{Algorithm: NormalizedMinSum, Iterations: 18, Alpha: 4.0 / 3}
}

// System bundles the CCSDS code, a decoder and the channel utilities
// behind a bit-slice API (one bit per byte element, 0 or 1).
type System struct {
	code *code.Code
	cfg  Config
	dec  frameDecoder
}

type frameDecoder interface {
	Decode(llr []float64) (ldpc.Result, error)
}

// NewSystem builds a System over the built-in CCSDS (8176, 7156) code.
// Construction is cached process-wide, so creating several Systems is
// cheap.
func NewSystem(cfg Config) (*System, error) {
	c, err := code.CCSDS()
	if err != nil {
		return nil, err
	}
	return newSystemForCode(c, cfg)
}

// NewTestSystem builds a System over a miniature code with the same
// structure (useful for fast experimentation and tests).
func NewTestSystem(cfg Config) (*System, error) {
	c, err := code.SmallTestCode(2, 4, 31, 1)
	if err != nil {
		return nil, err
	}
	return newSystemForCode(c, cfg)
}

func newSystemForCode(c *code.Code, cfg Config) (*System, error) {
	s := &System{code: c, cfg: cfg}
	var err error
	s.dec, err = buildDecoder(c, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func buildDecoder(c *code.Code, cfg Config) (frameDecoder, error) {
	if cfg.Quantized {
		if cfg.Algorithm != NormalizedMinSum {
			return nil, fmt.Errorf("ccsdsldpc: the quantized datapath implements NormalizedMinSum only")
		}
		bits := cfg.QuantBits
		if bits == 0 {
			bits = 6
		}
		frac := bits - 4 // keep ~±8 range as the hardware does
		if frac < 0 {
			frac = 0
		}
		alpha := cfg.Alpha
		if alpha == 0 {
			alpha = 4.0 / 3
		}
		scale, err := fixed.ScaleForAlpha(alpha, 4)
		if err != nil {
			return nil, err
		}
		return fixed.NewDecoder(c, fixed.Params{
			Format:        fixed.Format{Bits: bits, Frac: frac},
			Scale:         scale,
			MaxIterations: cfg.Iterations,
		})
	}
	switch cfg.Algorithm {
	case GallagerB:
		return ldpc.NewGallagerB(c, cfg.Iterations, 0)
	case WBF:
		// Bit-flipping repairs one bit per iteration; give it headroom
		// proportional to the iteration budget.
		return ldpc.NewWBF(c, cfg.Iterations*4)
	}
	var alg ldpc.Algorithm
	switch cfg.Algorithm {
	case SumProduct:
		alg = ldpc.SumProduct
	case MinSum:
		alg = ldpc.MinSum
	case NormalizedMinSum:
		alg = ldpc.NormalizedMinSum
	case OffsetMinSum:
		alg = ldpc.OffsetMinSum
	default:
		return nil, fmt.Errorf("ccsdsldpc: unknown algorithm %d", int(cfg.Algorithm))
	}
	sched := ldpc.Flooding
	if cfg.Layered {
		sched = ldpc.Layered
	}
	return ldpc.NewDecoder(c, ldpc.Options{
		Algorithm:     alg,
		Schedule:      sched,
		MaxIterations: cfg.Iterations,
		Alpha:         cfg.Alpha,
		AlphaSchedule: cfg.AlphaSchedule,
		Beta:          cfg.Beta,
	})
}

// buildBatchDecoder builds the frame-packed SWAR decoder for a config.
// Batch decoding packs the quantized normalized-min-sum datapath only:
// it is the software analogue of the paper's high-speed memory layout,
// which stores one fixed-point message per frame side by side in a
// wide word. QuantBits defaults to 5 here (the high-speed format); the
// packed int8 lanes cannot hold the 6-bit low-cost format's sums.
//
// The super-batch depth is the fewest laneWidth-word strips that hold
// batchSize frames; shards spreads each decode across cores. Every
// geometry is bit-identical.
func buildBatchDecoder(c *code.Code, cfg Config, batchSize, shards, laneWidth int) (sim.BatchDecoder, error) {
	if !cfg.Quantized || cfg.Algorithm != NormalizedMinSum {
		return nil, fmt.Errorf("ccsdsldpc: batch decoding requires the quantized NormalizedMinSum datapath")
	}
	bits := cfg.QuantBits
	if bits == 0 {
		bits = 5
	}
	frac := bits - 4
	if frac < 0 {
		frac = 0
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 4.0 / 3
	}
	scale, err := fixed.ScaleForAlpha(alpha, 4)
	if err != nil {
		return nil, err
	}
	p := fixed.Params{
		Format:        fixed.Format{Bits: bits, Frac: frac},
		Scale:         scale,
		MaxIterations: cfg.Iterations,
	}
	if batchSize > batch.MaxFrames {
		return nil, fmt.Errorf("ccsdsldpc: batch size %d beyond the %d-frame super-batch capacity", batchSize, batch.MaxFrames)
	}
	if laneWidth == 0 {
		laneWidth = 1
	}
	if !batch.ValidLaneWidth(laneWidth) {
		return nil, fmt.Errorf("ccsdsldpc: lane width %d not in {1, 2, 4, 8}", laneWidth)
	}
	words := (batchSize + batch.Lanes - 1) / batch.Lanes
	super := (words + laneWidth - 1) / laneWidth
	if super > batch.MaxSuperBatch {
		return nil, fmt.Errorf("ccsdsldpc: batch size %d beyond the %d-strip capacity at lane width %d",
			batchSize, batch.MaxSuperBatch, laneWidth)
	}
	return batch.NewParallel(c, p, batch.ParallelConfig{Shards: shards, SuperBatch: super, LaneWidth: laneWidth})
}

// N returns the codeword length (8176 for the CCSDS code).
func (s *System) N() int { return s.code.N }

// K returns the information length (7156 for the CCSDS code).
func (s *System) K() int { return s.code.K }

// Rate returns K/N.
func (s *System) Rate() float64 { return s.code.Rate() }

// ParityOnes returns the (row, column) positions of the ones of H — the
// scatter data of the paper's Figure 2.
func (s *System) ParityOnes() [][2]int { return s.code.Ones() }

// Encode maps K information bits (one per byte, 0/1) to an N-bit
// codeword in the same representation.
func (s *System) Encode(info []byte) ([]byte, error) {
	if len(info) != s.code.K {
		return nil, fmt.Errorf("ccsdsldpc: %d info bits, want %d", len(info), s.code.K)
	}
	return s.code.Encode(bitvec.FromBits(info)).Bits(), nil
}

// IsCodeword reports whether the N bits satisfy all parity checks.
func (s *System) IsCodeword(bits []byte) (bool, error) {
	if len(bits) != s.code.N {
		return false, fmt.Errorf("ccsdsldpc: %d bits, want %d", len(bits), s.code.N)
	}
	return s.code.IsCodeword(bitvec.FromBits(bits)), nil
}

// Corrupt sends a codeword through BPSK/AWGN at the given Eb/N0 (dB) and
// returns channel LLRs, using a deterministic seed.
func (s *System) Corrupt(cw []byte, ebn0dB float64, seed uint64) ([]float64, error) {
	if len(cw) != s.code.N {
		return nil, fmt.Errorf("ccsdsldpc: %d bits, want %d", len(cw), s.code.N)
	}
	ch, err := channel.NewAWGN(ebn0dB, s.code.Rate())
	if err != nil {
		return nil, err
	}
	return ch.CorruptCodeword(bitvec.FromBits(cw), rng.New(seed)), nil
}

// Result is the outcome of a decode.
type Result struct {
	// Bits is the N-bit hard decision (one per byte, 0/1).
	Bits []byte
	// Info is the K-bit information extraction of Bits.
	Info []byte
	// Iterations executed and whether the syndrome reached zero.
	Iterations int
	Converged  bool
}

// Decode runs the configured decoder on N channel LLRs (positive favours
// bit 0).
func (s *System) Decode(llr []float64) (Result, error) {
	res, err := s.dec.Decode(llr)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Bits:       res.Bits.Bits(),
		Info:       s.code.ExtractInfo(res.Bits).Bits(),
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}, nil
}

// InternalCode exposes the underlying code construction for advanced use
// (tools and benchmarks in this module).
func (s *System) InternalCode() *code.Code { return s.code }

// encodeBits encodes a bit-per-byte information slice on any code.
func encodeBits(c *code.Code, info []byte) []byte {
	return c.Encode(bitvec.FromBits(info)).Bits()
}
