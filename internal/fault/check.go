package fault

import (
	"fmt"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/hwsim"
	"ccsdsldpc/internal/protect"
	"ccsdsldpc/internal/rng"
)

// CheckConfig configures the cross-decoder equivalence oracle.
type CheckConfig struct {
	// Code under test; must be block-circulant (carry a Table).
	Code *code.Code
	// Params is the fixed-point operating point; DisableEarlyStop is
	// ignored (the oracle exercises both schedules itself).
	Params fixed.Params
	// Scenarios is the number of seeded fault scenarios to replay
	// (default 100).
	Scenarios int
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// EbN0dB is the channel operating point (default 3 dB).
	EbN0dB float64
	// UpsetRate is the per-bit per-write SEU probability; 0 picks a rate
	// giving a mean of 6 upsets per scenario.
	UpsetRate float64
	// Protect, when not ModeOff, interposes a protect.Guard between the
	// fault injector and every decoder, extending the equivalence oracle
	// to the mitigated datapath: scrub decisions must also replay
	// bit-identically across the three decoders.
	Protect protect.Mode
	// PuncturedCols lists codeword positions the channel never carries
	// (protograph-punctured nodes): their LLRs enter every decoder as
	// erasures (zero), and the channel operates at the effective
	// transmitted rate K / (N − len(PuncturedCols)). This lets the
	// oracle replay the registry's punctured protograph codes under the
	// same conditions the BER harness simulates them.
	PuncturedCols []int
	// Parallel lists the sharded super-batch geometries that must also
	// replay every scenario bit-identically. The scenario's eight frames
	// occupy word 0 of each super-batch, so geometries with SuperBatch>1
	// additionally exercise the partial-super-batch path under faults.
	// Nil picks a default matrix covering even, uneven and degenerate
	// partitions plus wide-lane strips: {S2,B1}, {S3,B2}, {S4,B4},
	// {S1,B1,L4}, {S2,B2,L8} and {S3,B2,L8} (L = LaneWidth).
	Parallel []batch.ParallelConfig
}

// CheckReport summarizes a CrossCheck campaign.
type CheckReport struct {
	// Scenarios replayed; HwsimScenarios of them also ran the
	// cycle-accurate machine (the fixed-period ones).
	Scenarios      int
	HwsimScenarios int
	// LanesCompared counts (scenario, lane) comparisons.
	LanesCompared int
	// ParallelLanesCompared counts the additional (scenario, geometry,
	// lane) comparisons against the sharded super-batch decoders.
	ParallelLanesCompared int
	// SEUs, Stuck, Erasures total the injected faults.
	SEUs, Stuck, Erasures int
	// Converged counts lanes whose syndrome still reached zero.
	Converged int
	// Corrected and Neutralized total the guard's scrub outcomes across
	// all decoders (zero when Protect is ModeOff). Each decoder replays
	// the same scrubs, so these grow with every decoder run — they
	// witness guard activity, not unique fault counts.
	Corrected, Neutralized int64
}

// CrossCheck replays seeded random fault scenarios through the scalar
// fixed-point decoder, the frame-packed SWAR decoder at its
// single-word geometry, every sharded super-batch geometry in
// cfg.Parallel, and — on the fixed-period scenarios — the
// cycle-accurate architecture model, and verifies they emit identical
// hard decisions, iteration counts and convergence flags lane for
// lane. Even-numbered scenarios use the hardware's
// fixed-period schedule and include hwsim; odd-numbered scenarios use
// per-frame early stop, which hwsim does not implement (its optional
// early stop terminates per batch), so they compare the fixed, batch
// and sharded decoders only.
//
// It returns a non-nil error at the first divergence, identifying the
// scenario and lane.
func CrossCheck(cfg CheckConfig) (CheckReport, error) {
	rep := CheckReport{}
	if cfg.Scenarios <= 0 {
		cfg.Scenarios = 100
	}
	if cfg.EbN0dB == 0 {
		cfg.EbN0dB = 3
	}
	g, err := NewGeometry(cfg.Code, cfg.Params.Format)
	if err != nil {
		return rep, err
	}
	lanes := batch.Lanes
	rcfg := RandomConfig{Lanes: lanes, Iterations: cfg.Params.MaxIterations}
	rcfg.UpsetRate = cfg.UpsetRate
	if rcfg.UpsetRate == 0 {
		rcfg.UpsetRate = 6 / rcfg.Exposure(g)
	}

	fp := cfg.Params
	fp.DisableEarlyStop = true
	es := cfg.Params
	es.DisableEarlyStop = false

	fdFP, err := fixed.NewDecoder(cfg.Code, fp)
	if err != nil {
		return rep, err
	}
	fdES, err := fixed.NewDecoder(cfg.Code, es)
	if err != nil {
		return rep, err
	}
	bdFP, err := batch.NewParallel(cfg.Code, fp, batch.ParallelConfig{})
	if err != nil {
		return rep, err
	}
	defer bdFP.Close()
	bdES, err := batch.NewParallel(cfg.Code, es, batch.ParallelConfig{})
	if err != nil {
		return rep, err
	}
	defer bdES.Close()
	pcfgs := cfg.Parallel
	if pcfgs == nil {
		pcfgs = []batch.ParallelConfig{
			{Shards: 2, SuperBatch: 1},
			{Shards: 3, SuperBatch: 2},
			{Shards: 4, SuperBatch: 4},
			{Shards: 1, SuperBatch: 1, LaneWidth: 4},
			{Shards: 2, SuperBatch: 2, LaneWidth: 8},
			{Shards: 3, SuperBatch: 2, LaneWidth: 8},
		}
	}
	pdFP := make([]*batch.Parallel, len(pcfgs))
	pdES := make([]*batch.Parallel, len(pcfgs))
	for i, pc := range pcfgs {
		if pdFP[i], err = batch.NewParallel(cfg.Code, fp, pc); err != nil {
			return rep, fmt.Errorf("parallel S%dW%dL%d: %w", pc.Shards, pc.SuperBatch, pc.LaneWidth, err)
		}
		defer pdFP[i].Close()
		if pdES[i], err = batch.NewParallel(cfg.Code, es, pc); err != nil {
			return rep, fmt.Errorf("parallel S%dW%dL%d: %w", pc.Shards, pc.SuperBatch, pc.LaneWidth, err)
		}
		defer pdES[i].Close()
	}
	mach, err := hwsim.New(cfg.Code, hwsim.Config{
		Format:     cfg.Params.Format,
		Scale:      cfg.Params.Scale,
		Iterations: cfg.Params.MaxIterations,
		Frames:     lanes,
		ClockMHz:   200,
	})
	if err != nil {
		return rep, err
	}
	nTx := cfg.Code.N - len(cfg.PuncturedCols)
	if nTx <= 0 || nTx < cfg.Code.K {
		return rep, fmt.Errorf("fault: puncturing leaves %d transmitted bits for k=%d", nTx, cfg.Code.K)
	}
	var punctured []bool
	if len(cfg.PuncturedCols) > 0 {
		punctured = make([]bool, cfg.Code.N)
		for _, j := range cfg.PuncturedCols {
			if j < 0 || j >= cfg.Code.N {
				return rep, fmt.Errorf("fault: punctured column %d out of range", j)
			}
			punctured[j] = true
		}
	}
	ch, err := channel.NewAWGN(cfg.EbN0dB, float64(cfg.Code.K)/float64(nTx))
	if err != nil {
		return rep, err
	}
	var guard *protect.Guard
	if cfg.Protect != protect.ModeOff {
		guard, err = protect.NewGuard(protect.Config{
			Mode:   cfg.Protect,
			Format: cfg.Params.Format,
			Lanes:  lanes,
			Edges:  g.E,
		})
		if err != nil {
			return rep, err
		}
	}

	qllr := make([][]int16, lanes)
	for f := range qllr {
		qllr[f] = make([]int16, cfg.Code.N)
	}
	fixedBits := make([]*bitvec.Vector, lanes)
	fixedIters := make([]int, lanes)
	fixedConv := make([]bool, lanes)

	root := rng.New(cfg.Seed)
	for s := 0; s < cfg.Scenarios; s++ {
		scenSeed := root.Uint64()
		sr := rng.New(scenSeed)

		rc := rcfg
		if s%4 == 1 {
			rc.StuckAts = 1
		}
		if s%3 == 2 {
			rc.Erasures = 2
		}
		plan := RandomPlan(g, rc, sr.Uint64())
		seus, stuck, erasures := plan.Counts()
		rep.SEUs += seus
		rep.Stuck += stuck
		rep.Erasures += erasures

		// Random codewords: faults break the channel symmetry that makes
		// the all-zero shortcut exact, so transmit real data.
		for f := 0; f < lanes; f++ {
			info := bitvec.New(cfg.Code.K)
			for i := 0; i < cfg.Code.K; i++ {
				if sr.Bool() {
					info.Set(i)
				}
			}
			cw := cfg.Code.Encode(info)
			llr := ch.CorruptCodeword(cw, sr)
			cfg.Params.Format.QuantizeSlice(qllr[f], llr)
			for j, p := range punctured {
				if p {
					qllr[f][j] = 0
				}
			}
			plan.ApplyErasures(f, qllr[f])
		}

		inj, err := NewInjector(g, plan)
		if err != nil {
			return rep, fmt.Errorf("scenario %d (seed %#x): %w", s, scenSeed, err)
		}
		// The decoders see the guard (which wraps the fault source) when
		// protection is on, the bare injector otherwise.
		var dinj fixed.Injector = inj
		if guard != nil {
			guard.Attach(inj)
			dinj = guard
		}

		fixedPeriod := s%2 == 0
		fd, bd := fdES, bdES
		if fixedPeriod {
			fd, bd = fdFP, bdFP
		}

		for f := 0; f < lanes; f++ {
			fd.SetInjector(dinj, f)
			res := fd.DecodeQ(qllr[f])
			fixedBits[f] = res.Bits.Clone()
			fixedIters[f] = res.Iterations
			fixedConv[f] = res.Converged
			if res.Converged {
				rep.Converged++
			}
		}
		fd.SetInjector(nil, 0)

		bd.SetInjector(dinj)
		bres, err := bd.DecodeQ(qllr)
		bd.SetInjector(nil)
		if err != nil {
			return rep, fmt.Errorf("scenario %d (seed %#x): batch: %w", s, scenSeed, err)
		}
		for f := 0; f < lanes; f++ {
			if !bres[f].Bits.Equal(fixedBits[f]) {
				return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: batch hard decision diverges from fixed", s, scenSeed, f)
			}
			if bres[f].Iterations != fixedIters[f] {
				return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: batch ran %d iterations, fixed %d",
					s, scenSeed, f, bres[f].Iterations, fixedIters[f])
			}
			if bres[f].Converged != fixedConv[f] {
				return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: batch converged=%v, fixed %v",
					s, scenSeed, f, bres[f].Converged, fixedConv[f])
			}
		}

		pds := pdES
		if fixedPeriod {
			pds = pdFP
		}
		for i, pd := range pds {
			pc := pcfgs[i]
			pd.SetInjector(dinj)
			pres, err := pd.DecodeQ(qllr)
			pd.SetInjector(nil)
			if err != nil {
				return rep, fmt.Errorf("scenario %d (seed %#x): parallel S%dW%dL%d: %w", s, scenSeed, pc.Shards, pc.SuperBatch, pc.LaneWidth, err)
			}
			for f := 0; f < lanes; f++ {
				if !pres[f].Bits.Equal(fixedBits[f]) {
					return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: parallel S%dW%dL%d hard decision diverges from fixed",
						s, scenSeed, f, pc.Shards, pc.SuperBatch, pc.LaneWidth)
				}
				if pres[f].Iterations != fixedIters[f] {
					return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: parallel S%dW%dL%d ran %d iterations, fixed %d",
						s, scenSeed, f, pc.Shards, pc.SuperBatch, pc.LaneWidth, pres[f].Iterations, fixedIters[f])
				}
				if pres[f].Converged != fixedConv[f] {
					return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: parallel S%dW%dL%d converged=%v, fixed %v",
						s, scenSeed, f, pc.Shards, pc.SuperBatch, pc.LaneWidth, pres[f].Converged, fixedConv[f])
				}
			}
			rep.ParallelLanesCompared += lanes
		}

		if fixedPeriod {
			mach.SetInjector(dinj)
			hard, cycles, err := mach.DecodeBatch(qllr)
			mach.SetInjector(nil)
			if err != nil {
				return rep, fmt.Errorf("scenario %d (seed %#x): hwsim: %w", s, scenSeed, err)
			}
			if cycles.IterationsRun != fixedIters[0] {
				return rep, fmt.Errorf("scenario %d (seed %#x): hwsim ran %d iterations, fixed %d",
					s, scenSeed, cycles.IterationsRun, fixedIters[0])
			}
			for f := 0; f < lanes; f++ {
				if !hard[f].Equal(fixedBits[f]) {
					return rep, fmt.Errorf("scenario %d (seed %#x) lane %d: hwsim hard decision diverges from fixed", s, scenSeed, f)
				}
			}
			rep.HwsimScenarios++
		}
		rep.Scenarios++
		rep.LanesCompared += lanes
	}
	if guard != nil {
		st := guard.Stats()
		rep.Corrected, rep.Neutralized = st.Corrected, st.Neutralized
	}
	return rep, nil
}
