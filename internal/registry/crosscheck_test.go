package registry

import (
	"testing"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/fault"
	"ccsdsldpc/internal/fixed"
)

// TestCrossCheckAllCodes replays seeded SEU scenarios through the
// scalar fixed-point decoder, the SWAR batch decoder, two sharded
// geometries (the second at the widest 8-word strip, so every code's
// circulant-run layout is checked there) and, on the fixed-period
// half, the cycle-accurate machine for every registry code — the
// acceptance oracle that the multi-mode catalog decodes bit-identically
// on every engine, punctured protograph codes included. The scenario
// count is small because the full-size codes make each scenario a
// complete multi-engine decode; the miniature-code campaign in
// internal/fault carries the volume.
func TestCrossCheckAllCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size multi-engine decodes")
	}
	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = 8
	for _, e := range Default().Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			b, err := e.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := fault.CrossCheck(fault.CheckConfig{
				Code:          b.Code,
				Params:        p,
				Scenarios:     2,
				Seed:          uint64(e.ID) + 1,
				PuncturedCols: b.PuncturedCols,
				Parallel:      []batch.ParallelConfig{{Shards: 2, SuperBatch: 1}, {Shards: 3, SuperBatch: 2, LaneWidth: 8}},
			})
			if err != nil {
				t.Fatalf("decoders diverged: %v", err)
			}
			if rep.Scenarios != 2 || rep.HwsimScenarios != 1 {
				t.Errorf("replayed %d scenarios (%d with hwsim), want 2 (1)", rep.Scenarios, rep.HwsimScenarios)
			}
			if rep.SEUs == 0 {
				t.Error("campaign injected no SEUs")
			}
			t.Logf("%s: %d lanes compared, %d SEUs, %d erasures, %d converged",
				e.Name, rep.LanesCompared, rep.SEUs, rep.Erasures, rep.Converged)
		})
	}
}
