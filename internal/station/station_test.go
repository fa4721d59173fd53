package station

import (
	"testing"
	"time"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/frame"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// testBuilt wraps a small deterministic code as a catalog-style entry
// (identity wire map, nothing shortened or punctured) so station tests
// run in milliseconds instead of C2 seconds.
func testBuilt(t testing.TB) *registry.Built {
	t.Helper()
	c, err := code.SmallTestCode(2, 4, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]int, c.N)
	for i := range tx {
		tx[i] = i
	}
	return &registry.Built{Code: c, TxPositions: tx}
}

// testDecode stands up a decode pool for the code and returns its
// DecodeFunc; the server is shut down with the test.
func testDecode(t testing.TB, b *registry.Built) DecodeFunc {
	t.Helper()
	p := fixed.DefaultHighSpeedParams()
	srv, err := serve.New(serve.Config{Code: b.Code, Params: p, Workers: 2, Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return PoolDecode(b, srv, p.Format)
}

func TestStationCleanStream(t *testing.T) {
	b := testBuilt(t)
	dec := testDecode(t, b)
	frameTotal := frame.ASMBits + len(b.TxPositions)
	for _, chunk := range []int{0, 997} {
		res, err := RunScenario(
			Config{Built: b, Decode: dec, EbN0dB: 7},
			StreamConfig{Frames: 30, EbN0dB: 7, Seed: 1, CutBits: frameTotal / 2},
			chunk,
		)
		if err != nil {
			t.Fatal(err)
		}
		// The cut lands mid-frame 0, so 29 frames are recoverable — and
		// at 7 dB all of them must come back bit-exact.
		if res.CleanFrames != 29 {
			t.Fatalf("chunk %d: %d clean frames, want 29", chunk, res.CleanFrames)
		}
		if res.BitExact != 29 || res.Corrupt != 0 || res.Missed != 0 || res.ExtraCadus != 0 {
			t.Fatalf("chunk %d: exact %d corrupt %d missed %d extra %d", chunk,
				res.BitExact, res.Corrupt, res.Missed, res.ExtraCadus)
		}
		m := res.Metrics
		if m.Locks != 1 || m.Unlocks != 0 || m.SlipsCorrected != 0 {
			t.Fatalf("chunk %d: metrics %+v", chunk, m)
		}
		assertFramesBalance(t, m)
	}
}

// assertFramesBalance checks that after a pass every aligned frame has
// exactly one outcome: a CADU emitted, a syndrome rejection, or a
// decode error.
func assertFramesBalance(t *testing.T, m Snapshot) {
	t.Helper()
	if m.FramesAligned != m.CadusEmitted+m.CadusRejected+m.DecodeErrors {
		t.Errorf("frames aligned %d != CADUs emitted %d + rejected %d + decode errors %d",
			m.FramesAligned, m.CadusEmitted, m.CadusRejected, m.DecodeErrors)
	}
}

// TestStationAcceptanceScenario is the issue's acceptance run in
// miniature: a QPSK pass with three clock slips, two mid-stream 90°
// rotation flips and a two-frame burst erasure must recover at least
// 99% of the recoverable CADUs bit-exactly, with re-lock inside two
// frame lengths.
func TestStationAcceptanceScenario(t *testing.T) {
	b := testBuilt(t)
	dec := testDecode(t, b)
	res, err := RunScenario(
		Config{Built: b, Decode: dec, EbN0dB: 7},
		StreamConfig{
			Frames:        40,
			EbN0dB:        7,
			BitsPerSymbol: 2,
			Seed:          2,
			CutBits:       50,
			Scenario: Scenario{
				Slips: []Slip{
					{Frame: 6, Symbol: 40, Symbols: 1},
					{Frame: 14, Symbol: 10, Symbols: -2},
					{Frame: 22, Symbol: 55, Symbols: 2},
				},
				Flips: []Flip{
					{Frame: 10, Symbol: 30, Quarters: 1},
					{Frame: 28, Symbol: 20, Quarters: 1},
				},
				Bursts: []Burst{{Frame: 33, Frames: 2}},
			},
		},
		4096,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.ExtraCadus != 0 {
		t.Fatalf("corrupt %d extra %d, want 0", res.Corrupt, res.ExtraCadus)
	}
	if res.RecoveredFraction < 0.99 {
		t.Fatalf("recovered %.3f of %d clean frames, want ≥ 0.99 (missed %d)",
			res.RecoveredFraction, res.CleanFrames, res.Missed)
	}
	if res.RelockFramesMax > 2 {
		t.Fatalf("re-lock latency %.2f frame lengths, want ≤ 2", res.RelockFramesMax)
	}
	m := res.Metrics
	if m.SlipsCorrected < 3 {
		t.Fatalf("slips corrected %d, want ≥ 3", m.SlipsCorrected)
	}
	if m.RotationsResolved < 2 {
		t.Fatalf("rotations resolved %d, want ≥ 2", m.RotationsResolved)
	}
	if m.FlywheelMisses < 1 {
		t.Fatalf("flywheel misses %d, want ≥ 1 (burst)", m.FlywheelMisses)
	}
	assertFramesBalance(t, m)
}

// TestStationMidStreamSNRDrift ramps the operating point through the
// decode knee and back: trough frames must be dropped by the syndrome
// gate — never emitted corrupt — and the lock must ride through the
// fade without false re-acquisition.
func TestStationMidStreamSNRDrift(t *testing.T) {
	b := testBuilt(t)
	dec := testDecode(t, b)
	res, err := RunScenario(
		Config{Built: b, Decode: dec, EbN0dB: 7},
		StreamConfig{
			Frames: 32,
			EbN0dB: 7,
			Seed:   3,
			Scenario: Scenario{
				Drift: &Drift{FromFrame: 8, ToFrame: 24, MinEbN0dB: -3},
			},
		},
		8192,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.ExtraCadus != 0 {
		t.Fatalf("corrupt %d extra %d, want 0", res.Corrupt, res.ExtraCadus)
	}
	m := res.Metrics
	if m.CadusRejected == 0 && res.Missed == 0 {
		t.Fatal("drift trough dropped no frames — the ramp did not cross the knee")
	}
	if m.Locks != 1 || m.Unlocks != 0 {
		t.Fatalf("locks %d unlocks %d: lock did not ride through the fade", m.Locks, m.Unlocks)
	}
	assertFramesBalance(t, m)
	// Only the trough can fail; frames outside the ramp must decode.
	if min := res.CleanFrames - (24 - 8); res.BitExact < min {
		t.Fatalf("bit-exact %d of %d clean frames, want ≥ %d", res.BitExact, res.CleanFrames, min)
	}
}

func TestStationBothConstellations(t *testing.T) {
	// The same telemetry rides either constellation: every clean frame
	// must come back bit-exact on BPSK and on QPSK (two BPSK channels
	// in this architecture).
	b := testBuilt(t)
	dec := testDecode(t, b)
	for _, bps := range []int{1, 2} {
		res, err := RunScenario(
			Config{Built: b, Decode: dec, EbN0dB: 8},
			StreamConfig{Frames: 10, EbN0dB: 8, BitsPerSymbol: bps, Seed: 4},
			0,
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.BitExact != res.CleanFrames || res.Corrupt != 0 || res.ExtraCadus != 0 {
			t.Fatalf("bps %d: exact %d/%d corrupt %d extra %d",
				bps, res.BitExact, res.CleanFrames, res.Corrupt, res.ExtraCadus)
		}
	}
}
