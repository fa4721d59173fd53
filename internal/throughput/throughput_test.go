package throughput

import (
	"math"
	"strings"
	"testing"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/hwsim"
)

func TestMbpsFormula(t *testing.T) {
	// 1000 info bits, 1 frame, 10000 cycles at 100 MHz:
	// 1000 bits / 100 µs = 10 Mbps.
	got, err := Mbps(1000, 10000, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("Mbps = %v, want 10", got)
	}
	// Packing 8 frames multiplies by 8.
	if got, err := Mbps(1000, 10000, 8, 100); err != nil || math.Abs(got-80) > 1e-9 {
		t.Fatalf("packed Mbps = %v (err %v), want 80", got, err)
	}
}

func TestMbpsErrorsOnBadConfig(t *testing.T) {
	for _, tc := range []struct {
		cycles int
		clock  float64
	}{{0, 100}, {-5, 100}, {10000, 0}, {10000, -1}} {
		if got, err := Mbps(1000, tc.cycles, 1, tc.clock); err == nil {
			t.Errorf("Mbps(cycles=%d, clock=%v) = %v, want error", tc.cycles, tc.clock, got)
		}
	}
}

// TestTable1Reproduction regenerates Table 1 and checks the shape
// against the paper: high-speed = 8 × low-cost at every row, throughput
// within ~12% of the published values, and inverse proportionality to
// the iteration count.
func TestTable1Reproduction(t *testing.T) {
	c := code.MustCCSDS()
	rows, err := Table1(c, []int{10, 18, 50}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		paper := PaperTable1[i]
		if r.Iterations != paper.Iterations {
			t.Fatalf("row %d iterations %d, want %d", i, r.Iterations, paper.Iterations)
		}
		// Exact 8x between the two configurations (same controller).
		if math.Abs(r.HighSpeedMbps/r.LowCostMbps-8) > 1e-9 {
			t.Errorf("iter %d: HS/LC ratio = %v, want exactly 8", r.Iterations, r.HighSpeedMbps/r.LowCostMbps)
		}
		if math.Abs(r.LowCostMbps-paper.LowCostMbps) > 0.12*paper.LowCostMbps {
			t.Errorf("iter %d: low-cost %.1f Mbps vs paper %.0f", r.Iterations, r.LowCostMbps, paper.LowCostMbps)
		}
		if math.Abs(r.HighSpeedMbps-paper.HighSpeedMbps) > 0.12*paper.HighSpeedMbps {
			t.Errorf("iter %d: high-speed %.1f Mbps vs paper %.0f", r.Iterations, r.HighSpeedMbps, paper.HighSpeedMbps)
		}
	}
	// Monotone decreasing in iterations.
	if !(rows[0].LowCostMbps > rows[1].LowCostMbps && rows[1].LowCostMbps > rows[2].LowCostMbps) {
		t.Error("throughput not decreasing with iterations")
	}
	t.Logf("\n%s", FormatTable(rows, PaperTable1))
}

func TestThroughputScalesWithClock(t *testing.T) {
	c := code.MustCCSDS()
	a, err := Table1(c, []int{18}, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(c, []int{18}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0].LowCostMbps/b[0].LowCostMbps-2) > 1e-9 {
		t.Errorf("halving the clock did not halve throughput: %v vs %v", a[0].LowCostMbps, b[0].LowCostMbps)
	}
}

func TestMachineMbpsAgreesWithTable(t *testing.T) {
	c := code.MustCCSDS()
	cfg := hwsim.LowCost()
	m, err := hwsim.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1(c, []int{18}, 200)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MachineMbps(m, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-rows[0].LowCostMbps) > 1e-9 {
		t.Errorf("MachineMbps %v != Table1 %v", got, rows[0].LowCostMbps)
	}
	if hs, err := HighSpeedMbps(18); err != nil || math.Abs(hs-rows[0].HighSpeedMbps) > 1e-9 {
		t.Errorf("HighSpeedMbps(18) = %v, %v; Table1 %v", hs, err, rows[0].HighSpeedMbps)
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Row{{Iterations: 18, LowCostMbps: 74, HighSpeedMbps: 592}}
	s := FormatTable(rows, PaperTable1[1:2])
	for _, want := range []string{"iterations", "18", "74.0", "592.0", "70", "560"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if s2 := FormatTable(rows, nil); !strings.Contains(s2, "18") {
		t.Error("nil-paper table broken")
	}
}

func TestLatency(t *testing.T) {
	c := code.MustCCSDS()
	lc, err := hwsim.New(c, hwsim.LowCost())
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hwsim.New(c, hwsim.HighSpeed())
	if err != nil {
		t.Fatal(err)
	}
	lLC, lHS := LatencyMicros(lc), LatencyMicros(hs)
	// 19339 cycles at 200 MHz ≈ 96.7 µs for both configurations: frame
	// packing buys throughput, not latency.
	if math.Abs(lLC-96.695) > 0.1 {
		t.Errorf("low-cost latency %.3f µs, want ~96.7", lLC)
	}
	if lLC != lHS {
		t.Errorf("latencies differ: %v vs %v", lLC, lHS)
	}
}
