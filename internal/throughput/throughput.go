// Package throughput converts the architecture model's cycle counts
// into decoder output data rates, reproducing the paper's Table 1
// ("Number of iterations influence on the output data rate of LDPC
// decoders with a clock frequency of 200 MHz").
//
// Output throughput counts information bits, the quantity a downstream
// user receives: a batch of F packed frames delivers F·K bits in
// CyclesPerBatch clock cycles.
package throughput

import (
	"fmt"
	"strings"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/hwsim"
)

// Mbps computes the information throughput of a machine configuration:
// frames·infoBits per batch over cycles at the configured clock. A
// non-positive cycle count or clock is a malformed configuration and
// reports an error rather than a rate, so a model-comparison endpoint
// fed arbitrary configs can answer instead of crashing.
func Mbps(infoBits, cyclesPerBatch, frames int, clockMHz float64) (float64, error) {
	if cyclesPerBatch <= 0 {
		return 0, fmt.Errorf("throughput: %d cycles per batch", cyclesPerBatch)
	}
	if clockMHz <= 0 {
		return 0, fmt.Errorf("throughput: %v MHz clock", clockMHz)
	}
	bitsPerBatch := float64(infoBits) * float64(frames)
	secondsPerBatch := float64(cyclesPerBatch) / (clockMHz * 1e6)
	return bitsPerBatch / secondsPerBatch / 1e6, nil
}

// MachineMbps computes the throughput of a built machine for a code.
func MachineMbps(m *hwsim.Machine, c *code.Code) (float64, error) {
	cfg := m.Config()
	return Mbps(c.K, m.CyclesPerBatch(), cfg.Frames, cfg.ClockMHz)
}

// HighSpeedMbps is the paper's high-speed architecture decoding the C2
// code at the given iteration count — the hardware figure a measured
// software rate is read against.
func HighSpeedMbps(iters int) (float64, error) {
	c, err := code.CCSDS()
	if err != nil {
		return 0, err
	}
	cfg := hwsim.HighSpeed()
	cfg.Iterations = iters
	m, err := hwsim.New(c, cfg)
	if err != nil {
		return 0, err
	}
	return MachineMbps(m, c)
}

// Row is one line of Table 1.
type Row struct {
	Iterations    int
	LowCostMbps   float64
	HighSpeedMbps float64
}

// PaperTable1 reproduces the published Table 1 values for comparison.
var PaperTable1 = []Row{
	{Iterations: 10, LowCostMbps: 130, HighSpeedMbps: 1040},
	{Iterations: 18, LowCostMbps: 70, HighSpeedMbps: 560},
	{Iterations: 50, LowCostMbps: 25, HighSpeedMbps: 200},
}

// Table1 regenerates the paper's Table 1 for the given code: output
// throughput at each iteration count for the low-cost and high-speed
// configurations at the given clock.
func Table1(c *code.Code, iterations []int, clockMHz float64) ([]Row, error) {
	rows := make([]Row, 0, len(iterations))
	for _, it := range iterations {
		lc := hwsim.LowCost()
		lc.Iterations = it
		lc.ClockMHz = clockMHz
		hs := hwsim.HighSpeed()
		hs.Iterations = it
		hs.ClockMHz = clockMHz
		ml, err := hwsim.New(c, lc)
		if err != nil {
			return nil, err
		}
		mh, err := hwsim.New(c, hs)
		if err != nil {
			return nil, err
		}
		lcMbps, err := MachineMbps(ml, c)
		if err != nil {
			return nil, err
		}
		hsMbps, err := MachineMbps(mh, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Iterations:    it,
			LowCostMbps:   lcMbps,
			HighSpeedMbps: hsMbps,
		})
	}
	return rows, nil
}

// FormatTable renders measured rows beside the paper's values.
func FormatTable(rows []Row, paper []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %16s %16s", "iterations", "low-cost Mbps", "high-speed Mbps")
	if paper != nil {
		fmt.Fprintf(&b, " %12s %12s", "paper LC", "paper HS")
	}
	b.WriteByte('\n')
	for i, r := range rows {
		fmt.Fprintf(&b, "%-11d %16.1f %16.1f", r.Iterations, r.LowCostMbps, r.HighSpeedMbps)
		if paper != nil && i < len(paper) {
			fmt.Fprintf(&b, " %12.0f %12.0f", paper[i].LowCostMbps, paper[i].HighSpeedMbps)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LatencyMicros returns the decode latency of one batch in microseconds
// — the figure a real-time telemetry pipeline budgets, complementary to
// the throughput of Table 1 (frame packing multiplies throughput but
// leaves latency unchanged).
func LatencyMicros(m *hwsim.Machine) float64 {
	cfg := m.Config()
	return float64(m.CyclesPerBatch()) / cfg.ClockMHz
}
