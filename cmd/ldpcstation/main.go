// Command ldpcstation drives the streaming ground-station ingest
// pipeline (internal/station) end to end: it synthesizes a corrupted
// soft-symbol downlink — clock slips, mid-stream constellation
// rotations, burst erasures, an Eb/N0 drift ramp — runs it through
// sync → derandomize → decode → CADU against a registry decode pool,
// and grades the recovered telemetry against the stream's ground
// truth.
//
// The default battery runs six scenarios (clean, slips, rotation,
// burst, drift, combined); "combined" is the acceptance case — three
// clock slips, two mid-stream 90° rotation flips and a two-frame burst
// erasure — which must recover ≥ 99% of the recoverable CADUs
// bit-exactly with re-lock inside two frame lengths. Every scenario
// must emit zero corrupt and zero extra CADUs: the syndrome gate drops
// what it cannot certify. The tool exits non-zero if any gate fails,
// and `make bench-station` seeds the per-scenario report — locked
// throughput, re-lock latency in symbols, CADU loss rate — into
// BENCH_station.json.
//
// With -http the run is observable over HTTP (serve.HTTPMux, the
// surface ldpcserver and ldpcfleet serve too): /metrics is the report
// of the scenarios graded so far, /healthz the decode pool's
// serve.HealthSnapshot (503 once its failure rate trips), and
// /debug/vars the report through expvar.
//
// Usage:
//
//	ldpcstation [-code c2] [-frames 40] [-ebn0 5] [-qpsk] [-seed 1]
//	            [-scenarios clean,slips,rotation,burst,drift,combined]
//	            [-slips f:s:k,...] [-flips f:s:q,...] [-bursts f:n,...]
//	            [-drift from:to:mindb] [-cut -1] [-chunk 4096]
//	            [-iters 18] [-workers 0] [-json BENCH_station.json]
//	            [-http 127.0.0.1:7072]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/frame"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/station"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcstation: ")
	var (
		codeName = flag.String("code", "c2", "registry code the downlink carries")
		frames   = flag.Int("frames", 40, "telemetry frames per scenario stream")
		ebn0     = flag.Float64("ebn0", 5, "nominal channel Eb/N0 in dB")
		qpsk     = flag.Bool("qpsk", true, "QPSK symbols (false = BPSK)")
		seed     = flag.Uint64("seed", 1, "stream seed (data, noise, slip fill)")
		names    = flag.String("scenarios", "all", "scenario subset to run (comma-separated names, or \"all\")")
		slipsStr = flag.String("slips", "", "override slips as frame:symbol:symbols,... (combined/slips scenarios)")
		flipsStr = flag.String("flips", "", "override rotation flips as frame:symbol:quarters[c],...")
		burstStr = flag.String("bursts", "", "override bursts as frame:frames,...")
		driftStr = flag.String("drift", "", "override drift ramp as fromframe:toframe:mindb")
		cut      = flag.Int("cut", -1, "initial-offset cut in bits (-1 = a third of a frame)")
		chunk    = flag.Int("chunk", 4096, "samples per ingest chunk")
		iters    = flag.Int("iters", 18, "decoder iterations")
		workers  = flag.Int("workers", 0, "decode pool workers (0 = GOMAXPROCS)")
		linger   = flag.Duration("linger", 500*time.Microsecond, "decode pool batching linger")
		lockThr  = flag.Float64("lock", 0, "synchronizer lock threshold (0 = default)")
		trackThr = flag.Float64("track", 0, "synchronizer track threshold (0 = default)")
		jsonPath = flag.String("json", "", "write the report as JSON to this file")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz and /debug/vars with the live report on this address")
	)
	flag.Parse()

	reg := registry.Default()
	e, ok := reg.ByName(*codeName)
	if !ok {
		log.Fatalf("unknown code %q; registry has: %s", *codeName, strings.Join(reg.Names(), ", "))
	}
	if *frames < 10 {
		log.Fatalf("-frames %d: the scenario battery needs at least 10", *frames)
	}

	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = *iters
	pools := registry.NewPools(reg, serve.Config{Params: p, Workers: *workers, Linger: *linger})
	defer pools.Close()
	srv, built, err := pools.Get(e.ID)
	if err != nil {
		log.Fatal(err)
	}

	bps := 1
	if *qpsk {
		bps = 2
	}
	frameLen := len(built.TxPositions)
	if frameLen%bps != 0 {
		log.Fatalf("code %s: frame length %d is not a whole number of symbols", e.Name, frameLen)
	}
	frameTotal := frame.ASMBits + frameLen
	cutBits := *cut
	if cutBits < 0 {
		cutBits = frameTotal / 3
	}
	cutBits -= cutBits % bps

	battery, err := buildBattery(*frames, frameLen/bps, bps, *ebn0, *slipsStr, *flipsStr, *burstStr, *driftStr)
	if err != nil {
		log.Fatal(err)
	}
	selected, err := selectScenarios(battery, *names)
	if err != nil {
		log.Fatal(err)
	}

	report := &Report{
		GeneratedAtUnix: time.Now().Unix(),
		Code:            e.Name,
		CodeN:           built.Code.N,
		CodeK:           built.Code.K,
		PayloadBits:     built.PayloadBits(),
		BitsPerSymbol:   bps,
		EbN0dB:          *ebn0,
		Frames:          *frames,
		CutBits:         cutBits,
		Seed:            *seed,
		Iterations:      *iters,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		OK:              true,
	}
	var mu sync.Mutex
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics", hl.Addr())
		hmux := serve.HTTPMux("station",
			// Scenarios only ever grow, so a shallow copy is consistent.
			func() any { mu.Lock(); defer mu.Unlock(); return *report },
			func() (any, bool) { hs := srv.HealthSnapshot(); return hs, hs.Healthy })
		go func() { log.Print(http.Serve(hl, hmux)) }()
	}

	dec := station.PoolDecode(built, srv, p.Format)
	for _, sc := range selected {
		stream, err := station.BuildStream(built, station.StreamConfig{
			Frames:        *frames,
			EbN0dB:        *ebn0,
			BitsPerSymbol: bps,
			Seed:          *seed,
			CutBits:       cutBits,
			Scenario:      sc.Scenario,
		})
		if err != nil {
			log.Fatalf("%s: %v", sc.Name, err)
		}
		start := time.Now()
		res, err := station.RunStream(station.Config{
			Built:          built,
			Decode:         dec,
			EbN0dB:         *ebn0,
			Params:         p,
			LockThreshold:  *lockThr,
			TrackThreshold: *trackThr,
		}, stream, *chunk)
		if err != nil {
			log.Fatalf("%s: %v", sc.Name, err)
		}
		sr := grade(sc, res, time.Since(start).Seconds(), built.PayloadBits(), bps, len(stream.Samples))
		mu.Lock()
		report.Scenarios = append(report.Scenarios, sr)
		report.OK = report.OK && sr.OK
		mu.Unlock()
		log.Print(sr.Format())
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonPath)
	}
	if !report.OK {
		log.Fatal("acceptance gates failed")
	}
	log.Print("all gates passed")
}

// NamedScenario is one battery entry with its pass/fail gates.
type NamedScenario struct {
	Name     string
	Scenario station.Scenario
	// MinRecovered gates RecoveredFraction (0 = ungated: the drift
	// scenario is supposed to drop its trough).
	MinRecovered float64
	// MaxRelockFrames gates the worst re-lock latency, in frame lengths.
	MaxRelockFrames float64
}

// buildBattery assembles the scenario set for a stream of `frames`
// frames of `frameSyms` symbols each, with event positions scaled to
// the stream so any -frames ≥ 10 yields a well-formed battery.
func buildBattery(frames, frameSyms, bps int, ebn0 float64, slipsStr, flipsStr, burstStr, driftStr string) ([]NamedScenario, error) {
	slips := []station.Slip{
		{Frame: frames * 15 / 100, Symbol: frameSyms / 4, Symbols: 1},
		{Frame: frames * 40 / 100, Symbol: frameSyms / 7, Symbols: -2},
		{Frame: frames * 60 / 100, Symbol: frameSyms / 3, Symbols: 2},
	}
	// On BPSK a quarter turn is invisible; the ambiguity is the 180°
	// inversion.
	quarters := 1
	if bps == 1 {
		quarters = 2
	}
	flips := []station.Flip{
		{Frame: frames * 25 / 100, Symbol: frameSyms / 5, Quarters: quarters},
		{Frame: frames * 70 / 100, Symbol: frameSyms / 2, Quarters: quarters},
	}
	bursts := []station.Burst{{Frame: frames * 80 / 100, Frames: 2}}
	drift := &station.Drift{FromFrame: frames / 4, ToFrame: frames * 3 / 4, MinEbN0dB: ebn0 - 3}
	var err error
	if slipsStr != "" {
		if slips, err = parseSlips(slipsStr); err != nil {
			return nil, err
		}
	}
	if flipsStr != "" {
		if flips, err = parseFlips(flipsStr); err != nil {
			return nil, err
		}
	}
	if burstStr != "" {
		if bursts, err = parseBursts(burstStr); err != nil {
			return nil, err
		}
	}
	if driftStr != "" {
		if drift, err = parseDrift(driftStr); err != nil {
			return nil, err
		}
	}
	return []NamedScenario{
		{Name: "clean", MinRecovered: 0.99},
		{Name: "slips", Scenario: station.Scenario{Slips: slips}, MinRecovered: 0.99, MaxRelockFrames: 2},
		{Name: "rotation", Scenario: station.Scenario{Flips: flips}, MinRecovered: 0.99},
		{Name: "burst", Scenario: station.Scenario{Bursts: bursts}, MinRecovered: 0.99},
		{Name: "drift", Scenario: station.Scenario{Drift: drift}},
		{
			Name:            "combined",
			Scenario:        station.Scenario{Slips: slips, Flips: flips, Bursts: bursts},
			MinRecovered:    0.99,
			MaxRelockFrames: 2,
		},
	}, nil
}

func selectScenarios(battery []NamedScenario, spec string) ([]NamedScenario, error) {
	if spec == "all" || spec == "" {
		return battery, nil
	}
	byName := make(map[string]NamedScenario, len(battery))
	var names []string
	for _, sc := range battery {
		byName[sc.Name] = sc
		names = append(names, sc.Name)
	}
	var out []NamedScenario
	for _, name := range strings.Split(spec, ",") {
		sc, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q; battery has: %s", name, strings.Join(names, ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// Report is the JSON artifact (`make bench-station` → BENCH_station.json).
type Report struct {
	GeneratedAtUnix int64   `json:"generated_at_unix"`
	Code            string  `json:"code"`
	CodeN           int     `json:"code_n"`
	CodeK           int     `json:"code_k"`
	PayloadBits     int     `json:"payload_bits"`
	BitsPerSymbol   int     `json:"bits_per_symbol"`
	EbN0dB          float64 `json:"ebn0_db"`
	Frames          int     `json:"frames"`
	CutBits         int     `json:"cut_bits"`
	Seed            uint64  `json:"seed"`
	Iterations      int     `json:"iterations"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`

	Scenarios []ScenarioReport `json:"scenarios"`
	OK        bool             `json:"ok"`
}

// ScenarioReport is one graded scenario pass.
type ScenarioReport struct {
	Name     string           `json:"name"`
	Scenario station.Scenario `json:"scenario"`

	Result      *station.ScenarioResult `json:"result"`
	ElapsedSecs float64                 `json:"elapsed_s"`
	// LockedMbps is recovered payload over wall time: what the station
	// delivers downstream, synchronization and conditioning included.
	LockedMbps    float64 `json:"locked_mbps"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// RelockSymbols is the re-lock latency after each slip, in symbols.
	RelockSymbols []int64 `json:"relock_symbols,omitempty"`
	CaduLossRate  float64 `json:"cadu_loss_rate"`

	OK          bool     `json:"ok"`
	FailedGates []string `json:"failed_gates,omitempty"`
}

// grade applies a scenario's gates to its result.
func grade(sc NamedScenario, res *station.ScenarioResult, elapsed float64, payloadBits, bps, samples int) ScenarioReport {
	sr := ScenarioReport{
		Name:         sc.Name,
		Scenario:     sc.Scenario,
		Result:       res,
		ElapsedSecs:  elapsed,
		CaduLossRate: 1 - res.RecoveredFraction,
	}
	if elapsed > 0 {
		sr.LockedMbps = float64(res.BitExact) * float64(payloadBits) / elapsed / 1e6
		sr.SamplesPerSec = float64(samples) / elapsed
	}
	for _, lat := range res.RelockSamples {
		sr.RelockSymbols = append(sr.RelockSymbols, lat/int64(bps))
	}
	fail := func(format string, args ...any) {
		sr.FailedGates = append(sr.FailedGates, fmt.Sprintf(format, args...))
	}
	if res.Corrupt != 0 {
		fail("%d corrupt CADUs (want 0)", res.Corrupt)
	}
	if res.ExtraCadus != 0 {
		fail("%d extra CADUs (want 0)", res.ExtraCadus)
	}
	if sc.MinRecovered > 0 && res.RecoveredFraction < sc.MinRecovered {
		fail("recovered %.4f of clean frames (want ≥ %.2f)", res.RecoveredFraction, sc.MinRecovered)
	}
	if sc.MaxRelockFrames > 0 && res.RelockFramesMax > sc.MaxRelockFrames {
		fail("re-lock %.2f frame lengths (want ≤ %.1f)", res.RelockFramesMax, sc.MaxRelockFrames)
	}
	sr.OK = len(sr.FailedGates) == 0
	return sr
}

func (sr ScenarioReport) Format() string {
	res := sr.Result
	s := fmt.Sprintf("%-8s: %d/%d clean frames bit-exact (loss %.4f), %.1f Mbps locked, %d slips corrected, %d rotations, %d flywheel",
		sr.Name, res.BitExact, res.CleanFrames, sr.CaduLossRate, sr.LockedMbps,
		res.Metrics.SlipsCorrected, res.Metrics.RotationsResolved, res.Metrics.FlywheelMisses)
	if len(sr.RelockSymbols) > 0 {
		parts := make([]string, len(sr.RelockSymbols))
		for i, v := range sr.RelockSymbols {
			parts[i] = strconv.FormatInt(v, 10)
		}
		s += fmt.Sprintf(", re-lock {%s} symbols (worst %.2f frames)", strings.Join(parts, ", "), res.RelockFramesMax)
	}
	if !sr.OK {
		s += " FAILED: " + strings.Join(sr.FailedGates, "; ")
	}
	return s
}

func parseSlips(spec string) ([]station.Slip, error) {
	var out []station.Slip
	for _, part := range strings.Split(spec, ",") {
		f, err := splitInts(part, 3)
		if err != nil {
			return nil, fmt.Errorf("slip %q: %v (want frame:symbol:symbols)", part, err)
		}
		out = append(out, station.Slip{Frame: f[0], Symbol: f[1], Symbols: f[2]})
	}
	return out, nil
}

func parseFlips(spec string) ([]station.Flip, error) {
	var out []station.Flip
	for _, part := range strings.Split(spec, ",") {
		conj := strings.HasSuffix(part, "c")
		f, err := splitInts(strings.TrimSuffix(part, "c"), 3)
		if err != nil {
			return nil, fmt.Errorf("flip %q: %v (want frame:symbol:quarters[c])", part, err)
		}
		out = append(out, station.Flip{Frame: f[0], Symbol: f[1], Quarters: f[2], Conjugate: conj})
	}
	return out, nil
}

func parseBursts(spec string) ([]station.Burst, error) {
	var out []station.Burst
	for _, part := range strings.Split(spec, ",") {
		f, err := splitInts(part, 2)
		if err != nil {
			return nil, fmt.Errorf("burst %q: %v (want frame:frames)", part, err)
		}
		out = append(out, station.Burst{Frame: f[0], Frames: f[1]})
	}
	return out, nil
}

func parseDrift(spec string) (*station.Drift, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("drift %q: want fromframe:toframe:mindb", spec)
	}
	from, err1 := strconv.Atoi(parts[0])
	to, err2 := strconv.Atoi(parts[1])
	min, err3 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("drift %q: want fromframe:toframe:mindb", spec)
	}
	return &station.Drift{FromFrame: from, ToFrame: to, MinEbN0dB: min}, nil
}

func splitInts(s string, n int) ([]int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != n {
		return nil, fmt.Errorf("%d fields, want %d", len(parts), n)
	}
	out := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
