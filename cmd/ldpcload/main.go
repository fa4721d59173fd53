// Command ldpcload drives cmd/ldpcserver with concurrent decode
// traffic and reports achieved throughput and latency percentiles —
// the measurement companion to the analytical model of
// internal/throughput.
//
// -codes selects the registry codes the generated traffic cycles
// through (comma-separated names, or "all"): each client interleaves
// the selected codes round-robin on one connection, sending the default
// C2 code as untagged v1 frames and every other code as code-tagged v2
// frames, so a multi-code run exercises exactly the mixed-mission
// traffic the server's registry mux routes. A frame tagged with a code
// the server does not serve fails the run fast — the server's
// StatusUnknownCode rejection is permanent, so it is reported with the
// advertised code list instead of retried.
//
// It runs closed-loop by default (every client keeps exactly one frame
// in flight, so offered load tracks service rate) or open-loop with
// -rate (clients fire on a fixed schedule regardless of responses,
// exposing queueing latency). With -seqbaseline it first measures a
// single sequential client — the "8 sequential single-frame decodes"
// baseline the batching scheduler must beat — and reports the speedup.
//
// With -inproc it spins up the server inside the process on a loopback
// listener (still crossing the full TCP + protocol + scheduler stack),
// which is what `make bench-serve` and `make bench-multimode` use to
// seed BENCH_serve.json and BENCH_multimode.json.
//
// With -fleet N the same load is routed through an internal/fleet
// router fronting N in-process backend instances, and -fleetbench runs
// the full fleet artifact: a scaling sweep over N in {1,2,4}, then a
// chaos phase that abruptly kills one of four backends mid-run and
// restarts it, recording the kill/recovery timeline and enforcing the
// resilience gates (zero corrupt frames, at most one requeue per
// claimed frame, client latency under the router deadline, throughput
// recovered to at least 3/4 of the pre-kill rate — exit 1 otherwise).
// `make bench-fleet` uses it to seed BENCH_fleet.json.
//
// Usage:
//
//	ldpcload [-addr 127.0.0.1:7070 | -inproc | -fleet N | -fleetbench]
//	         [-codes c2] [-clients 16] [-frames 1024] [-rate 0]
//	         [-ebn0 4.2] [-retries 3] [-backoff 200us] [-seqbaseline]
//	         [-json out.json] [-metrics http://127.0.0.1:7071/metrics]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/frame"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/sim"
	"ccsdsldpc/internal/station"
	"ccsdsldpc/internal/throughput"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcload: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server decode address")
		inproc   = flag.Bool("inproc", false, "start an in-process server on a loopback listener")
		codesStr = flag.String("codes", "c2", "registry codes the traffic cycles through (comma-separated, or \"all\")")
		clients  = flag.Int("clients", 16, "concurrent client connections")
		frames   = flag.Int("frames", 1024, "total frames per phase")
		rate     = flag.Float64("rate", 0, "open-loop target rate in frames/s (0 = closed loop)")
		ebn0     = flag.Float64("ebn0", 4.2, "channel Eb/N0 in dB for the generated frames")
		iters    = flag.Int("iters", 18, "iterations for the in-process server and the model comparison")
		linger   = flag.Duration("linger", 500*time.Microsecond, "in-process server linger")
		workers  = flag.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
		retries  = flag.Int("retries", 3, "resubmissions of a frame the server shed, deadlined, or crashed on")
		backoff  = flag.Duration("backoff", 200*time.Microsecond, "initial retry backoff, doubled per attempt and jittered")
		seqBase  = flag.Bool("seqbaseline", false, "first measure 1 sequential client and report the speedup")
		stream   = flag.Bool("stream", false, "streaming-ingest smoke: run a slip/flip scenario through internal/station instead of TCP load")
		fleetN   = flag.Int("fleet", 0, "route the load through an in-process fleet of N backends instead of one server (0 = off)")
		fltBench = flag.Bool("fleetbench", false, "fleet artifact run: scaling sweep N in {1,2,4} plus a kill/restart chaos phase with resilience gates")
		jsonPath = flag.String("json", "", "write the report as JSON to this file")
		metrics  = flag.String("metrics", "", "fetch this /metrics URL into the report (remote servers)")
	)
	flag.Parse()

	reg := registry.Default()
	ids, err := reg.Resolve(*codesStr)
	if err != nil {
		log.Fatal(err)
	}
	traffic := make([]*codeTraffic, len(ids))
	for i, id := range ids {
		e, _ := reg.Get(id)
		built, err := e.Build()
		if err != nil {
			log.Fatal(err)
		}
		traffic[i] = &codeTraffic{
			entry: e,
			built: built,
			// The default code travels untagged (v1), everything else
			// tagged (v2), so a mixed run interleaves both framings on
			// every connection.
			v2:   id != reg.DefaultID(),
			pool: newFramePool(built, *ebn0, 64),
		}
	}

	if *stream {
		if err := runStreamSmoke(traffic[0], *ebn0, *iters, *workers, *linger); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *fltBench || *fleetN > 0 {
		runFleetMain(reg, ids, traffic, fleetOpts{
			n:        *fleetN,
			bench:    *fltBench,
			clients:  *clients,
			frames:   *frames,
			ebn0:     *ebn0,
			iters:    *iters,
			workers:  *workers,
			linger:   *linger,
			retries:  *retries,
			backoff:  *backoff,
			jsonPath: *jsonPath,
		})
		return
	}

	var mux *registry.Mux
	target := *addr
	if *inproc {
		p := fixed.DefaultHighSpeedParams()
		p.MaxIterations = *iters
		mux, err = registry.NewMux(reg, ids, serve.Config{Params: p, Workers: *workers, Linger: *linger})
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go mux.ServeListener(l)
		defer func() { l.Close(); mux.Close() }()
		target = l.Addr().String()
		log.Printf("in-process server on %s serving %s", target, strings.Join(trafficNames(traffic), ","))
	}

	report := Report{
		GeneratedAtUnix: time.Now().Unix(),
		Address:         target,
		Codes:           trafficNames(traffic),
		CodeN:           traffic[0].built.Code.N,
		CodeK:           traffic[0].built.Code.K,
		EbN0dB:          *ebn0,
		Iterations:      *iters,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		PaperMbps:       560,
	}
	if mbps, err := throughput.HighSpeedMbps(*iters); err != nil {
		log.Printf("model: %v", err)
	} else {
		report.ModelMbps = mbps
	}

	if *seqBase {
		log.Printf("sequential baseline: 1 client, %d frames...", *frames)
		base, err := runPhase(target, reg, traffic, 1, *frames, 0, *retries, *backoff)
		if err != nil {
			log.Fatal(err)
		}
		report.BaselineSeq = &base
		log.Print(base.Format("sequential"))
	}

	log.Printf("load: %d clients, %d frames across %s...", *clients, *frames, strings.Join(report.Codes, ","))
	var before registry.MuxSnapshot
	if mux != nil {
		before = mux.Snapshot()
	}
	load, err := runPhase(target, reg, traffic, *clients, *frames, *rate, *retries, *backoff)
	if err != nil {
		log.Fatal(err)
	}
	report.Load = load
	log.Print(load.Format("loaded"))

	if mux != nil {
		after := mux.Snapshot()
		report.BatchFillMean = phaseFillMean(before, after)
		report.ServerShed = phaseShed(before, after)
		report.ServerPerCode = perCodeServer(before, after)
		log.Printf("server: batch fill mean %.2f over the loaded phase, %d shed", report.BatchFillMean, report.ServerShed)
	} else if *metrics != "" {
		if raw, snap, err := fetchMetrics(*metrics); err != nil {
			log.Printf("metrics: %v", err)
		} else {
			report.ServerMetrics = raw
			report.BatchFillMean = phaseFillMean(registry.MuxSnapshot{}, snap)
			log.Printf("server: cumulative batch fill mean %.2f", report.BatchFillMean)
		}
	}
	if report.BaselineSeq != nil && report.BaselineSeq.FPS > 0 {
		report.SpeedupVsSeq = report.Load.FPS / report.BaselineSeq.FPS
		log.Printf("speedup over sequential single-frame decoding: ×%.2f", report.SpeedupVsSeq)
	}
	log.Printf("measured %.1f Mbps vs model %.1f Mbps vs paper %d Mbps (18 iters, 200 MHz)",
		report.Load.Mbps, report.ModelMbps, int(report.PaperMbps))

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
}

// runStreamSmoke pushes one corrupted soft-symbol pass — a clock slip
// and a mid-stream phase flip from the station corruptor — through the
// full sync → derandomize → decode → CADU pipeline against an
// in-process pool for the first selected code. It is a smoke test of
// the streaming ingest path, not a benchmark: cmd/ldpcstation runs the
// graded battery.
func runStreamSmoke(ct *codeTraffic, ebn0 float64, iters, workers int, linger time.Duration) error {
	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = iters
	cfg := serve.Config{Code: ct.built.Code, Params: p, Workers: workers, Linger: linger}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	const frames = 16
	frameLen := len(ct.built.TxPositions)
	bps := 1
	if frameLen%2 == 0 {
		bps = 2
	}
	quarters := 2
	if bps == 2 {
		quarters = 1
	}
	frameTotal := frame.ASMBits + frameLen
	cut := (frameTotal / 4) &^ (bps - 1)
	log.Printf("stream smoke: %s, %d frames, %d bits/symbol, 1 slip + 1 phase flip", ct.entry.Name, frames, bps)
	res, err := station.RunScenario(
		station.Config{Built: ct.built, Decode: station.PoolDecode(ct.built, srv, p.Format), EbN0dB: ebn0},
		station.StreamConfig{
			Frames:        frames,
			EbN0dB:        ebn0,
			BitsPerSymbol: bps,
			Seed:          7,
			CutBits:       cut,
			Scenario: station.Scenario{
				Slips: []station.Slip{{Frame: frames / 3, Symbol: 11, Symbols: 1}},
				Flips: []station.Flip{{Frame: 2 * frames / 3, Symbol: 5, Quarters: quarters}},
			},
		},
		8192,
	)
	if err != nil {
		return err
	}
	log.Printf("stream smoke: %d/%d clean frames bit-exact, %d slips corrected, %d rotations resolved, %d rejected",
		res.BitExact, res.CleanFrames, res.Metrics.SlipsCorrected, res.Metrics.RotationsResolved, res.Metrics.CadusRejected)
	if res.Corrupt != 0 || res.ExtraCadus != 0 {
		return fmt.Errorf("stream smoke: %d corrupt, %d extra CADUs (want 0)", res.Corrupt, res.ExtraCadus)
	}
	if res.BitExact < res.CleanFrames-2 {
		return fmt.Errorf("stream smoke: only %d of %d clean frames bit-exact", res.BitExact, res.CleanFrames)
	}
	return nil
}

// codeTraffic is one registry code's share of the generated load.
type codeTraffic struct {
	entry *registry.Entry
	built *registry.Built
	v2    bool
	pool  *framePool
}

func trafficNames(traffic []*codeTraffic) []string {
	out := make([]string, len(traffic))
	for i, ct := range traffic {
		out[i] = ct.entry.Name
	}
	return out
}

// Report is the JSON artifact (`make bench-serve` → BENCH_serve.json,
// `make bench-multimode` → BENCH_multimode.json).
type Report struct {
	GeneratedAtUnix int64    `json:"generated_at_unix"`
	Address         string   `json:"address"`
	Codes           []string `json:"codes"`
	CodeN           int      `json:"code_n"`
	CodeK           int      `json:"code_k"`
	EbN0dB          float64  `json:"ebn0_db"`
	Iterations      int      `json:"iterations"`
	NumCPU          int      `json:"num_cpu"`
	GOMAXPROCS      int      `json:"gomaxprocs"`

	BaselineSeq *Phase `json:"baseline_seq,omitempty"`
	Load        Phase  `json:"load"`

	SpeedupVsSeq  float64                  `json:"speedup_vs_seq,omitempty"`
	BatchFillMean float64                  `json:"batch_fill_mean,omitempty"`
	ServerShed    int64                    `json:"server_shed,omitempty"`
	ServerPerCode map[string]ServerPerCode `json:"server_per_code,omitempty"`
	ServerMetrics json.RawMessage          `json:"server_metrics,omitempty"`

	ModelMbps float64 `json:"model_mbps,omitempty"`
	PaperMbps float64 `json:"paper_highspeed_mbps_18iters"`
}

// ServerPerCode is one code's server-side counters over the loaded
// phase.
type ServerPerCode struct {
	FramesDecoded int64   `json:"frames_decoded"`
	BatchFillMean float64 `json:"batch_fill_mean"`
	Shed          int64   `json:"shed"`
}

// Phase is one measured traffic phase.
type Phase struct {
	Clients     int              `json:"clients"`
	Frames      int              `json:"frames"`
	RateTarget  float64          `json:"rate_target_fps,omitempty"`
	ElapsedSecs float64          `json:"elapsed_s"`
	FPS         float64          `json:"fps"`
	Mbps        float64          `json:"mbps"`
	P50Micros   float64          `json:"p50_us"`
	P90Micros   float64          `json:"p90_us"`
	P99Micros   float64          `json:"p99_us"`
	PerCode     map[string]int64 `json:"per_code,omitempty"`
	Shed        int64            `json:"shed"`
	Deadlined   int64            `json:"deadlined"`
	Crashed     int64            `json:"crashed,omitempty"`
	Retries     int64            `json:"retries"`
	Abandoned   int64            `json:"abandoned"`
	FrameErrors int64            `json:"frame_errors"`
	Unconverged int64            `json:"unconverged"`
}

func (p Phase) Format(name string) string {
	s := fmt.Sprintf("%s: %d frames / %.2fs = %.1f frames/s = %.2f Mbps, p50 %.0fµs p99 %.0fµs, %d shed, %d deadlined, %d retries, %d frame errors",
		name, p.Frames, p.ElapsedSecs, p.FPS, p.Mbps, p.P50Micros, p.P99Micros, p.Shed, p.Deadlined, p.Retries, p.FrameErrors)
	if len(p.PerCode) > 1 {
		var parts []string
		for _, name := range sortedKeys(p.PerCode) {
			parts = append(parts, fmt.Sprintf("%s %d", name, p.PerCode[name]))
		}
		s += " [" + strings.Join(parts, ", ") + "]"
	}
	return s
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// framePool is a reusable set of deterministic noisy wire frames with
// their transmitted inner codewords, so frame generation never
// throttles the load. Wire frames carry only transmitted positions;
// shortened information bits stay zero (the receiver knows them), fill
// positions get a confident known-zero LLR.
type framePool struct {
	qs  [][]int16
	cws []*bitvec.Vector
}

func newFramePool(b *registry.Built, ebn0 float64, size int) *framePool {
	c := b.Code
	kEff := c.K - len(b.KnownZero)
	nTx := c.N - len(b.PuncturedCols) - len(b.KnownZero)
	ch, err := channel.NewAWGN(ebn0, float64(kEff)/float64(nTx))
	if err != nil {
		log.Fatal(err)
	}
	f := fixed.DefaultHighSpeedParams().Format
	shortMask := sim.ColumnMask(c.N, b.KnownZero)
	p := &framePool{qs: make([][]int16, size), cws: make([]*bitvec.Vector, size)}
	for i := 0; i < size; i++ {
		r := rng.New(uint64(i)*0x9e3779b97f4a7c15 + 0xadb5)
		info := sim.RandomInfo(c, shortMask, r)
		cw := c.Encode(info)
		q := f.QuantizeSlice(nil, ch.CorruptCodeword(cw, r))
		wire := make([]int16, len(b.TxPositions))
		for w, j := range b.TxPositions {
			if j >= 0 {
				wire[w] = q[j]
			} else {
				wire[w] = f.Max()
			}
		}
		p.qs[i] = wire
		p.cws[i] = cw
	}
	return p
}

// runPhase pushes `frames` frames through `clients` connections,
// cycling the traffic codes round-robin, and aggregates client-observed
// latency and correctness. rate > 0 paces the aggregate submission
// schedule (open loop, split across clients); rate == 0 runs closed
// loop. A frame the server sheds, deadlines, or loses to a transient
// server fault is resubmitted up to `retries` times with jittered
// exponential backoff starting at `backoff`. A StatusUnknownCode
// response is never retried: the rejection is permanent, so the phase
// fails immediately, naming the code and the server's advertised list.
func runPhase(addr string, reg *registry.Registry, traffic []*codeTraffic, clients, frames int, rate float64, retries int, backoff time.Duration) (Phase, error) {
	ph := Phase{Clients: clients, Frames: frames, RateTarget: rate}
	var next atomic.Int64
	var shed, deadlined, crashed, retried, abandoned, frameErrors, unconverged atomic.Int64
	completed := make([]atomic.Int64, len(traffic))
	latencies := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(clients) / rate * float64(time.Second))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 16<<10)
			bw := bufio.NewWriterSize(conn, 16<<10)
			bits := make([]*bitvec.Vector, len(traffic))
			diff := make([]*bitvec.Vector, len(traffic))
			for t, ct := range traffic {
				bits[t] = bitvec.New(ct.built.Code.N)
				diff[t] = bitvec.New(ct.built.Code.N)
			}
			jr := rng.New(uint64(w)*0x9e3779b97f4a7c15 + 0x6a77)
			var rbuf, wbuf []byte
			local := make([]time.Duration, 0, frames/clients+1)
			// Open-loop pacing: client w owns schedule offsets
			// w, w+clients, w+2·clients, ... of the aggregate schedule.
			tick := start.Add(time.Duration(w) * interval / time.Duration(clients))
			for {
				i := next.Add(1) - 1
				if i >= int64(frames) {
					break
				}
				if interval > 0 {
					if d := time.Until(tick); d > 0 {
						time.Sleep(d)
					}
					tick = tick.Add(interval)
				}
				t := int(i) % len(traffic)
				ct := traffic[t]
				k := int(i) % len(ct.pool.qs)
				t0 := time.Now()
				for attempt := 0; ; attempt++ {
					if ct.v2 {
						wbuf, err = serve.WriteRequestTagged(bw, byte(ct.entry.ID), ct.pool.qs[k], wbuf)
					} else {
						wbuf, err = serve.WriteRequest(bw, ct.pool.qs[k], wbuf)
					}
					if err != nil {
						errs[w] = err
						return
					}
					if err = bw.Flush(); err != nil {
						errs[w] = err
						return
					}
					resp, rb, err := serve.ReadResponse(br, bits[t], rbuf)
					if err != nil {
						errs[w] = err
						return
					}
					rbuf = rb
					if resp.Status == serve.StatusOK {
						// Latency includes all retries: the client
						// experiences the frame, not the attempt.
						local = append(local, time.Since(t0))
						completed[t].Add(1)
						if !resp.Converged {
							unconverged.Add(1)
						}
						diff[t].CopyFrom(bits[t])
						diff[t].Xor(ct.pool.cws[k])
						if diff[t].PopCount() > 0 {
							frameErrors.Add(1)
						}
						break
					}
					switch resp.Status {
					case serve.StatusOverloaded:
						shed.Add(1)
					case serve.StatusDeadline:
						deadlined.Add(1)
					case serve.StatusInternal:
						crashed.Add(1)
					case serve.StatusUnknownCode:
						// Permanent by contract: retrying cannot succeed.
						errs[w] = fmt.Errorf("server does not serve code %q (id %d); it advertises: %s",
							ct.entry.Name, ct.entry.ID, advertisedNames(reg, resp.Codes))
						return
					default:
						errs[w] = fmt.Errorf("server status %d", resp.Status)
						return
					}
					if attempt >= retries {
						abandoned.Add(1)
						break
					}
					retried.Add(1)
					d := backoff << uint(attempt)
					time.Sleep(d/2 + time.Duration(jr.Uint64n(uint64(d/2)+1)))
				}
			}
			latencies[w] = local
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ph, err
		}
	}
	ph.ElapsedSecs = time.Since(start).Seconds()
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	ph.PerCode = make(map[string]int64, len(traffic))
	var bits float64
	for t, ct := range traffic {
		n := completed[t].Load()
		ph.PerCode[ct.entry.Name] = n
		bits += float64(n) * float64(ct.built.PayloadBits())
	}
	ph.Shed = shed.Load()
	ph.Deadlined = deadlined.Load()
	ph.Crashed = crashed.Load()
	ph.Retries = retried.Load()
	ph.Abandoned = abandoned.Load()
	ph.FrameErrors = frameErrors.Load()
	ph.Unconverged = unconverged.Load()
	if ph.ElapsedSecs > 0 {
		ph.FPS = float64(len(all)) / ph.ElapsedSecs
		ph.Mbps = bits / ph.ElapsedSecs / 1e6
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ph.P50Micros = pct(all, 0.50)
	ph.P90Micros = pct(all, 0.90)
	ph.P99Micros = pct(all, 0.99)
	return ph, nil
}

// advertisedNames renders a StatusUnknownCode advertisement as registry
// names where known, raw IDs otherwise.
func advertisedNames(reg *registry.Registry, ids []byte) string {
	if len(ids) == 0 {
		return "(no codes)"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		if e, ok := reg.Get(registry.ID(id)); ok {
			parts[i] = e.Name
		} else {
			parts[i] = fmt.Sprintf("id%d", id)
		}
	}
	return strings.Join(parts, ", ")
}

func pct(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds())
}

// phaseFillMean computes the aggregate mean batch fill over just the
// loaded phase from before/after mux snapshots.
func phaseFillMean(before, after registry.MuxSnapshot) float64 {
	var frames, batches int64
	b := snapshotByName(before)
	for _, cs := range after.Codes {
		frames += cs.Serve.FramesDecoded
		batches += cs.Serve.Batches
		if prev, ok := b[cs.Name]; ok {
			frames -= prev.Serve.FramesDecoded
			batches -= prev.Serve.Batches
		}
	}
	if batches <= 0 {
		return 0
	}
	return float64(frames) / float64(batches)
}

func phaseShed(before, after registry.MuxSnapshot) int64 {
	var shed int64
	b := snapshotByName(before)
	for _, cs := range after.Codes {
		shed += cs.Serve.FramesShed
		if prev, ok := b[cs.Name]; ok {
			shed -= prev.Serve.FramesShed
		}
	}
	return shed
}

// perCodeServer breaks the loaded phase's server-side counters out per
// code.
func perCodeServer(before, after registry.MuxSnapshot) map[string]ServerPerCode {
	out := make(map[string]ServerPerCode)
	b := snapshotByName(before)
	for _, cs := range after.Codes {
		if !cs.Built {
			continue
		}
		frames, batches, shed := cs.Serve.FramesDecoded, cs.Serve.Batches, cs.Serve.FramesShed
		if prev, ok := b[cs.Name]; ok {
			frames -= prev.Serve.FramesDecoded
			batches -= prev.Serve.Batches
			shed -= prev.Serve.FramesShed
		}
		pc := ServerPerCode{FramesDecoded: frames, Shed: shed}
		if batches > 0 {
			pc.BatchFillMean = float64(frames) / float64(batches)
		}
		out[cs.Name] = pc
	}
	return out
}

func snapshotByName(s registry.MuxSnapshot) map[string]registry.CodeSnapshot {
	out := make(map[string]registry.CodeSnapshot, len(s.Codes))
	for _, cs := range s.Codes {
		if cs.Built {
			out[cs.Name] = cs
		}
	}
	return out
}

// fetchMetrics reads a server's /metrics body, verbatim and as the mux
// snapshot it embeds.
func fetchMetrics(url string) (json.RawMessage, registry.MuxSnapshot, error) {
	var snap registry.MuxSnapshot
	resp, err := http.Get(url)
	if err != nil {
		return nil, snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, snap, err
	}
	return body, snap, nil
}
