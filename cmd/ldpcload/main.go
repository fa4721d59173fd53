// Command ldpcload drives a decode endpoint — cmd/ldpcserver, or the
// cmd/ldpcfleet router in front of several — with concurrent decode
// traffic and reports achieved throughput and latency percentiles.
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
// -rate (clients send on a fixed schedule regardless of responses,
// exposing queueing latency). An open-loop frame's latency runs from
// the time it was due, not from when its client got round to sending
// it, so a client that falls behind the schedule cannot hide its own
// lag; the report's max_lag_us says how far behind the generator ran.
//
// With -metrics it reads the server's /metrics body into the report
// and logs the server's cumulative batch fill.
//
// Usage:
//
//	ldpcload [-addr 127.0.0.1:7070] [-codes c2] [-clients 16]
//	         [-frames 1024] [-rate 0] [-ebn0 4.2] [-retries 3]
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
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/sim"
)

// retryBackoff is the first retry's backoff; it doubles per attempt
// and is jittered.
const retryBackoff = 200 * time.Microsecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcload: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server decode address")
		codesStr = flag.String("codes", "c2", "registry codes the traffic cycles through (comma-separated, or \"all\")")
		clients  = flag.Int("clients", 16, "concurrent client connections")
		frames   = flag.Int("frames", 1024, "total frames")
		rate     = flag.Float64("rate", 0, "open-loop target rate in frames/s (0 = closed loop)")
		ebn0     = flag.Float64("ebn0", 4.2, "channel Eb/N0 in dB for the generated frames")
		retries  = flag.Int("retries", 3, "resubmissions of a frame the server shed, deadlined, or crashed on")
		jsonPath = flag.String("json", "", "write the report as JSON to this file")
		metrics  = flag.String("metrics", "", "fetch this /metrics URL into the report")
	)
	flag.Parse()

	reg := registry.Default()
	ids, err := reg.Resolve(*codesStr)
	if err != nil {
		log.Fatal(err)
	}
	traffic, err := newTraffic(reg, ids, *ebn0, 64)
	if err != nil {
		log.Fatal(err)
	}

	report := Report{
		GeneratedAtUnix: time.Now().Unix(),
		Address:         *addr,
		Codes:           trafficNames(traffic),
		CodeN:           traffic[0].built.Code.N,
		CodeK:           traffic[0].built.Code.K,
		EbN0dB:          *ebn0,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
	log.Printf("load: %d clients, %d frames across %s...", *clients, *frames, strings.Join(report.Codes, ","))
	load, err := runPhase(*addr, reg, traffic, *clients, *frames, *rate, *retries)
	if err != nil {
		log.Fatal(err)
	}
	report.Load = load
	log.Print(load.Format("loaded"))

	if *metrics != "" {
		if raw, snap, err := fetchMetrics(*metrics); err != nil {
			log.Printf("metrics: %v", err)
		} else {
			report.ServerMetrics = raw
			report.BatchFillMean = cumulativeFill(snap)
			log.Printf("server: cumulative batch fill mean %.2f", report.BatchFillMean)
		}
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
}

// codeTraffic is one registry code's share of the generated load.
type codeTraffic struct {
	entry *registry.Entry
	built *registry.Built
	v2    bool
	pool  *framePool
}

// newTraffic builds each code in ids with a pool of poolSize frames.
func newTraffic(reg *registry.Registry, ids []registry.ID, ebn0 float64, poolSize int) ([]*codeTraffic, error) {
	traffic := make([]*codeTraffic, len(ids))
	for i, id := range ids {
		e, _ := reg.Get(id)
		built, err := e.Build()
		if err != nil {
			return nil, err
		}
		pool, err := newFramePool(built, ebn0, poolSize)
		if err != nil {
			return nil, err
		}
		traffic[i] = &codeTraffic{
			entry: e,
			built: built,
			// The default code travels untagged (v1), everything else
			// tagged (v2), so a mixed run interleaves both framings on
			// every connection.
			v2:   id != reg.DefaultID(),
			pool: pool,
		}
	}
	return traffic, nil
}

func trafficNames(traffic []*codeTraffic) []string {
	out := make([]string, len(traffic))
	for i, ct := range traffic {
		out[i] = ct.entry.Name
	}
	return out
}

// Report is the JSON document -json writes.
type Report struct {
	GeneratedAtUnix int64    `json:"generated_at_unix"`
	Address         string   `json:"address"`
	Codes           []string `json:"codes"`
	CodeN           int      `json:"code_n"`
	CodeK           int      `json:"code_k"`
	EbN0dB          float64  `json:"ebn0_db"`
	NumCPU          int      `json:"num_cpu"`
	GOMAXPROCS      int      `json:"gomaxprocs"`

	Load Phase `json:"load"`

	BatchFillMean float64         `json:"batch_fill_mean,omitempty"`
	ServerMetrics json.RawMessage `json:"server_metrics,omitempty"`
}

// Phase is one measured traffic phase.
type Phase struct {
	Clients     int     `json:"clients"`
	Frames      int     `json:"frames"`
	RateTarget  float64 `json:"rate_target_fps,omitempty"`
	ElapsedSecs float64 `json:"elapsed_s"`
	FPS         float64 `json:"fps"`
	Mbps        float64 `json:"mbps"`
	P50Micros   float64 `json:"p50_us"`
	P90Micros   float64 `json:"p90_us"`
	P99Micros   float64 `json:"p99_us"`
	// MaxLagMicros is, in open loop, the furthest behind its due time
	// that any frame was sent.
	MaxLagMicros float64          `json:"max_lag_us,omitempty"`
	PerCode      map[string]int64 `json:"per_code,omitempty"`
	Shed         int64            `json:"shed"`
	Deadlined    int64            `json:"deadlined"`
	Crashed      int64            `json:"crashed,omitempty"`
	Retries      int64            `json:"retries"`
	Abandoned    int64            `json:"abandoned"`
	FrameErrors  int64            `json:"frame_errors"`
	Unconverged  int64            `json:"unconverged"`
}

func (p Phase) Format(name string) string {
	s := fmt.Sprintf("%s: %d frames / %.2fs = %.1f frames/s = %.2f Mbps, p50 %.0fµs p99 %.0fµs, %d shed, %d deadlined, %d retries, %d frame errors",
		name, p.Frames, p.ElapsedSecs, p.FPS, p.Mbps, p.P50Micros, p.P99Micros, p.Shed, p.Deadlined, p.Retries, p.FrameErrors)
	if p.RateTarget > 0 {
		s += fmt.Sprintf(", max lag %.0fµs", p.MaxLagMicros)
	}
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

func newFramePool(b *registry.Built, ebn0 float64, size int) (*framePool, error) {
	c := b.Code
	kEff := c.K - len(b.KnownZero)
	nTx := c.N - len(b.PuncturedCols) - len(b.KnownZero)
	ch, err := channel.NewAWGN(ebn0, float64(kEff)/float64(nTx))
	if err != nil {
		return nil, err
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
	return p, nil
}

// runPhase pushes `frames` frames through `clients` connections,
// cycling the traffic codes round-robin, and aggregates client-observed
// latency and correctness. rate > 0 paces the aggregate submission
// schedule (open loop, split across clients) and times each frame from
// its due time; rate == 0 runs closed loop and times each frame from
// its send. A frame the server sheds, deadlines, or loses to a
// transient server fault is resubmitted up to `retries` times with
// jittered exponential backoff. A StatusUnknownCode response is never
// retried: the rejection is permanent, so the phase fails immediately,
// naming the code and the server's advertised list.
func runPhase(addr string, reg *registry.Registry, traffic []*codeTraffic, clients, frames int, rate float64, retries int) (Phase, error) {
	ph := Phase{Clients: clients, Frames: frames, RateTarget: rate}
	var next atomic.Int64
	var shed, deadlined, crashed, retried, abandoned, frameErrors, unconverged atomic.Int64
	completed := make([]atomic.Int64, len(traffic))
	latencies := make([][]time.Duration, clients)
	lags := make([]time.Duration, clients)
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
				// In open loop the frame's clock starts at its due time,
				// so lateness in sending counts as latency.
				var t0 time.Time
				if interval > 0 {
					if d := time.Until(tick); d > 0 {
						time.Sleep(d)
					}
					lags[w] = max(lags[w], time.Since(tick))
					t0, tick = tick, tick.Add(interval)
				} else {
					t0 = time.Now()
				}
				t := int(i) % len(traffic)
				ct := traffic[t]
				k := int(i) % len(ct.pool.qs)
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
					d := retryBackoff << uint(attempt)
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
	for w, l := range latencies {
		all = append(all, l...)
		ph.MaxLagMicros = max(ph.MaxLagMicros, float64(lags[w].Microseconds()))
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

// cumulativeFill is the server's mean batch fill since it started:
// frames decoded per batch, summed over every code in one snapshot.
func cumulativeFill(s registry.MuxSnapshot) float64 {
	var frames, batches int64
	for _, cs := range s.Codes {
		frames += cs.Serve.FramesDecoded
		batches += cs.Serve.Batches
	}
	if batches <= 0 {
		return 0
	}
	return float64(frames) / float64(batches)
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
