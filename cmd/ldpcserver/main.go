// Command ldpcserver is decode-as-a-service for the CCSDS LDPC code
// family: a TCP server that routes code-tagged frames from concurrent
// clients to per-code pools of pre-built decoders, each packing frames
// into 8-lane SWAR batches (the software form of the paper's high-speed
// frame-packed memory word). With -superbatch, -lanes and -shards every
// pool's dispatch widens to a sharded wide-lane super-batch of up to
// 512 frames, still bit-exact.
//
// Clients speak the length-prefixed protocol of internal/serve: a v1
// request is one untagged frame of 8176 Q(5,1) channel LLRs as int8
// (decoded as the C2 code, preserving pre-multi-mode clients); a v2
// request prefixes [0x02][codeID] and carries the tagged code's
// transmitted-frame LLRs. -codes selects the served subset of the
// registry; frames tagged outside it get a StatusUnknownCode response
// carrying the advertised list. cmd/ldpcload is the reference client;
// cmd/ldpcinfo prints the catalog.
//
// A second, HTTP listener exposes observability (serve.HTTPMux, the
// surface ldpcfleet and ldpcstation serve too):
//
//	/metrics     live counters as JSON, broken out per code — frames
//	             decoded/shed/deadlined, queue depth, batch-fill
//	             histogram and mean, p50/p90/p99 latency — plus the
//	             v1/v2/unknown routing counters, the payload rate
//	             decoded since start and the analytical throughput
//	             model for the default code
//	/healthz     a serve.HealthSnapshot JSON body plus a draining
//	             flag: 200 while every built pool's sliding-window
//	             failure rate is below threshold, 503 otherwise or
//	             while draining — the load-balancer rotation signal,
//	             and exactly what a fleet router's HTTPProbe consumes
//	/debug/vars  the /metrics object through expvar
//	/debug/pprof CPU/heap/goroutine profiling — only with -pprof, so a
//	             production instance does not expose profiling by
//	             default
//
// On SIGTERM or SIGINT the server drains gracefully: the listener
// closes (new connections refused, /healthz flips to 503), open
// connections get until -draintimeout to end, metrics flush to the log,
// and the process exits 0. Connections still open then — or at a
// second signal — are closed (serve.Front.Drain).
//
// Usage:
//
//	ldpcserver [-addr :7070] [-http :7071] [-codes all] [-preload]
//	           [-workers N] [-shards 1] [-superbatch 1] [-lanes 1]
//	           [-iters 18] [-linger 500us] [-queue 0] [-deadline 0]
//	           [-draintimeout 15s] [-earlystop] [-pprof]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/throughput"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcserver: ")
	var (
		addr      = flag.String("addr", ":7070", "TCP decode listen address")
		httpAddr  = flag.String("http", ":7071", "HTTP metrics listen address (empty disables)")
		codes     = flag.String("codes", "all", "served registry codes, comma-separated names or \"all\"")
		preload   = flag.Bool("preload", false, "build every served code's pool at startup instead of on first frame")
		workers   = flag.Int("workers", 0, "decoder pool size per code (0 = GOMAXPROCS/shards)")
		shards    = flag.Int("shards", 1, "shard goroutines per decoder (bit-exact multi-core decode)")
		super     = flag.Int("superbatch", 1, "strips per dispatch, 1..8 (widens batches to 8×superbatch×lanes frames)")
		lanes     = flag.Int("lanes", 1, "strip width in 8-frame words (1, 2, 4 or 8; bit-exact wide-lane kernels)")
		iters     = flag.Int("iters", 18, "decoding iterations (the paper's operating point)")
		linger    = flag.Duration("linger", 500*time.Microsecond, "max wait to fill an 8-lane batch")
		queue     = flag.Int("queue", 0, "frame queue depth before shedding (0 = default)")
		deadline  = flag.Duration("deadline", 0, "per-request decode deadline, 0 disables")
		drainT    = flag.Duration("draintimeout", 15*time.Second, "max wait for open connections after a drain signal")
		hwindow   = flag.Duration("healthwindow", 0, "sliding window of the /healthz failure rate (0 = default 30s)")
		earlyStop = flag.Bool("earlystop", true, "stop a frame's lanes once its syndrome is zero")
		pprofOn   = flag.Bool("pprof", false, "expose /debug/pprof on the metrics listener")
	)
	flag.Parse()

	reg := registry.Default()
	served, err := reg.Resolve(*codes)
	if err != nil {
		log.Fatal(err)
	}
	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = *iters
	p.DisableEarlyStop = !*earlyStop
	m, err := registry.NewMux(reg, served, serve.Config{
		Params:       p,
		Workers:      *workers,
		Shards:       *shards,
		SuperBatch:   *super,
		LaneWidth:    *lanes,
		Linger:       *linger,
		QueueDepth:   *queue,
		Deadline:     *deadline,
		HealthWindow: *hwindow,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *preload {
		if err := m.Preload(); err != nil {
			log.Fatal(err)
		}
	}
	var names []string
	for _, e := range m.Served() {
		names = append(names, fmt.Sprintf("%s(%d,%d)", e.Name, e.FrameLen, e.NominalK))
	}
	log.Printf("serving %s: %d shards × %d-word strips per pool, linger %v",
		strings.Join(names, " "), *shards, *lanes, *linger)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("decode endpoint on %s", l.Addr())

	var draining atomic.Bool

	if *httpAddr != "" {
		hmux := serve.HTTPMux("ldpcserver", metrics(m, *iters), healthz(m, &draining))
		if *pprofOn {
			hmux.HandleFunc("/debug/pprof/", pprof.Index)
			hmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			hmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			hmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			hmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics", hl.Addr())
		go func() {
			if err := http.Serve(hl, hmux); err != nil {
				log.Printf("http: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM: graceful drain — stop accepting (and flip
	// /healthz to 503 so a fleet router reroutes), let open connections
	// finish, then flush metrics and exit 0. Open connections outliving
	// -draintimeout, or a second signal, are closed: a stuck client must
	// not hold the process hostage.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		draining.Store(true)
		log.Printf("draining: refusing new connections, waiting up to %v for open ones", *drainT)
		if n := m.Front().Drain(l, *drainT, sig); n > 0 {
			log.Printf("closed %d open connections", n)
		}
	}()

	if err := m.ServeListener(l); err != nil {
		log.Print(err)
	}
	m.Close()
	snap := m.Snapshot()
	for _, cs := range snap.Codes {
		if !cs.Built {
			continue
		}
		log.Printf("drained %s: %d frames in %d batches (fill mean %.2f), %d shed, p99 %.0f µs",
			cs.Name, cs.Serve.FramesDecoded, cs.Serve.Batches, cs.Serve.BatchFillMean,
			cs.Serve.FramesShed, cs.Serve.LatencyP99Micros)
	}
	log.Printf("routing: %d v1, %d v2, %d unknown-code, %d bad frames",
		snap.V1Frames, snap.V2Frames, snap.UnknownCode, snap.BadFrames)
}

// healthz returns the /healthz body source: the mux's aggregated
// serve.HealthSnapshot — what a fleet router's HTTPProbe decodes — with
// a draining flag. Draining reads unhealthy, so a shutdown turns into a
// reroute instead of an error burst.
func healthz(m *registry.Mux, draining *atomic.Bool) func() (any, bool) {
	return func() (any, bool) {
		out := struct {
			serve.HealthSnapshot
			Draining bool `json:"draining"`
		}{m.HealthSnapshot(), draining.Load()}
		out.Healthy = out.Healthy && !out.Draining
		return out, out.Healthy
	}
}

// metrics returns the /metrics object source: the live mux snapshot —
// per-code pool counters plus routing totals — next to the analytical
// model for the default code, computed once, so measured Mbps can be
// read against the paper's high-speed figure without a separate tool.
// Measured Mbps counts payload bits, as ldpcload does.
func metrics(m *registry.Mux, iters int) func() any {
	type report struct {
		registry.MuxSnapshot
		UptimeSeconds    float64 `json:"uptime_seconds"`
		MeasuredMbps     float64 `json:"measured_mbps"`
		ModelMbps        float64 `json:"model_mbps,omitempty"`
		ModelError       string  `json:"model_error,omitempty"`
		PaperMbps18Iters float64 `json:"paper_highspeed_mbps_18iters"`
	}
	base := report{PaperMbps18Iters: 560}
	if mbps, err := throughput.HighSpeedMbps(iters); err != nil {
		base.ModelError = err.Error()
	} else {
		base.ModelMbps = mbps
	}
	start := time.Now()
	return func() any {
		out := base
		out.MuxSnapshot = m.Snapshot()
		out.UptimeSeconds = time.Since(start).Seconds()
		payloadBits := map[byte]int{}
		for _, ap := range m.Pools().Active() {
			payloadBits[byte(ap.Entry.ID)] = ap.Built.PayloadBits()
		}
		var bits float64
		for _, cs := range out.Codes {
			bits += float64(cs.Serve.FramesDecoded) * float64(payloadBits[cs.ID])
		}
		if out.UptimeSeconds > 0 {
			out.MeasuredMbps = bits / out.UptimeSeconds / 1e6
		}
		return out
	}
}
