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
// A second, HTTP listener exposes observability:
//
//	/metrics     live counters as JSON, broken out per code — frames
//	             decoded/shed/deadlined, queue depth, batch-fill
//	             histogram and mean, p50/p90/p99 latency — plus the
//	             v1/v2/unknown routing counters and the analytical
//	             throughput model for the default code
//	/healthz     a serve.HealthSnapshot JSON body: 200 while every
//	             built pool's sliding-window failure rate is below
//	             threshold, 503 otherwise or while draining — the
//	             load-balancer rotation signal, and exactly what a
//	             fleet router's HTTPProbe consumes
//	/debug/vars  the same snapshot through expvar
//	/debug/pprof CPU/heap/goroutine profiling — only with -pprof, so a
//	             production instance does not expose profiling by
//	             default
//
// On SIGTERM or SIGINT the server drains gracefully: the listener
// closes (new connections refused, /healthz flips to 503), in-flight
// frames on open connections finish, metrics flush to the log, and the
// process exits 0. Connections still open after -draintimeout — or a
// second signal — are closed forcibly.
//
// Usage:
//
//	ldpcserver [-addr :7070] [-http :7071] [-codes all] [-preload]
//	           [-workers N] [-shards 1] [-superbatch 1] [-lanes 1]
//	           [-iters 18] [-linger 500us] [-queue 0] [-deadline 0]
//	           [-draintimeout 15s] [-earlystop] [-pprof]
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccsdsldpc/internal/code"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/hwsim"
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

	ds := &drainServer{m: m, conns: make(map[net.Conn]struct{})}

	if *httpAddr != "" {
		expvar.Publish("ldpcserver", expvar.Func(func() any { return m.Snapshot() }))
		// A private mux, not http.DefaultServeMux: nothing is exposed
		// that is not registered here, so pprof stays off unless asked.
		hmux := http.NewServeMux()
		hmux.HandleFunc("/metrics", metricsHandler(m, *iters))
		hmux.HandleFunc("/healthz", healthHandler(ds))
		hmux.Handle("/debug/vars", expvar.Handler())
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
	// /healthz to 503 so a fleet router reroutes), let in-flight frames
	// on open connections finish, then flush metrics and exit 0. Open
	// connections outliving -draintimeout, or a second signal, are
	// closed forcibly: a stuck client must not hold the process hostage.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		ds.draining.Store(true)
		log.Printf("draining: refusing new connections, waiting up to %v for %d open", *drainT, ds.open())
		l.Close()
		select {
		case <-drained:
			return
		case <-sig:
			log.Print("second signal: closing open connections")
		case <-time.After(*drainT):
			log.Printf("drain timeout: closing %d open connections", ds.open())
		}
		ds.closeConns()
	}()

	if err := ds.serve(l); err != nil {
		log.Print(err)
	}
	close(drained)
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

// metricsHandler serves the live mux snapshot — per-code pool counters
// plus routing totals — next to the analytical model for the default
// code, so measured Mbps can be read against the paper's high-speed
// figure without a separate tool.
func metricsHandler(m *registry.Mux, iters int) http.HandlerFunc {
	start := time.Now()
	return func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		elapsed := time.Since(start).Seconds()
		out := struct {
			registry.MuxSnapshot
			UptimeSeconds    float64 `json:"uptime_seconds"`
			MeasuredMbps     float64 `json:"measured_mbps"`
			ModelMbps        float64 `json:"model_mbps,omitempty"`
			ModelError       string  `json:"model_error,omitempty"`
			PaperMbps18Iters float64 `json:"paper_highspeed_mbps_18iters"`
		}{
			MuxSnapshot:      snap,
			UptimeSeconds:    elapsed,
			PaperMbps18Iters: 560,
		}
		if elapsed > 0 {
			var bits float64
			for _, cs := range snap.Codes {
				bits += float64(cs.Serve.FramesDecoded) * float64(cs.K)
			}
			out.MeasuredMbps = bits / elapsed / 1e6
		}
		if mbps, err := modelMbps(iters); err != nil {
			out.ModelError = err.Error()
		} else {
			out.ModelMbps = mbps
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
		}
	}
}

// drainServer is the accept loop with connection tracking: the set of
// open decode connections is what a graceful drain waits on and what a
// forced drain closes.
type drainServer struct {
	m        *registry.Mux
	draining atomic.Bool
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
}

func (ds *drainServer) serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		ds.mu.Lock()
		ds.conns[conn] = struct{}{}
		ds.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				ds.mu.Lock()
				delete(ds.conns, conn)
				ds.mu.Unlock()
			}()
			_ = ds.m.ServeConn(conn)
		}()
	}
}

func (ds *drainServer) open() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.conns)
}

func (ds *drainServer) closeConns() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for c := range ds.conns {
		c.Close()
	}
}

// healthHandler is the load-balancer probe and the fleet router's HTTP
// probe body: a serve.HealthSnapshot aggregated across the built pools,
// served 200 while healthy and 503 once any pool's windowed failure
// rate crosses threshold — or the instance is draining, which is the
// rotation-exit signal that turns a shutdown into a reroute instead of
// an error burst.
func healthHandler(ds *drainServer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			serve.HealthSnapshot
			Draining bool `json:"draining"`
		}{HealthSnapshot: ds.m.HealthSnapshot(), Draining: ds.draining.Load()}
		if out.Draining {
			out.Healthy = false
		}
		w.Header().Set("Content-Type", "application/json")
		if !out.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	}
}

// modelMbps is the analytical high-speed throughput of the C2 code at
// the server's iteration count — the hardware figure the measured rate
// is judged against.
func modelMbps(iters int) (float64, error) {
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
	return throughput.MachineMbps(m, c)
}
