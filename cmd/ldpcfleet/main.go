// Command ldpcfleet is the fault-tolerant routing front tier over a
// fleet of ldpcserver instances. Clients connect to it exactly as they
// would to one server — the same length-prefixed v1/v2 protocol — and
// the frames are dealt to the backends by weighted round-robin, with
// health-aware weights, hedged retries under a global budget,
// at-most-once requeue of frames lost to a dying instance, and upstream
// backpressure when the whole fleet saturates.
//
// Backends are named with -backends; each backend's health is polled
// from its /healthz endpoint when -healthz supplies one (positionally
// matched, and exactly what ldpcserver serves there), falling back to a
// TCP dial probe on its decode address otherwise. An unhealthy or
// draining backend takes no new frames while its in-flight frames
// complete, and a degraded one takes half its share; a drained backend
// rejoins after -readmit consecutive healthy probes.
//
// The HTTP listener exposes fleet-wide observability:
//
//	/metrics     the fleet snapshot as JSON — routing, loss, requeue,
//	             hedge and budget counters, p50/p90/p99 latency of
//	             answered frames, and per-backend state
//	/healthz     the same snapshot: 200 while at least one backend is
//	             routable, else 503
//	/debug/vars  the same snapshot through expvar
//
// The endpoints are serve.HTTPMux, the surface ldpcserver and
// ldpcstation serve too.
//
// On SIGTERM or SIGINT the router drains like ldpcserver: open client
// connections get until -timeout to end and are then closed (at once
// on a second signal), in-flight frames complete, the fleet summary
// prints and the process exits 0.
//
// Usage:
//
//	ldpcfleet -backends host:7070,host2:7070 [-healthz url1,url2]
//	          [-addr :7080] [-http :7081] [-codes all] [-conns 4]
//	          [-pipeline 32] [-timeout 2s] [-hedge 0] [-retryburst 16]
//	          [-retryratio 0.1] [-poll 500ms] [-readmit 3] [-maxinflight 0]
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpcfleet: ")
	var (
		addr     = flag.String("addr", ":7080", "TCP decode listen address")
		httpAddr = flag.String("http", ":7081", "HTTP metrics listen address (empty disables)")
		backends = flag.String("backends", "", "comma-separated backend decode addresses (required)")
		healthz  = flag.String("healthz", "", "comma-separated backend /healthz URLs, positionally matching -backends (empty entries dial-probe)")
		codes    = flag.String("codes", "all", "routed registry codes, comma-separated names or \"all\"")

		conns       = flag.Int("conns", 4, "connections per backend")
		pipeline    = flag.Int("pipeline", 32, "requests in flight per connection")
		maxInflight = flag.Int("maxinflight", 0, "frames in flight across the fleet before shedding (0 = pool capacity)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-frame deadline across all attempts")
		hedge       = flag.Duration("hedge", 0, "outstanding time before a duplicate attempt races another backend (0 = timeout/8, negative disables)")
		retryBurst  = flag.Int("retryburst", 16, "retry budget capacity")
		retryRatio  = flag.Float64("retryratio", 0.1, "retry tokens earned per successful frame")
		poll        = flag.Duration("poll", 500*time.Millisecond, "health probe period")
		readmit     = flag.Int("readmit", 3, "consecutive healthy probes before a drained backend rejoins")
	)
	flag.Parse()

	if *backends == "" {
		log.Fatal("-backends is required")
	}
	var bcs []fleet.BackendConfig
	hurls := strings.Split(*healthz, ",")
	for i, a := range strings.Split(*backends, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		bc := fleet.BackendConfig{Addr: a}
		if i < len(hurls) && strings.TrimSpace(hurls[i]) != "" {
			bc.Probe = fleet.HTTPProbe(strings.TrimSpace(hurls[i]), *poll)
		}
		bcs = append(bcs, bc)
	}

	reg := registry.Default()
	served, err := reg.Resolve(*codes)
	if err != nil {
		log.Fatal(err)
	}
	cb, err := registry.NewCodebook(reg, served)
	if err != nil {
		log.Fatal(err)
	}

	r, err := fleet.New(fleet.Config{
		Backends:        bcs,
		Codebook:        cb,
		ConnsPerBackend: *conns,
		PipelineDepth:   *pipeline,
		MaxInflight:     *maxInflight,
		RequestTimeout:  *timeout,
		HedgeAfter:      *hedge,
		RetryRatio:      *retryRatio,
		RetryBurst:      *retryBurst,
		PollInterval:    *poll,
		ReadmitAfter:    *readmit,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d codes across %d backends, %d conns × depth %d each",
		len(served), len(bcs), *conns, *pipeline)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("fleet endpoint on %s", l.Addr())

	if *httpAddr != "" {
		hmux := serve.HTTPMux("ldpcfleet",
			func() any { return r.Metrics().Snapshot() },
			func() (any, bool) { s := r.Metrics().Snapshot(); return s, s.Healthy })
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

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("draining: refusing new connections, waiting up to %v for open ones", *timeout)
		if n := r.Front().Drain(l, r.Config().RequestTimeout, sig); n > 0 {
			log.Printf("closed %d open connections", n)
		}
	}()

	if err := r.ServeListener(l); err != nil {
		log.Print(err)
	}
	r.Close()
	s := r.Metrics().Snapshot()
	log.Printf("drained: %d frames in, %d completed, %d lost, %d deadline, %d shed upstream",
		s.FramesIn, s.FramesCompleted, s.FramesLost, s.FramesDeadline, s.ShedUpstream)
	log.Printf("resilience: %d requeues, %d hedges, %d budget denials", s.Requeues, s.Hedges, s.BudgetDenied)
	for _, b := range s.Backends {
		log.Printf("  %s (%s): %d frames, %d conn errors, %d drains, %d readmits",
			b.Name, b.State, b.Frames, b.ConnErrors, b.Drains, b.Readmits)
	}
}
