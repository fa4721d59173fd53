package main

// Fleet mode: route the generated load through internal/fleet across N
// in-process backend instances — each a registry.Mux on its own
// loopback listener, its front door tracking the connections, so the
// chaos controller can kill one abruptly (listener, live connections,
// pools) mid-run and restart it later on the same address. `-fleet N`
// runs one routed phase; `-fleetbench` runs the scaling sweep
// N ∈ {1,2,4} plus the kill/restart chaos phase, enforces the
// resilience gates, and writes the BENCH_fleet.json artifact (exit 1 on
// a gate failure, after writing the artifact).

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

type fleetOpts struct {
	n        int
	bench    bool
	clients  int
	frames   int
	ebn0     float64
	iters    int
	workers  int
	linger   time.Duration
	retries  int
	backoff  time.Duration
	jsonPath string
}

// fleetBackend is one in-process decode instance behind the router.
type fleetBackend struct {
	name string
	reg  *registry.Registry
	ids  []registry.ID
	scfg serve.Config

	mu   sync.Mutex
	addr string // fixed after first start, reused across restarts
	up   bool
	l    net.Listener
	mux  *registry.Mux
}

// start brings the instance up (or back up on its original address
// after a kill, so the router's redial loop finds it again).
func (fb *fleetBackend) start() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.up {
		return nil
	}
	addr := fb.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	for i := 0; err != nil && fb.addr != "" && i < 20; i++ {
		// The previous incarnation's port can take a moment to free.
		time.Sleep(50 * time.Millisecond)
		l, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return err
	}
	mux, err := registry.NewMux(fb.reg, fb.ids, fb.scfg)
	if err != nil {
		l.Close()
		return err
	}
	fb.addr = l.Addr().String()
	fb.l, fb.mux, fb.up = l, mux, true
	go mux.ServeListener(l)
	return nil
}

// kill is abrupt instance death, not a drain: listener first (dials
// start failing), then every live connection mid-pipeline, then the
// pools. Frames the instance had claimed are simply gone — exactly the
// loss the router must absorb.
func (fb *fleetBackend) kill() {
	fb.mu.Lock()
	if !fb.up {
		fb.mu.Unlock()
		return
	}
	fb.up = false
	l, mux := fb.l, fb.mux
	fb.l, fb.mux = nil, nil
	fb.mu.Unlock()
	l.Close()
	mux.Front().CloseConns()
	mux.Close()
}

// probe is the router's health view of this instance: an error while
// down, the mux's aggregated HealthSnapshot while up — the same truth
// ldpcserver serves on /healthz.
func (fb *fleetBackend) probe() (serve.HealthSnapshot, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if !fb.up {
		return serve.HealthSnapshot{}, fmt.Errorf("%s is down", fb.name)
	}
	return fb.mux.HealthSnapshot(), nil
}

// buildFleet starts n backends and a router in front of them, returns
// the router's client address and a shutdown closure.
func buildFleet(reg *registry.Registry, ids []registry.ID, n int, o fleetOpts) ([]*fleetBackend, *fleet.Router, string, func(), error) {
	p := fixed.DefaultHighSpeedParams()
	p.MaxIterations = o.iters
	scfg := serve.Config{Params: p, Workers: o.workers, Linger: o.linger}
	backs := make([]*fleetBackend, n)
	bcs := make([]fleet.BackendConfig, n)
	for i := range backs {
		fb := &fleetBackend{name: fmt.Sprintf("backend%d", i), reg: reg, ids: ids, scfg: scfg}
		if err := fb.start(); err != nil {
			for _, prev := range backs[:i] {
				prev.kill()
			}
			return nil, nil, "", nil, err
		}
		backs[i] = fb
		bcs[i] = fleet.BackendConfig{Name: fb.name, Addr: fb.addr, Probe: fb.probe}
	}
	shutdownBacks := func() {
		for _, fb := range backs {
			fb.kill()
		}
	}
	cb, err := registry.NewCodebook(reg, ids)
	if err != nil {
		shutdownBacks()
		return nil, nil, "", nil, err
	}
	r, err := fleet.New(fleet.Config{
		Backends: bcs,
		Codebook: cb,
		// Fast poll and short hysteresis so the kill/restart cycle fits
		// a bench phase; production defaults are in fleet.Config.
		RequestTimeout: 2 * time.Second,
		PollInterval:   50 * time.Millisecond,
		ReadmitAfter:   2,
		RetryBurst:     64,
	})
	if err != nil {
		shutdownBacks()
		return nil, nil, "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		shutdownBacks()
		return nil, nil, "", nil, err
	}
	go r.ServeListener(l)
	shutdown := func() {
		l.Close()
		r.Close()
		shutdownBacks()
	}
	return backs, r, l.Addr().String(), shutdown, nil
}

// FleetReport is the BENCH_fleet.json artifact.
type FleetReport struct {
	GeneratedAtUnix int64    `json:"generated_at_unix"`
	Codes           []string `json:"codes"`
	EbN0dB          float64  `json:"ebn0_db"`
	Iterations      int      `json:"iterations"`
	Clients         int      `json:"clients"`
	FramesPerPhase  int      `json:"frames_per_phase"`
	NumCPU          int      `json:"num_cpu"`
	GOMAXPROCS      int      `json:"gomaxprocs"`

	Scaling []FleetScalePoint `json:"scaling"`
	Chaos   *FleetChaos       `json:"chaos,omitempty"`

	PaperMbps float64 `json:"paper_highspeed_mbps_18iters"`
}

// FleetScalePoint is one routed phase at a fleet size.
type FleetScalePoint struct {
	Backends int `json:"backends"`
	Phase
	Requeues   int64 `json:"router_requeues"`
	Hedges     int64 `json:"router_hedges"`
	FramesLost int64 `json:"router_frames_lost"`
}

// FleetChaos is the kill/restart phase: the load phase as the client
// saw it, the timeline of fleet state, the windowed throughput around
// the kill, and the resilience gates.
type FleetChaos struct {
	Backends int `json:"backends"`
	Phase
	KillAtSecs    float64 `json:"kill_at_s"`
	RestartAtSecs float64 `json:"restart_at_s"`
	PreKillFPS    float64 `json:"prekill_fps"`
	OutageFPS     float64 `json:"outage_fps"`
	RecoveredFPS  float64 `json:"recovered_fps"`
	RecoveryRatio float64 `json:"recovery_ratio"`

	Requeues     int64 `json:"router_requeues"`
	Hedges       int64 `json:"router_hedges"`
	FramesLost   int64 `json:"router_frames_lost"`
	BudgetDenied int64 `json:"router_budget_denied"`
	ShedUpstream int64 `json:"router_shed_upstream"`

	Timeline []ChaosSample `json:"timeline"`

	GateFailures []string `json:"gate_failures,omitempty"`
	GatesPassed  bool     `json:"gates_passed"`
}

// ChaosSample is one 100ms tick of fleet state during the chaos phase.
type ChaosSample struct {
	TSecs     float64 `json:"t_s"`
	Completed int64   `json:"completed"`
	Lost      int64   `json:"lost"`
	Requeues  int64   `json:"requeues"`
	Active    int     `json:"active_backends"`
}

// runFleetPhase pushes one load phase through a fresh fleet of n
// backends and returns the client-observed phase plus the router's
// final snapshot.
func runFleetPhase(reg *registry.Registry, ids []registry.ID, traffic []*codeTraffic, n int, o fleetOpts) (Phase, fleet.Snapshot, error) {
	_, r, target, shutdown, err := buildFleet(reg, ids, n, o)
	if err != nil {
		return Phase{}, fleet.Snapshot{}, err
	}
	defer shutdown()
	ph, err := runPhase(target, reg, traffic, o.clients, o.frames, 0, o.retries, o.backoff)
	if err != nil {
		return ph, fleet.Snapshot{}, err
	}
	return ph, r.Metrics().Snapshot(), nil
}

// runFleetChaos drives the load through 4 backends, kills one abruptly
// at a quarter of the phase, restarts it at half, and audits the
// result: no corrupt or duplicated frames, bounded requeues, client
// latency under the router deadline, and throughput recovered to at
// least 3/4 of the pre-kill rate.
func runFleetChaos(reg *registry.Registry, ids []registry.ID, traffic []*codeTraffic, o fleetOpts) (*FleetChaos, error) {
	const n = 4
	backs, r, target, shutdown, err := buildFleet(reg, ids, n, o)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	ch := &FleetChaos{Backends: n}
	victim := backs[0]
	start := time.Now()

	type phres struct {
		ph  Phase
		err error
	}
	done := make(chan phres, 1)
	go func() {
		ph, err := runPhase(target, reg, traffic, o.clients, o.frames, 0, o.retries, o.backoff)
		done <- phres{ph, err}
	}()

	sample := func() ChaosSample {
		s := r.Metrics().Snapshot()
		return ChaosSample{
			TSecs:     time.Since(start).Seconds(),
			Completed: s.FramesCompleted,
			Lost:      s.FramesLost,
			Requeues:  s.Requeues,
			Active:    s.ActiveBackends,
		}
	}

	var res phres
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	stall := time.NewTimer(10 * time.Minute)
	defer stall.Stop()
loop:
	for {
		select {
		case res = <-done:
			break loop
		case <-stall.C:
			return nil, errors.New("fleet chaos phase stalled")
		case <-tick.C:
			s := sample()
			ch.Timeline = append(ch.Timeline, s)
			switch {
			case ch.KillAtSecs == 0 && s.Completed >= int64(o.frames)/4:
				ch.KillAtSecs = s.TSecs
				log.Printf("chaos: killing %s at %.2fs (%d frames done)", victim.name, s.TSecs, s.Completed)
				victim.kill()
			case ch.KillAtSecs != 0 && ch.RestartAtSecs == 0 && s.Completed >= int64(o.frames)/2:
				ch.RestartAtSecs = s.TSecs
				log.Printf("chaos: restarting %s at %.2fs (%d frames done)", victim.name, s.TSecs, s.Completed)
				if err := victim.start(); err != nil {
					log.Printf("chaos: restart failed: %v", err)
				}
			}
		}
	}
	if res.err != nil {
		return nil, res.err
	}
	ch.Phase = res.ph
	ch.Timeline = append(ch.Timeline, sample())

	snap := r.Metrics().Snapshot()
	ch.Requeues = snap.Requeues
	ch.Hedges = snap.Hedges
	ch.FramesLost = snap.FramesLost
	ch.BudgetDenied = snap.BudgetDenied
	ch.ShedUpstream = snap.ShedUpstream

	// Windowed rates: before the kill, between kill and restart, and
	// the settled tail after the restart's re-admission.
	rate := func(from, to float64) float64 {
		var a, b *ChaosSample
		for i := range ch.Timeline {
			s := &ch.Timeline[i]
			if s.TSecs <= from || a == nil {
				a = s
			}
			if s.TSecs <= to {
				b = s
			}
		}
		if a == nil || b == nil || b.TSecs <= a.TSecs {
			return 0
		}
		return float64(b.Completed-a.Completed) / (b.TSecs - a.TSecs)
	}
	end := ch.Timeline[len(ch.Timeline)-1].TSecs
	ch.PreKillFPS = rate(0, ch.KillAtSecs)
	if ch.RestartAtSecs > 0 {
		ch.OutageFPS = rate(ch.KillAtSecs, ch.RestartAtSecs)
		// Skip the re-admission hysteresis window, then measure the tail.
		ch.RecoveredFPS = rate(ch.RestartAtSecs+0.5, end)
	}
	if ch.PreKillFPS > 0 {
		ch.RecoveryRatio = ch.RecoveredFPS / ch.PreKillFPS
	}

	fail := func(format string, args ...any) {
		ch.GateFailures = append(ch.GateFailures, fmt.Sprintf(format, args...))
	}
	if ch.FrameErrors > 0 {
		fail("%d corrupt frames (want 0: a duplicated or mangled frame desyncs the client stream)", ch.FrameErrors)
	}
	if ch.Abandoned > 0 {
		fail("%d frames abandoned after client retries (want 0)", ch.Abandoned)
	}
	if ch.Requeues > int64(o.frames) {
		fail("%d router requeues for %d frames (want <= 1 per claimed frame)", ch.Requeues, o.frames)
	}
	if deadlineUs := (2 * time.Second).Seconds() * 1e6; ch.P99Micros >= deadlineUs {
		fail("client p99 %.0fµs at or above the router deadline %.0fµs", ch.P99Micros, deadlineUs)
	}
	if ch.RecoveryRatio < 0.75 {
		fail("recovered to %.0f%% of pre-kill throughput (want >= 75%%: %.1f -> %.1f fps)",
			ch.RecoveryRatio*100, ch.PreKillFPS, ch.RecoveredFPS)
	}
	ch.GatesPassed = len(ch.GateFailures) == 0
	return ch, nil
}

// runFleetMain is the -fleet/-fleetbench entry point: the scaling
// sweep, the chaos phase, the artifact, and the gate verdict.
func runFleetMain(reg *registry.Registry, ids []registry.ID, traffic []*codeTraffic, o fleetOpts) {
	rep := FleetReport{
		GeneratedAtUnix: time.Now().Unix(),
		Codes:           trafficNames(traffic),
		EbN0dB:          o.ebn0,
		Iterations:      o.iters,
		Clients:         o.clients,
		FramesPerPhase:  o.frames,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		PaperMbps:       560,
	}
	sizes := []int{o.n}
	if o.bench {
		sizes = []int{1, 2, 4}
	}
	for _, n := range sizes {
		log.Printf("fleet: %d backends, %d clients, %d frames across %s...",
			n, o.clients, o.frames, trafficNames(traffic))
		ph, snap, err := runFleetPhase(reg, ids, traffic, n, o)
		if err != nil {
			log.Fatal(err)
		}
		log.Print(ph.Format(fmt.Sprintf("fleet x%d", n)))
		rep.Scaling = append(rep.Scaling, FleetScalePoint{
			Backends: n, Phase: ph,
			Requeues: snap.Requeues, Hedges: snap.Hedges, FramesLost: snap.FramesLost,
		})
	}
	if o.bench {
		log.Printf("chaos: 4 backends, kill at 25%%, restart at 50%%...")
		chaos, err := runFleetChaos(reg, ids, traffic, o)
		if err != nil {
			log.Fatal(err)
		}
		rep.Chaos = chaos
		log.Print(chaos.Format("chaos"))
		log.Printf("chaos: kill %.2fs restart %.2fs, %.1f -> %.1f -> %.1f fps (recovery %.0f%%), %d requeues, %d lost, %d hedges",
			chaos.KillAtSecs, chaos.RestartAtSecs, chaos.PreKillFPS, chaos.OutageFPS, chaos.RecoveredFPS,
			chaos.RecoveryRatio*100, chaos.Requeues, chaos.FramesLost, chaos.Hedges)
	}
	if o.jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", o.jsonPath)
	}
	if rep.Chaos != nil {
		if !rep.Chaos.GatesPassed {
			for _, f := range rep.Chaos.GateFailures {
				log.Printf("chaos gate FAILED: %s", f)
			}
			os.Exit(1)
		}
		log.Print("chaos gates passed: no corruption, bounded requeues, latency under deadline, throughput recovered")
	}
}
