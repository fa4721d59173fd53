package registry

import (
	"net"
	"sync"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/serve"
)

// Mux is the multi-mode decode server: a handler of serve's front door
// over one codebook that routes each frame to the decoder pool of the
// code it is tagged with. Untagged (v1) frames go to the registry's
// default code, so single-code clients predating the code tag keep
// working against a multi-mode server.
//
// A frame tagged with a code outside the served set is answered with
// StatusUnknownCode carrying the advertised list of served IDs — a
// typed, permanent rejection the client can act on without retrying.
type Mux struct {
	*Codebook
	reg   *Registry
	pools *Pools
	front *serve.Front
	// scratch holds each served code's buffer pools, reused across
	// frames and connections.
	scratch map[ID]*codeScratch
}

// codeScratch is one code's buffer pools. A wire buffer (the frame's
// LLRs widened to int16) is held only while the handler expands the
// frame; a frameScratch is held until the frame is answered, so a frame
// in flight holds only its expanded inner frame and hard decisions.
type codeScratch struct {
	wire   sync.Pool // *[]int16
	frames sync.Pool // *frameScratch
}

// frameScratch is one frame's decode buffers and, while the frame is in
// flight, its completion: the reply slot it answers and the pool it
// returns to.
type frameScratch struct {
	q    []int16
	bits *bitvec.Vector
	rep  *serve.Reply
	pool *sync.Pool
}

// Complete answers the frame's reply slot, which copies the hard
// decisions out, then recycles the buffers. The pool's decode worker
// calls it, or Submit when the pool refuses the frame.
func (st *frameScratch) Complete(res ldpc.Result, err error) {
	rep := st.rep
	st.rep = nil
	rep.Result(serve.StatusFor(err), res)
	st.pool.Put(st)
}

// NewMux builds a mux serving the given subset of the registry with
// per-code pools from the shared template (see NewPools). Pools build
// lazily: a code nobody sends frames for costs nothing but its catalog
// entry.
func NewMux(reg *Registry, served []ID, tmpl serve.Config) (*Mux, error) {
	cb, err := NewCodebook(reg, served)
	if err != nil {
		return nil, err
	}
	m := &Mux{Codebook: cb, reg: reg, pools: NewPools(reg, tmpl), scratch: map[ID]*codeScratch{}}
	for _, e := range cb.entries {
		m.scratch[e.ID] = new(codeScratch)
	}
	m.front = serve.NewFront(cb, m.decode)
	return m, nil
}

// Served returns the served entries in ascending ID order.
func (m *Mux) Served() []*Entry { return m.entries }

// Pools returns the underlying per-code pools (for direct submission or
// preloading).
func (m *Mux) Pools() *Pools { return m.pools }

// Front returns the mux's front door: its connection tracking, drain
// and request counters.
func (m *Mux) Front() *serve.Front { return m.front }

// Preload builds every served code and pool up front, surfacing
// construction errors at startup instead of on first traffic.
func (m *Mux) Preload() error {
	for _, e := range m.entries {
		if _, _, err := m.pools.Get(e.ID); err != nil {
			return err
		}
	}
	return nil
}

// Close drains and stops every built pool.
func (m *Mux) Close() { m.pools.Close() }

// ServeConn answers v1/v2 decode requests on one connection, in order,
// until the peer closes it (see serve.Front.ServeConn).
func (m *Mux) ServeConn(conn net.Conn) error { return m.front.ServeConn(conn) }

// ServeListener serves every connection the listener accepts until it
// closes, then waits for them to end (see serve.Front.ServeListener).
func (m *Mux) ServeListener(l net.Listener) error { return m.front.ServeListener(l) }

// decode is the mux's handler: it expands the frame onto its code's
// inner codeword in pooled scratch and submits it to that code's pool
// with the scratch as its completion, then returns at once. The front
// door reads the next request while the frame decodes, so one
// connection keeps up to serve.Window frames in flight and a pipelining
// client fills the pool's batches on its own.
func (m *Mux) decode(req serve.Request, rep *serve.Reply) {
	id := ID(req.Code)
	srv, built, err := m.pools.Get(id)
	if err != nil {
		// A pool that cannot build is a server fault, not a client one;
		// report it transiently and keep the connection.
		rep.Result(serve.StatusInternal, ldpc.Result{})
		return
	}
	cs := m.scratch[id]
	wire, _ := cs.wire.Get().(*[]int16)
	if wire == nil {
		w := make([]int16, len(built.TxPositions))
		wire = &w
	}
	st, _ := cs.frames.Get().(*frameScratch)
	if st == nil {
		st = &frameScratch{q: make([]int16, built.Code.N), bits: bitvec.New(built.Code.N), pool: &cs.frames}
	}
	err = serve.LLRsFromWire(*wire, req.LLRs)
	if err == nil {
		err = built.ExpandQ(st.q, *wire, srv.Config().Params.Format.Max())
	}
	cs.wire.Put(wire)
	if err != nil {
		cs.frames.Put(st)
		rep.Result(serve.StatusBadFrame, ldpc.Result{})
		return
	}
	st.rep = rep
	srv.Submit(st.q, st.bits, st)
}

// HealthSnapshot aggregates the built pools' routable state into one
// serve.HealthSnapshot — the instance-level view a /healthz handler
// serves and a fleet poller consumes, so both read the same verdict.
// Healthy requires every built pool healthy (an instance serving three
// codes well and one badly should leave rotation — per-code breakers
// already shed compute first); the counts sum across pools, and
// Degraded reports any pool's tripped breaker (the router down-weights
// the whole instance — frames hash by code, but pools share the
// process's cores, so one degraded pool taxes them all).
func (m *Mux) HealthSnapshot() serve.HealthSnapshot {
	agg := serve.HealthSnapshot{Healthy: true}
	// The aggregate failure rate weights each pool by its sample count;
	// with no samples the rate is zero, like a fresh instance's.
	var failed float64
	for _, ap := range m.pools.Active() {
		hs := ap.Server.HealthSnapshot()
		agg.Healthy = agg.Healthy && hs.Healthy
		agg.Counts.Add(hs.Counts)
		agg.Samples += hs.Samples
		failed += hs.FailureRate * float64(hs.Samples)
		agg.WindowSecs = max(agg.WindowSecs, hs.WindowSecs)
	}
	if agg.Samples > 0 {
		agg.FailureRate = failed / float64(agg.Samples)
	}
	return agg
}

// CodeSnapshot is one served code's live state.
type CodeSnapshot struct {
	ID       byte   `json:"id"`
	Name     string `json:"name"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	FrameLen int    `json:"frame_len"`
	// Built reports whether the pool exists yet (pools build on first
	// traffic); Serve and Healthy are meaningful only when it does.
	Built   bool           `json:"built"`
	Healthy bool           `json:"healthy"`
	Serve   serve.Snapshot `json:"serve"`
}

// MuxSnapshot is the multi-mode server's instrumentation: the front
// door's request counters plus every served code's pool metrics, broken
// out per code.
type MuxSnapshot struct {
	DefaultCode string `json:"default_code"`
	serve.FrontCounts
	Healthy bool           `json:"healthy"`
	Codes   []CodeSnapshot `json:"codes"`
}

// Snapshot captures the mux and per-code pool metrics.
func (m *Mux) Snapshot() MuxSnapshot {
	s := MuxSnapshot{FrontCounts: m.front.Counts(), Healthy: true}
	if d, ok := m.reg.Get(m.reg.DefaultID()); ok {
		s.DefaultCode = d.Name
	}
	active := map[ID]ActivePool{}
	for _, ap := range m.pools.Active() {
		active[ap.Entry.ID] = ap
	}
	for _, e := range m.entries {
		cs := CodeSnapshot{ID: byte(e.ID), Name: e.Name, N: e.N, K: e.NominalK, FrameLen: e.FrameLen}
		if ap, ok := active[e.ID]; ok {
			cs.Built = true
			cs.K = ap.Built.Code.K
			cs.Healthy = ap.Server.HealthSnapshot().Healthy
			cs.Serve = ap.Server.Metrics().Snapshot()
			if !cs.Healthy {
				s.Healthy = false
			}
		}
		s.Codes = append(s.Codes, cs)
	}
	return s
}
