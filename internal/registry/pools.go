package registry

import (
	"fmt"
	"sync"

	"ccsdsldpc/internal/serve"
)

// Pools manages one decode-server pool per catalog code, built lazily
// on first use from a shared configuration template. Each pool is a
// full serve.Server — its own batching queue, worker set, metrics,
// health window and circuit breaker — so codes batch independently (an
// 8-lane word never mixes codes; their graphs differ) and a noise storm
// on one mission's code degrades only that code's pool.
//
// The worker budget is per pool too: at the template's default
// Workers, each built pool runs max(1, GOMAXPROCS/Shards) decoders, so
// a process with five codes built runs five times the decoders its
// cores were budgeted for, and holds five pools' decoder memory.
type Pools struct {
	reg  *Registry
	tmpl serve.Config

	mu    sync.Mutex
	slots map[ID]*poolSlot
}

type poolSlot struct {
	once  sync.Once
	srv   *serve.Server
	built *Built
	err   error
}

// NewPools prepares lazy pools over the registry. tmpl carries the
// shared decoder geometry (Params, Workers, Shards, SuperBatch,
// LaneWidth, Linger, queue and health settings); its Code field is
// ignored and bound per pool.
func NewPools(reg *Registry, tmpl serve.Config) *Pools {
	return &Pools{reg: reg, tmpl: tmpl, slots: map[ID]*poolSlot{}}
}

// Get returns the pool for a code, building the code and its server on
// first use. Concurrent callers for the same code share one build;
// callers for different codes build independently. A build failure is
// cached — the registry entry is not going to get healthier by
// retrying.
func (p *Pools) Get(id ID) (*serve.Server, *Built, error) {
	e, ok := p.reg.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("registry: no entry with id %d", id)
	}
	p.mu.Lock()
	slot, ok := p.slots[id]
	if !ok {
		slot = &poolSlot{}
		p.slots[id] = slot
	}
	p.mu.Unlock()
	slot.once.Do(func() {
		var srv *serve.Server
		built, err := e.Build()
		if err != nil {
			err = fmt.Errorf("registry: building %s: %w", e.Name, err)
		} else {
			cfg := p.tmpl
			cfg.Code = built.Code
			if srv, err = serve.New(cfg); err != nil {
				err = fmt.Errorf("registry: pool for %s: %w", e.Name, err)
			}
		}
		// Publish under the pools lock so Active/Close — which do not
		// pass through this Once — observe a fully built slot.
		p.mu.Lock()
		slot.srv, slot.built, slot.err = srv, built, err
		p.mu.Unlock()
	})
	p.mu.Lock()
	srv, built, err := slot.srv, slot.built, slot.err
	p.mu.Unlock()
	return srv, built, err
}

// ActivePool is one built pool, for metrics and health aggregation.
type ActivePool struct {
	Entry  *Entry
	Built  *Built
	Server *serve.Server
}

// Active returns the successfully built pools in ascending ID order.
func (p *Pools) Active() []ActivePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []ActivePool
	for _, e := range p.reg.Entries() {
		if slot, ok := p.slots[e.ID]; ok && slot.srv != nil {
			out = append(out, ActivePool{Entry: e, Built: slot.built, Server: slot.srv})
		}
	}
	return out
}

// Close drains and stops every built pool.
func (p *Pools) Close() {
	for _, ap := range p.Active() {
		ap.Server.Close()
	}
}
