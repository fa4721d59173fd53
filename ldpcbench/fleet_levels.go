package main

import (
	"errors"
	"sync"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"

	"ccsdsldpc/ldpcbench/harness"
)

// The traced fleet-mixed run pushes the traffic in below the front
// door, one level at a time. Each level runs for a fixed time and keeps
// the in-flight count the full stack has at that depth: the clients'
// window above the router, and at and below the muxes one frame per
// router-to-backend connection, because a mux answers each connection's
// frames one at a time.

// inflightAbove is the frames in flight above the muxes.
const inflightAbove = fleetClients * fleetWindow

// inflightBelow is the frames a mux level decodes at once: one per
// router-to-backend connection.
func (w *fleetWork) inflightBelow() int {
	return fleetBackends * w.stack.router.Config().ConnsPerBackend
}

// fanOut runs body on workers goroutines until dur has passed and
// returns each one's stats and the process usage over the run.
func fanOut[S any](workers int, dur time.Duration, body func(g int, end time.Time, st *S) error) ([]S, harness.Window, error) {
	stats := make([]S, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	u0 := harness.ReadUsage()
	end := u0.At.Add(dur)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = body(g, end, &stats[g])
		}(g)
	}
	wg.Wait()
	return stats, harness.ReadUsage().Since(u0), errors.Join(errs...)
}

// level is fanOut with the workers' answers merged.
func level(workers int, dur time.Duration, body func(g int, end time.Time, st *fleetStats) error) (fleetStats, harness.Window, error) {
	stats, win, err := fanOut(workers, dur, body)
	var total fleetStats
	for _, s := range stats {
		total.add(s)
	}
	return total, win, err
}

// submitLevel (L3) calls Router.Submit directly, bypassing the front
// connection handling.
func (w *fleetWork) submitLevel(dur time.Duration) (fleetStats, harness.Window, error) {
	r := w.stack.router
	return level(inflightAbove, dur, func(g int, end time.Time, st *fleetStats) error {
		for i := g; time.Now().Before(end); i += inflightAbove {
			f := &w.frames[i%len(w.frames)]
			st.sent++
			t0 := time.Now()
			raw, err := r.Submit(byte(w.codes[f.code].id), f.msg[4:])
			now := time.Now()
			w.tr.Record("fleet.Submit", -1, int64(i), t0, now)
			if err != nil {
				st.failed++
				continue
			}
			w.check(raw, f, st)
			st.last = now
		}
		return nil
	})
}

// dialMuxes opens, straight to the muxes, as many loopback connections
// as the router keeps to them.
func (w *fleetWork) dialMuxes() ([]*fleetClient, error) {
	n := w.inflightBelow()
	clients := make([]*fleetClient, 0, n)
	for i := 0; i < n; i++ {
		cs, err := dialClients(w.stack.lis[i%fleetBackends].Addr().String(), 1)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients = append(clients, cs[0])
	}
	return clients, nil
}

func closeClients(clients []*fleetClient) {
	for _, c := range clients {
		c.conn.Close()
	}
}

// muxLevel (L2) speaks the wire protocol straight to the muxes, the
// frames above the muxes spread over the connections.
func (w *fleetWork) muxLevel(clients []*fleetClient, dur time.Duration) (fleetStats, harness.Window, error) {
	u0 := harness.ReadUsage()
	st, _, err := w.clientPhase(clients, load{window: inflightAbove / len(clients), dur: dur})
	return st, harness.ReadUsage().Since(u0), err
}

// poolLevel (L1) expands each frame as the mux does and calls the code's
// serve pool on the backend the frame alternates to.
func (w *fleetWork) poolLevel(dur time.Duration) (fleetStats, harness.Window, error) {
	n := w.inflightBelow()
	confident := fixed.DefaultHighSpeedParams().Format.Max()
	return level(n, dur, func(g int, end time.Time, st *fleetStats) error {
		q := make([][]int16, len(w.codes))
		bits := make([]*bitvec.Vector, len(w.codes))
		for c, fc := range w.codes {
			q[c] = make([]int16, fc.built.Code.N)
			bits[c] = bitvec.New(fc.built.Code.N)
		}
		for i := g; time.Now().Before(end); i += n {
			f := &w.frames[i%len(w.frames)]
			fc := w.codes[f.code]
			st.sent++
			srv, built, err := w.stack.muxes[i%fleetBackends].Pools().Get(fc.id)
			if err != nil {
				return err
			}
			if err := built.ExpandQ(q[f.code], f.wire, confident); err != nil {
				return err
			}
			res, err := srv.DecodeQ(q[f.code], bits[f.code])
			st.last = time.Now()
			switch {
			case err != nil:
				st.failed++
			case !res.Converged:
				st.unconverged++
			case res.Bits.Equal(f.cw):
				st.ok++
				st.bits += fc.payload
			default:
				st.wrong++
			}
		}
		return nil
	})
}

// newDecoders builds L0's bare decoders of serve's geometry: one per
// code for each of serve's workers.
func (w *fleetWork) newDecoders() ([][]*batch.Parallel, error) {
	srv, _, err := w.stack.muxes[0].Pools().Get(w.codes[0].id)
	if err != nil {
		return nil, err
	}
	decs := make([][]*batch.Parallel, srv.Config().Workers)
	for g := range decs {
		for _, fc := range w.codes {
			d, err := batch.NewParallel(fc.built.Code, srv.Config().Params, batch.ParallelConfig{})
			if err != nil {
				closeDecoders(decs)
				return nil, err
			}
			decs[g] = append(decs[g], d)
		}
	}
	return decs, nil
}

func closeDecoders(decs [][]*batch.Parallel) {
	for _, ds := range decs {
		for _, d := range ds {
			d.Close()
		}
	}
}

// decoderLevel (L0) decodes the expanded frames on the bare decoders,
// each call one full 8-frame word of one code.
func (w *fleetWork) decoderLevel(decs [][]*batch.Parallel, dur time.Duration) (decodeStats, harness.Window, error) {
	workers := len(decs)
	stats, win, err := fanOut(workers, dur, func(g int, end time.Time, st *decodeStats) error {
		return w.decodeWords(decs[g], g, workers, end, st)
	})
	var total decodeStats
	for _, s := range stats {
		total.merge(s)
	}
	return total, win, err
}

// decodeWords is one L0 worker: it takes traffic frames g, g+step, ...,
// groups them by code, and decodes each code's group once it fills a
// word.
func (w *fleetWork) decodeWords(decs []*batch.Parallel, g, step int, end time.Time, st *decodeStats) error {
	type word struct {
		q   [][]int16
		cws []*bitvec.Vector
		res []ldpc.Result
	}
	words := make([]word, len(w.codes))
	for c, fc := range w.codes {
		words[c] = word{res: results(batch.Lanes, fc.built.Code.N)}
	}
	for i := g; time.Now().Before(end); i += step {
		f := &w.frames[i%len(w.frames)]
		wd := &words[f.code]
		wd.q = append(wd.q, f.inner)
		wd.cws = append(wd.cws, f.cw)
		if len(wd.q) < batch.Lanes {
			continue
		}
		d := decs[f.code]
		t0 := time.Now()
		if err := d.DecodeQInto(wd.res, wd.q); err != nil {
			return err
		}
		st.add(wd.res, wd.cws, stripFrames(d), time.Since(t0))
		wd.q, wd.cws = wd.q[:0], wd.cws[:0]
	}
	return nil
}
