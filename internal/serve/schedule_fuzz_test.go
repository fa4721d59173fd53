package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// The three ways a submitter hands frames to the server.
const (
	viaSubmit = iota
	viaDecodeQ
	viaDecodeQMulti
)

// scheduleBytes reads a fuzz input front to back; past its end every
// byte reads 0.
type scheduleBytes struct{ b []byte }

func (r *scheduleBytes) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// scheduledFrame is one frame of a submitter's schedule: which
// reference frame it carries and how long the submitter sleeps before
// sending it.
type scheduledFrame struct {
	ref int
	gap time.Duration
}

// submitter is one client goroutine's schedule and, once it has run,
// what it saw. A DecodeQMulti submitter sends its frames in groups of
// group.
type submitter struct {
	via    int
	group  int
	frames []scheduledFrame

	res  []ldpc.Result
	errs []error
	outs []*outcome // Submit only
}

// FuzzServeSchedule decodes its input into a server configuration and
// a schedule of 1–4 submitters, each sending 1–48 frames of the small
// test code through Submit, DecodeQ or DecodeQMulti with gaps of
// 0–300 µs, and checks that the server answers every frame exactly
// once: bit-exact with fixed.Decoder, or with ErrDeadline (only under a
// configured deadline) or ErrOverloaded (only where the queue can
// fill, and never to DecodeQMulti, which backs off instead), in
// batches of at most MaxBatch, with every counter balanced after Close
// and frames_shed equal to the ErrOverloaded answers.
// The interleaving depends on timing, so a failing input replays its
// configuration and schedule, not the exact run.
func FuzzServeSchedule(f *testing.F) {
	// An input is read as: workers, MaxBatch, flags (bit 0 the 1 ms
	// linger, bit 1 the deadline, bit 2 a queue of 1 + flags>>3%8),
	// submitters; then per submitter its path, frame count and group
	// size; then one byte per frame, choosing its reference frame and
	// gap. Past the input's end every byte reads 0.
	for _, seed := range [][]byte{
		{0, 7, 0, 0, 0, 15, 0},                                    // 1 worker, one 16-frame Submit burst
		{2, 7, 1, 3, 0, 47, 0, 1, 47, 0, 2, 47, 3, 0, 47, 0},      // 3 workers, 4 × 48 frames, every path
		{0, 0, 6, 1, 0, 39, 0, 1, 39, 0},                          // MaxBatch 1, deadline, queue of 1
		{1, 3, 7, 2, 1, 29, 0, 2, 29, 5, 0, 29, 0, 6, 12, 18, 24}, // deadline, queue of 1, gaps
		{1, 7, 0, 0, 2, 23, 3, 42, 36, 30, 24, 18, 12, 6},         // one DecodeQMulti stream, groups of 4
	} {
		f.Add(seed)
	}
	c := smallCode(f)
	p := fixed.DefaultHighSpeedParams()
	var refQ [][]int16
	for i, ebn0 := range []float64{-2, 1.5, 2.5, 3, 4, 6} {
		refQ = append(refQ, noisyQ(f, c, p.Format, ebn0, uint64(900+i)))
	}
	ref := scalarRef(f, c, p, refQ)

	f.Fuzz(func(t *testing.T, in []byte) {
		r := &scheduleBytes{b: in}
		// The breaker never trips, so every decode runs the full
		// iteration budget fixed.Decoder is checked at.
		cfg := Config{Code: c, Params: p, Workers: 1 + r.next()%3, MaxBatch: 1 + r.next()%8, BreakerMinSamples: 1 << 30}
		flags := r.next()
		cfg.Linger = 50 * time.Microsecond
		if flags&1 != 0 {
			cfg.Linger = time.Millisecond
		}
		if flags&2 != 0 {
			cfg.Deadline = 2 * time.Millisecond
		}
		if flags&4 != 0 {
			cfg.QueueDepth = 1 + flags>>3%8
		}
		subs := make([]*submitter, 1+r.next()%4)
		for i := range subs {
			subs[i] = &submitter{via: r.next() % 3, frames: make([]scheduledFrame, 1+r.next()%48), group: 1 + r.next()%8}
		}
		total := 0
		for _, s := range subs {
			for k := range s.frames {
				b := r.next()
				s.frames[k] = scheduledFrame{
					ref: (b + total) % len(refQ),
					gap: time.Duration(b/len(refQ)%7) * 50 * time.Microsecond,
				}
				total++
			}
		}

		srv := newTestServer(t, cfg)
		depth := srv.Config().QueueDepth
		var wg sync.WaitGroup
		for _, s := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.run(srv, refQ, c.N)
			}()
		}
		wg.Wait()
		srv.Close()

		decoded, deadlines, overloaded := 0, 0, 0
		for si, s := range subs {
			for k, fr := range s.frames {
				if s.outs != nil {
					if n := s.outs[k].calls.Load(); n != 1 {
						t.Errorf("submitter %d frame %d completed %d times", si, k, n)
					}
				}
				err, res := s.errs[k], s.res[k]
				switch {
				case err == nil:
					decoded++
					want := ref[fr.ref]
					if res.Bits == nil || !res.Bits.Equal(want.bits) || res.Iterations != want.iterations || res.Converged != want.converged {
						t.Errorf("submitter %d frame %d: result differs from fixed.Decoder", si, k)
					}
				case errors.Is(err, ErrDeadline) && cfg.Deadline > 0:
					deadlines++
				case errors.Is(err, ErrOverloaded) && s.via != viaDecodeQMulti && total > depth:
					overloaded++
				default:
					t.Errorf("submitter %d (via %d) frame %d: %v (deadline %v, queue depth %d, %d frames)",
						si, s.via, k, err, cfg.Deadline, depth, total)
				}
			}
		}

		snap := srv.Metrics().Snapshot()
		if snap.FramesIn+int64(overloaded) != int64(total) {
			t.Errorf("in %d + overloaded answers %d != %d submitted", snap.FramesIn, overloaded, total)
		}
		// A DecodeQMulti frame refused by a full queue is sent again, so
		// only the refusals that reach a caller count as sheds.
		if snap.FramesShed != int64(overloaded) {
			t.Errorf("shed %d for %d overloaded answers", snap.FramesShed, overloaded)
		}
		if snap.FramesDecoded != int64(decoded) || snap.FramesDeadline != int64(deadlines) || snap.FramesCrashed != 0 {
			t.Errorf("decoded %d deadline %d crashed %d, callers saw %d and %d and no crash",
				snap.FramesDecoded, snap.FramesDeadline, snap.FramesCrashed, decoded, deadlines)
		}
		if got := snap.FramesDecoded + snap.FramesDeadline + snap.FramesCrashed; got != snap.FramesIn {
			t.Errorf("in %d != decoded %d + deadline %d + crashed %d",
				snap.FramesIn, snap.FramesDecoded, snap.FramesDeadline, snap.FramesCrashed)
		}
		if snap.QueueDepth != 0 || snap.InFlight != 0 {
			t.Errorf("after Close: queue_depth %d, in_flight %d, want 0", snap.QueueDepth, snap.InFlight)
		}
		var batches, frames int64
		for k, n := range snap.BatchFill {
			batches += n
			frames += int64(k+1) * n
		}
		if len(snap.BatchFill) != cfg.MaxBatch || batches != snap.Batches || frames != snap.FramesDecoded {
			t.Errorf("fill %v (%d buckets) does not account for %d batches of %d frames at MaxBatch %d",
				snap.BatchFill, len(snap.BatchFill), snap.Batches, snap.FramesDecoded, cfg.MaxBatch)
		}
	})
}

// run sends the submitter's schedule and waits for every answer.
func (s *submitter) run(srv *Server, refQ [][]int16, n int) {
	s.res = make([]ldpc.Result, len(s.frames))
	s.errs = make([]error, len(s.frames))
	switch s.via {
	case viaSubmit:
		s.outs = make([]*outcome, len(s.frames))
		for k, fr := range s.frames {
			time.Sleep(fr.gap)
			s.outs[k] = newOutcome()
			srv.Submit(refQ[fr.ref], bitvec.New(n), s.outs[k])
		}
		for k, o := range s.outs {
			select {
			case <-o.done:
				s.res[k], s.errs[k] = o.res, o.err
			case <-time.After(10 * time.Second):
				s.errs[k] = errors.New("completion never called")
			}
		}
	case viaDecodeQ:
		for k, fr := range s.frames {
			time.Sleep(fr.gap)
			s.res[k], s.errs[k] = srv.DecodeQ(refQ[fr.ref], nil)
		}
	case viaDecodeQMulti:
		for lo := 0; lo < len(s.frames); lo += s.group {
			hi := min(lo+s.group, len(s.frames))
			time.Sleep(s.frames[lo].gap)
			qs := make([][]int16, hi-lo)
			for k := range qs {
				qs[k] = refQ[s.frames[lo+k].ref]
			}
			res, errs := srv.DecodeQMulti(qs, nil)
			copy(s.res[lo:], res)
			copy(s.errs[lo:], errs)
		}
	}
}
