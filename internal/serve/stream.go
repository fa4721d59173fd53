package serve

import (
	"errors"
	"sync"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
)

// DecodeQMulti is the stream-mode entry point: it submits a group of
// frames together and blocks until all of them are decoded, returning
// results and errors positionally. A ground-station front end emits
// aligned frames in bursts at line rate; submitting the burst as one
// group fills a batch's lanes immediately instead of paying the
// linger deadline per frame, and — unlike DecodeQ — a full queue is
// backpressure, not load shedding: a frame refused with ErrOverloaded
// is resubmitted after the configured linger as the backoff, because a
// telemetry stream has nowhere to shed to. Such a refusal reaches no
// caller, so it counts neither in frames_shed nor as a health failure.
// ErrClosed and validation errors remain terminal and are reported per
// frame.
//
// bits may be nil, or have one (possibly nil) destination vector per
// frame with the same semantics as DecodeQ.
func (s *Server) DecodeQMulti(qs [][]int16, bits []*bitvec.Vector) ([]ldpc.Result, []error) {
	res := make([]ldpc.Result, len(qs))
	errs := make([]error, len(qs))
	backoff := s.cfg.Linger
	if backoff <= 0 {
		backoff = 100 * time.Microsecond
	}
	var left sync.WaitGroup
	left.Add(len(qs))
	frames := make([]groupFrame, len(qs))
	for i := range qs {
		f := &frames[i]
		*f = groupFrame{res: &res[i], err: &errs[i], left: &left}
		var bv *bitvec.Vector
		if bits != nil {
			bv = bits[i]
		}
		err := s.enqueue(qs[i], bv, f)
		for errors.Is(err, ErrOverloaded) {
			time.Sleep(backoff)
			err = s.enqueue(qs[i], bv, f)
		}
		if err != nil {
			f.Complete(ldpc.Result{}, err)
		}
	}
	left.Wait()
	return res, errs
}

// groupFrame is one DecodeQMulti frame's completion: it stores the
// outcome at the frame's position and counts the group down.
type groupFrame struct {
	res  *ldpc.Result
	err  *error
	left *sync.WaitGroup
}

// Complete stores the outcome and releases the frame's share of the
// group.
func (f *groupFrame) Complete(res ldpc.Result, err error) {
	*f.res, *f.err = res, err
	f.left.Done()
}
