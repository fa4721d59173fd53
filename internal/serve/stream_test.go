package serve

import (
	"errors"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// TestDecodeQMultiMatchesScalar: a group submission must return, per
// frame and in position, exactly what the scalar reference decoder
// returns — across group sizes from a lone frame to several batch
// words.
func TestDecodeQMultiMatchesScalar(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 2, Linger: time.Millisecond})
	for _, n := range []int{0, 1, 3, 8, 19} {
		qs := make([][]int16, n)
		bits := make([]*bitvec.Vector, n)
		for i := range qs {
			qs[i] = noisyQ(t, c, p.Format, 3.0, uint64(100*n+i))
			bits[i] = bitvec.New(c.N)
		}
		res, errs := s.DecodeQMulti(qs, bits)
		if len(res) != n || len(errs) != n {
			t.Fatalf("n=%d: got %d results, %d errors", n, len(res), len(errs))
		}
		ref := scalarRef(t, c, p, qs)
		for i := range qs {
			if errs[i] != nil {
				t.Fatalf("n=%d frame %d: %v", n, i, errs[i])
			}
			if !res[i].Bits.Equal(ref[i].bits) || !bits[i].Equal(ref[i].bits) {
				t.Fatalf("n=%d frame %d: bits differ from scalar decoder", n, i)
			}
			if res[i].Iterations != ref[i].iterations || res[i].Converged != ref[i].converged {
				t.Fatalf("n=%d frame %d: result meta %d/%v, scalar %d/%v",
					n, i, res[i].Iterations, res[i].Converged, ref[i].iterations, ref[i].converged)
			}
		}
	}
}

// TestDecodeQMultiBackpressure: a group larger than the queue must
// complete every frame — ErrOverloaded is retried internally as
// backpressure, never surfaced or counted as a shed, because a
// telemetry stream has nowhere to shed to.
// TestDecodeQMultiRetriesAreNotSheds forces the collision
// deterministically.
func TestDecodeQMultiBackpressure(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	// Slow, early-stop-free decodes keep the depth-2 queue full so the
	// group actually collides with ErrOverloaded.
	p.DisableEarlyStop = true
	p.MaxIterations = 5000
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, MaxBatch: 1, QueueDepth: 2, Linger: time.Millisecond})
	const n = 24
	qs := make([][]int16, n)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 3.0, uint64(7000+i))
	}
	res, errs := s.DecodeQMulti(qs, nil)
	ref := scalarRef(t, c, p, qs)
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("frame %d surfaced %v through a backpressure path", i, errs[i])
		}
		if !res[i].Bits.Equal(ref[i].bits) {
			t.Fatalf("frame %d: bits differ from scalar decoder", i)
		}
	}
	if shed := s.Metrics().Snapshot().FramesShed; shed != 0 {
		t.Fatalf("%d resent frames counted as shed", shed)
	}
}

// TestDecodeQMultiRetriesAreNotSheds: a DecodeQMulti frame that a full
// queue refuses is sent again, and the refusal reaches no caller, so
// it counts neither as a shed nor as a health failure. The one worker
// is parked on the group's first frame and the depth-1 queue holds the
// second, so the third is refused on every try until the worker goes
// on.
func TestDecodeQMultiRetriesAreNotSheds(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	g := newGate()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, MaxBatch: 1, QueueDepth: 1,
		Linger: time.Millisecond, panicHook: g.hook})
	const n = 4
	qs := make([][]int16, n)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 6.0, uint64(1100+i))
	}
	type group struct {
		res  []ldpc.Result
		errs []error
	}
	done := make(chan group, 1)
	go func() {
		res, errs := s.DecodeQMulti(qs, nil)
		done <- group{res, errs}
	}()
	<-g.entered // frame 0 parked in the worker
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot().QueueDepth < 1 { // frame 1 fills the queue
		if time.Now().After(deadline) {
			t.Fatal("the group's second frame never reached the queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond) // frame 2 is refused at every 1 ms backoff
	g.pass()
	for i := 1; i < n; i++ {
		<-g.entered
		g.pass()
	}
	out := <-done
	ref := scalarRef(t, c, p, qs)
	for i := range qs {
		if out.errs[i] != nil {
			t.Fatalf("frame %d: %v", i, out.errs[i])
		}
		if !out.res[i].Bits.Equal(ref[i].bits) || !out.res[i].Converged {
			t.Fatalf("frame %d: not decoded bit-exact and converged", i)
		}
	}
	if snap := s.Metrics().Snapshot(); snap.FramesShed != 0 || snap.FramesIn != n {
		t.Errorf("frames_shed %d, frames_in %d: want 0 and %d", snap.FramesShed, snap.FramesIn, n)
	}
	if hs := s.HealthSnapshot(); hs.FailureRate != 0 || hs.Samples != n {
		t.Errorf("health saw %d samples at failure rate %v: want %d decodes and no failure", hs.Samples, hs.FailureRate, n)
	}
}

// TestDecodeQMultiTerminalErrors: a malformed frame fails at its own
// position while the rest of the group decodes, and after Close every
// frame of a group is refused with ErrClosed instead of retried.
func TestDecodeQMultiTerminalErrors(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, Linger: time.Millisecond})
	qs := make([][]int16, 5)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 3.0, uint64(800+i))
	}
	ref := scalarRef(t, c, p, qs)
	qs[2] = qs[2][:c.N-1]
	res, errs := s.DecodeQMulti(qs, nil)
	for i := range qs {
		switch {
		case i == 2:
			if errs[i] == nil || errors.Is(errs[i], ErrOverloaded) {
				t.Fatalf("short frame: %v, want a validation error", errs[i])
			}
		case errs[i] != nil:
			t.Fatalf("frame %d: %v", i, errs[i])
		case !res[i].Bits.Equal(ref[i].bits):
			t.Fatalf("frame %d: bits differ from scalar decoder", i)
		}
	}

	s.Close()
	_, errs = s.DecodeQMulti(qs[:2], nil)
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("frame %d after Close: %v, want ErrClosed", i, err)
		}
	}
}
