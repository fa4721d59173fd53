package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// listen runs serveListener on a loopback listener until the test ends
// and returns the listener's address.
func listen(t *testing.T, serveListener func(net.Listener) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = serveListener(l)
		close(done)
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// testMux serves the given codes from a registry.Mux on loopback.
func testMux(t *testing.T, ids ...registry.ID) (*registry.Mux, string) {
	t.Helper()
	m, err := registry.NewMux(registry.Default(), ids, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, listen(t, m.ServeListener)
}

func testTraffic(t *testing.T, ids ...registry.ID) []*codeTraffic {
	t.Helper()
	traffic, err := newTraffic(registry.Default(), ids, 4.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return traffic
}

// TestRunPhaseMixedCodes drives a mux serving c2 and ds12 with both
// codes interleaved on every connection, c2 as v1 frames and ds12 as
// v2: every frame must come back bit-exact and counted under its code,
// none shed or abandoned, and the server's cumulative fill must read
// from its snapshot.
func TestRunPhaseMixedCodes(t *testing.T) {
	m, addr := testMux(t, registry.C2, registry.DS12)
	traffic := testTraffic(t, registry.C2, registry.DS12)
	const clients, frames = 2, 32
	ph, err := runPhase(addr, registry.Default(), traffic, clients, frames, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ph.FrameErrors != 0 {
		t.Errorf("%d frame errors at 4.2 dB, want 0", ph.FrameErrors)
	}
	var sum int64
	for _, n := range ph.PerCode {
		sum += n
	}
	if sum != frames || ph.PerCode["c2"] == 0 || ph.PerCode["ds12"] == 0 {
		t.Errorf("per-code counts %v, want both codes summing to %d", ph.PerCode, frames)
	}
	if ph.Shed != 0 || ph.Abandoned != 0 || ph.Deadlined != 0 {
		t.Errorf("shed %d abandoned %d deadlined %d, want none", ph.Shed, ph.Abandoned, ph.Deadlined)
	}
	snap := m.Snapshot()
	if snap.V1Frames == 0 || snap.V2Frames == 0 {
		t.Errorf("server read %d v1 and %d v2 frames, want both framings", snap.V1Frames, snap.V2Frames)
	}
	if fill := cumulativeFill(snap); fill <= 0 {
		t.Errorf("cumulative fill %.2f, want > 0", fill)
	}
}

// TestRunPhaseUnknownCode sends ds12 frames to a server that serves only
// c2: the phase must fail on the first rejection, name the code and the
// server's advertised list, and never resend the frame.
func TestRunPhaseUnknownCode(t *testing.T) {
	m, addr := testMux(t, registry.C2)
	traffic := testTraffic(t, registry.C2, registry.DS12)
	_, err := runPhase(addr, registry.Default(), traffic, 1, 8, 0, 3)
	if err == nil || !strings.Contains(err.Error(), `"ds12"`) || !strings.Contains(err.Error(), "advertises: c2") {
		t.Fatalf("runPhase error %v, want one naming ds12 and the advertised c2", err)
	}
	if n := m.Snapshot().UnknownCode; n != 1 {
		t.Errorf("server answered %d unknown-code requests, want 1 (no retry)", n)
	}
}

// TestOpenLoopTimesFromDueTime runs one open-loop client whose schedule
// outruns a server that answers each frame after 20 ms. The 20 frames
// fall due within the first 100 ms, so frame i waits about 20 + 15·i ms
// from its due time; timing from the send instead would report 20 ms
// for every frame and hide the client's lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const delay = 20 * time.Millisecond
	traffic := testTraffic(t, registry.C2)
	cb, err := registry.NewCodebook(registry.Default(), []registry.ID{registry.C2})
	if err != nil {
		t.Fatal(err)
	}
	bits := bitvec.New(traffic[0].built.Code.N)
	front := serve.NewFront(cb, func(_ serve.Request, rep *serve.Reply) {
		time.Sleep(delay)
		rep.Result(serve.StatusOK, ldpc.Result{Converged: true, Iterations: 1, Bits: bits})
	})
	addr := listen(t, front.ServeListener)
	ph, err := runPhase(addr, registry.Default(), traffic, 1, 20, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if min := 3 * float64(delay.Microseconds()); ph.P50Micros < min {
		t.Errorf("open-loop p50 %.0fµs, want ≥ %.0fµs: latency must run from each frame's due time", ph.P50Micros, min)
	}
	if ph.MaxLagMicros <= 0 {
		t.Errorf("max lag %.0fµs behind a 20 ms server at 200 frames/s, want > 0", ph.MaxLagMicros)
	}
}
