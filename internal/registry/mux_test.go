package registry

import (
	"bufio"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/serve"
)

// muxFrame is one pre-built noiseless test frame: the wire LLRs to send
// and the inner codeword the decoder must reproduce.
type muxFrame struct {
	entry *Entry
	wire  []int16
	cw    *bitvec.Vector
}

// makeFrame encodes random data (honoring shortened a-priori-zero
// positions) and maps it to maximally confident wire LLRs.
func makeFrame(t *testing.T, e *Entry, r *rng.RNG) muxFrame {
	t.Helper()
	b, err := e.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", e.Name, err)
	}
	known := make(map[int]bool, len(b.KnownZero))
	for _, j := range b.KnownZero {
		known[j] = true
	}
	info := bitvec.New(b.Code.K)
	for bi, j := range b.Code.InfoCols {
		if !known[j] && r.Bool() {
			info.Set(bi)
		}
	}
	cw := b.Code.Encode(info)
	tx, err := b.TxBits(cw)
	if err != nil {
		t.Fatalf("%s: TxBits: %v", e.Name, err)
	}
	max := fixed.DefaultHighSpeedParams().Format.Max()
	wire := make([]int16, e.FrameLen)
	for i := range wire {
		if tx.Bit(i) == 1 {
			wire[i] = -max
		} else {
			wire[i] = max
		}
	}
	return muxFrame{entry: e, wire: wire, cw: cw}
}

// TestMuxLoopbackInterleaved is the acceptance path of the multi-mode
// subsystem: one mux serving every registry code decodes v1 and v2
// frames of all five codes interleaved on a single TCP connection,
// answers an unknown tag and a malformed frame in-band without dropping
// the connection, and reports the traffic per code in its snapshot.
func TestMuxLoopbackInterleaved(t *testing.T) {
	reg := Default()
	served, err := reg.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(reg, served, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = m.ServeListener(l)
	}()
	defer func() { l.Close(); <-done }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	var wbuf, rbuf []byte

	// send one frame (v1 untagged for the default code, v2 tagged
	// otherwise) and check the echoed hard decisions.
	send := func(f muxFrame) {
		t.Helper()
		if f.entry.ID == reg.DefaultID() {
			wbuf, err = serve.WriteRequest(bw, f.wire, wbuf)
		} else {
			wbuf, err = serve.WriteRequestTagged(bw, byte(f.entry.ID), f.wire, wbuf)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			t.Fatalf("%s: send: %v", f.entry.Name, err)
		}
		bits := bitvec.New(f.entry.N)
		var resp serve.Response
		resp, rbuf, err = serve.ReadResponse(br, bits, rbuf)
		if err != nil {
			t.Fatalf("%s: read response: %v", f.entry.Name, err)
		}
		if resp.Status != serve.StatusOK {
			t.Fatalf("%s: status %d, want OK", f.entry.Name, resp.Status)
		}
		if !resp.Converged {
			t.Fatalf("%s: noiseless frame did not converge", f.entry.Name)
		}
		bits.Xor(f.cw)
		if n := bits.PopCount(); n != 0 {
			t.Fatalf("%s: %d hard-decision bit errors on a noiseless frame", f.entry.Name, n)
		}
	}

	r := rng.New(11)
	const rounds = 3
	// Round-robin across the codes so every adjacent pair of frames on
	// the connection switches codes (and v1/v2 framing, since c2 is v1).
	for round := 0; round < rounds; round++ {
		for _, e := range m.Served() {
			send(makeFrame(t, e, r))
		}
	}

	// An unknown tag gets the advertised list and leaves the connection
	// usable.
	if wbuf, err = serve.WriteRequestTagged(bw, 99, make([]int16, 10), wbuf); err != nil {
		t.Fatal(err)
	}
	if err = bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp serve.Response
	resp, rbuf, err = serve.ReadResponse(br, bitvec.New(1), rbuf)
	if err != nil {
		t.Fatalf("read unknown-code response: %v", err)
	}
	if resp.Status != serve.StatusUnknownCode {
		t.Fatalf("unknown tag answered with status %d", resp.Status)
	}
	if string(resp.Codes) != string(m.IDs()) {
		t.Fatalf("advertised %v, want served set %v", resp.Codes, m.IDs())
	}

	// A malformed payload (wrong length, no v2 magic) is StatusBadFrame,
	// also in-band.
	bad := []int16{1, 2, 3, 4, 5, 6, 7}
	if wbuf, err = serve.WriteRequest(bw, bad, wbuf); err != nil {
		t.Fatal(err)
	}
	if err = bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, rbuf, err = serve.ReadResponse(br, bitvec.New(1), rbuf)
	if err != nil {
		t.Fatalf("read bad-frame response: %v", err)
	}
	if resp.Status != serve.StatusBadFrame {
		t.Fatalf("malformed payload answered with status %d", resp.Status)
	}

	// The connection survives both rejections.
	defEntry, _ := reg.Get(reg.DefaultID())
	send(makeFrame(t, defEntry, r))

	if !m.HealthSnapshot().Healthy {
		t.Error("mux unhealthy after a clean run")
	}
	snap := m.Snapshot()
	if !snap.Healthy {
		t.Error("snapshot reports unhealthy")
	}
	wantV1 := int64(rounds + 1) // c2 rounds + the post-rejection frame
	wantV2 := int64(rounds * (len(m.Served()) - 1))
	if snap.V1Frames != wantV1 || snap.V2Frames != wantV2 {
		t.Errorf("routed v1=%d v2=%d, want %d/%d", snap.V1Frames, snap.V2Frames, wantV1, wantV2)
	}
	if snap.UnknownCode != 1 || snap.BadFrames != 1 {
		t.Errorf("unknown=%d bad=%d, want 1/1", snap.UnknownCode, snap.BadFrames)
	}
	perCode := map[string]CodeSnapshot{}
	for _, cs := range snap.Codes {
		perCode[cs.Name] = cs
	}
	for _, e := range m.Served() {
		cs, ok := perCode[e.Name]
		if !ok {
			t.Fatalf("snapshot missing served code %s", e.Name)
		}
		if !cs.Built || !cs.Healthy {
			t.Errorf("%s: built=%v healthy=%v after traffic", e.Name, cs.Built, cs.Healthy)
		}
		want := int64(rounds)
		if e.ID == reg.DefaultID() {
			want++
		}
		if cs.Serve.FramesDecoded != want {
			t.Errorf("%s: %d frames decoded, want %d", e.Name, cs.Serve.FramesDecoded, want)
		}
	}
	// The instance's health counts are the sum of its pools' counts.
	var sum serve.Counts
	for _, ap := range m.Pools().Active() {
		sum.Add(ap.Server.Metrics().Snapshot().Counts)
	}
	if hs := m.HealthSnapshot(); hs.Counts != sum || sum.FramesIn != wantV1+wantV2 {
		t.Errorf("health counts %+v, want the pools' sum %+v with %d frames in", hs.Counts, sum, wantV1+wantV2)
	}
}

// skipUnderFuzzEngine skips allocation-count assertions in a test binary
// started with an active -fuzz target, whose in-process coordinator
// allocates concurrently with the unit tests (as in internal/batch).
func skipUnderFuzzEngine(t *testing.T) {
	t.Helper()
	for _, a := range os.Args {
		if strings.HasPrefix(a, "-test.fuzz=") && !strings.HasPrefix(a, "-test.fuzz=^$") {
			t.Skip("allocation counts race with the in-process fuzz coordinator")
		}
	}
}

// bestAllocs warms run up and returns the fewest allocations per call
// over three AllocsPerRun attempts, like internal/batch's guards: a
// loaded box can land runtime-internal allocations inside one window,
// but a path that really allocates does so on every attempt.
func bestAllocs(run func()) float64 {
	run()
	best := testing.AllocsPerRun(10, run)
	for try := 0; try < 2 && best != 0; try++ {
		if a := testing.AllocsPerRun(10, run); a < best {
			best = a
		}
	}
	return best
}

// muxClient is the client end of one mux connection over net.Pipe.
type muxClient struct {
	t          *testing.T
	reg        *Registry
	bw         *bufio.Writer
	br         *bufio.Reader
	wbuf, rbuf []byte
}

// serveMuxPipe serves one net.Pipe connection on m until the test ends.
func serveMuxPipe(t *testing.T, m *Mux, reg *Registry) *muxClient {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = m.ServeConn(server)
	}()
	t.Cleanup(func() { client.Close(); <-done })
	return &muxClient{t: t, reg: reg, bw: bufio.NewWriter(client), br: bufio.NewReader(client)}
}

// send writes one frame, untagged for the default code and tagged
// otherwise, and flushes.
func (c *muxClient) send(f muxFrame) {
	c.t.Helper()
	var err error
	if f.entry.ID == c.reg.DefaultID() {
		c.wbuf, err = serve.WriteRequest(c.bw, f.wire, c.wbuf)
	} else {
		c.wbuf, err = serve.WriteRequestTagged(c.bw, byte(f.entry.ID), f.wire, c.wbuf)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.t.Fatalf("%s: send: %v", f.entry.Name, err)
	}
}

// recv reads the next response into bits.
func (c *muxClient) recv(bits *bitvec.Vector) serve.Response {
	c.t.Helper()
	resp, rbuf, err := serve.ReadResponse(c.br, bits, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	return resp
}

// TestMuxConnZeroAlloc is the front door's zero-alloc guard: once warm,
// a frame through Mux.ServeConn allocates nothing end to end — the
// client's writer and reader, the connection's reader, parse, expand,
// submit, decode, reply ring and writer — for a v1 frame of the default
// code and a v2 frame of a tagged one, sent one at a time and pipelined
// eight deep.
func TestMuxConnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	skipUnderFuzzEngine(t)
	reg := Default()
	m, err := NewMux(reg, []ID{C2, DS12}, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := serveMuxPipe(t, m, reg)

	r := rng.New(5)
	for _, id := range []ID{C2, DS12} {
		e, _ := reg.Get(id)
		f := makeFrame(t, e, r)
		bits := bitvec.New(e.N)
		recv := func() {
			if resp := c.recv(bits); resp.Status != serve.StatusOK {
				t.Fatalf("%s: status %d", e.Name, resp.Status)
			}
		}
		serial := func() {
			c.send(f)
			recv()
		}
		const depth = 8
		pipelined := func() {
			for i := 0; i < depth; i++ {
				c.send(f)
			}
			for i := 0; i < depth; i++ {
				recv()
			}
		}
		if allocs := bestAllocs(serial); allocs != 0 {
			t.Errorf("%s: %.1f allocations per frame through the mux, want 0", e.Name, allocs)
		}
		if allocs := bestAllocs(pipelined) / depth; allocs != 0 {
			t.Errorf("%s: %.2f allocations per frame pipelined %d deep, want 0", e.Name, allocs, depth)
		}
	}
}

// TestMuxPipelinesConnection: frames a client writes before reading any
// reply are decoded together. Eight C2 frames on one connection, with a
// one-worker pool lingering a full second, must leave as one 8-frame
// batch — not eight 1-frame batches, one per linger — and come back in
// order, bit-exact.
func TestMuxPipelinesConnection(t *testing.T) {
	reg := Default()
	m, err := NewMux(reg, []ID{C2}, serve.Config{Workers: 1, Linger: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := serveMuxPipe(t, m, reg)

	e, _ := reg.Get(C2)
	r := rng.New(17)
	frames := make([]muxFrame, 8)
	for i := range frames {
		frames[i] = makeFrame(t, e, r)
		c.send(frames[i])
	}
	for i, f := range frames {
		bits := bitvec.New(e.N)
		resp := c.recv(bits)
		if resp.Status != serve.StatusOK || !resp.Converged {
			t.Fatalf("answer %d: status %d, converged %v", i, resp.Status, resp.Converged)
		}
		if !bits.Equal(f.cw) {
			t.Fatalf("answer %d is not frame %d's codeword: out of order or not bit-exact", i, i)
		}
	}
	srv, _, err := m.Pools().Get(C2)
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Batches != 1 || snap.BatchFill[7] != 1 {
		t.Errorf("%d batches, fill %v: want one 8-frame batch", snap.Batches, snap.BatchFill)
	}
}

// TestMuxCloseAnswersInFlight: frames in flight on a connection when
// Mux.Close runs are each answered — decoded, or refused as closed —
// before ServeConn returns.
func TestMuxCloseAnswersInFlight(t *testing.T) {
	reg := Default()
	m, err := NewMux(reg, []ID{C2}, serve.Config{Workers: 1, Linger: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preload(); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- m.ServeConn(server) }()
	c := &muxClient{t: t, reg: reg, bw: bufio.NewWriter(client), br: bufio.NewReader(client)}

	e, _ := reg.Get(C2)
	r := rng.New(23)
	const n = 12
	frames := make([]muxFrame, n)
	for i := range frames {
		frames[i] = makeFrame(t, e, r)
		c.send(frames[i])
	}
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	decoded := 0
	for i, f := range frames {
		bits := bitvec.New(e.N)
		switch resp := c.recv(bits); resp.Status {
		case serve.StatusOK:
			if !bits.Equal(f.cw) {
				t.Fatalf("answer %d is not frame %d's codeword", i, i)
			}
			decoded++
		case serve.StatusClosed:
		default:
			t.Fatalf("answer %d: status %d", i, resp.Status)
		}
	}
	<-closed
	client.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeConn: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return after the client closed")
	}
	if snap := m.Snapshot(); snap.Codes[0].Serve.FramesDecoded != int64(decoded) {
		t.Errorf("pool decoded %d frames, client received %d", snap.Codes[0].Serve.FramesDecoded, decoded)
	}
}

// TestConstructorsRejectBadCodeLists: NewCodebook and NewMux refuse an
// empty code list, an unregistered ID and a duplicate ID.
func TestConstructorsRejectBadCodeLists(t *testing.T) {
	reg := Default()
	cases := []struct {
		name string
		ids  []ID
	}{
		{"empty", nil},
		{"unregistered", []ID{C2, 99}},
		{"duplicate", []ID{DS12, C2, DS12}},
	}
	for _, tc := range cases {
		if _, err := NewCodebook(reg, tc.ids); err == nil {
			t.Errorf("NewCodebook accepted the %s list %v", tc.name, tc.ids)
		}
		if m, err := NewMux(reg, tc.ids, serve.Config{}); err == nil {
			m.Close()
			t.Errorf("NewMux accepted the %s list %v", tc.name, tc.ids)
		}
	}
}
