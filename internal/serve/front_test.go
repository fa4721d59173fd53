package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
)

// oneCode is a single-code codebook: code 0, the default, with frames
// of n LLRs.
type oneCode int

func (oneCode) DefaultID() byte { return 0 }

func (n oneCode) FrameLen(id byte) (int, bool) { return int(n), id == 0 }

func (oneCode) IDs() []byte { return []byte{0} }

// decodeFront is a single-code front door over a server: its handler
// decodes each frame with DecodeQ before returning.
func decodeFront(s *Server) *Front {
	n := s.Config().Code.N
	return NewFront(oneCode(n), func(req Request, rep *Reply) {
		q := make([]int16, n)
		if err := LLRsFromWire(q, req.LLRs); err != nil {
			rep.Result(StatusBadFrame, ldpc.Result{})
			return
		}
		res, err := s.DecodeQ(q, nil)
		rep.Result(StatusFor(err), res)
	})
}

// echoResult is a decode outcome that identifies its request: hard
// decisions equal to the LLR signs, the frame length as the iteration
// count.
func echoResult(llrs []byte) ldpc.Result {
	bits := bitvec.New(len(llrs))
	for j, b := range llrs {
		if int8(b) < 0 {
			bits.Set(j)
		}
	}
	return ldpc.Result{Bits: bits, Converged: true, Iterations: len(llrs)}
}

// echo is a synchronous handler answering each frame with its
// echoResult before returning.
func echo(req Request, rep *Reply) { rep.Result(StatusOK, echoResult(req.LLRs)) }

// signFrame is frame i of a pipelined test stream: n LLRs whose signs
// spell i, so its echo names it.
func signFrame(i, n int) []int16 {
	q := make([]int16, n)
	for j := range q {
		q[j] = 5
		if i>>uint(j)&1 == 1 {
			q[j] = -5
		}
	}
	return q
}

// checkEcho reads one response and requires it to be the echo of frame
// i.
func checkEcho(t *testing.T, br *bufio.Reader, i, n int, buf []byte) []byte {
	t.Helper()
	bits := bitvec.New(n)
	resp, buf, err := ReadResponse(br, bits, buf)
	if err != nil {
		t.Fatalf("response %d: %v", i, err)
	}
	want := echoResult(wireBytes(signFrame(i, n)))
	if resp.Status != StatusOK || resp.Iterations != n || !bits.Equal(want.Bits) {
		t.Fatalf("response %d: status %d, iterations %d: not the echo of frame %d", i, resp.Status, resp.Iterations, i)
	}
	return buf
}

func wireBytes(q []int16) []byte {
	b := make([]byte, len(q))
	putLLRs(b, q)
	return b
}

// pipeline writes frames 0..count-1 to conn without waiting for
// responses.
func pipeline(conn net.Conn, count, n int) {
	bw := bufio.NewWriter(conn)
	var buf []byte
	for i := 0; i < count; i++ {
		var err error
		if buf, err = WriteRequest(bw, signFrame(i, n), buf); err != nil {
			return
		}
	}
	bw.Flush()
}

// expectation is the response the model predicts for one well-framed
// request: its status and, for StatusOK, the LLRs it echoes.
type expectation struct {
	status byte
	llrs   []byte
}

// modelConn predicts what ServeConn does with a byte stream: the
// response to every well-framed request, in order, and the error that
// ends the connection — nil at a clean end, ErrTruncated or
// ErrOversized at the first framing violation.
func modelConn(data []byte, cb Codebook) ([]expectation, error) {
	var out []expectation
	for len(data) > 0 {
		if len(data) < 4 {
			return out, ErrTruncated
		}
		n := binary.BigEndian.Uint32(data)
		if n > maxPayload {
			return out, ErrOversized
		}
		if uint64(len(data)-4) < uint64(n) {
			return out, ErrTruncated
		}
		payload := data[4 : 4+n]
		data = data[4+n:]
		_, llrs, err := ParseRequest(payload, cb)
		switch {
		case err == nil:
			out = append(out, expectation{StatusOK, llrs})
		case errors.Is(err, ErrUnknownCode):
			out = append(out, expectation{status: StatusUnknownCode})
		default:
			out = append(out, expectation{status: StatusBadFrame})
		}
	}
	return out, nil
}

// FuzzServeConn drives the shared connection loop with arbitrary bytes
// over net.Pipe, with a synchronous echo handler: it must never panic or
// hang, answer every well-framed request exactly once and in order with
// a well-formed response, and end the connection with the typed framing
// error at the first truncation or oversize.
func FuzzServeConn(f *testing.F) {
	const n = 16
	cb := oneCode(n)
	msg := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	v1 := msg(wireBytes(signFrame(3, n)))
	v2 := msg(append([]byte{ProtoV2Magic, 0}, wireBytes(signFrame(5, n))...))
	f.Add(v1)
	f.Add(append(append([]byte{}, v1...), v2...))
	f.Add(msg(append([]byte{ProtoV2Magic, 9}, make([]byte, n)...))) // unknown code
	f.Add(msg([]byte{1, 2, 3}))                                     // wrong length
	f.Add(msg(nil))                                                 // empty payload
	f.Add(append(append([]byte{}, v1...), 0, 0, 0))                 // truncated prefix
	f.Add(append(append([]byte{}, v1...), 0, 0, 0, 40, 1))          // truncated payload
	f.Add(append(append([]byte{}, v2...), 0xFF, 0xFF, 0xFF, 0xFF))  // oversized

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := modelConn(data, cb)
		client, server := net.Pipe()
		defer client.Close()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		errc := make(chan error, 1)
		go func() { errc <- NewFront(cb, echo).ServeConn(server) }()
		wrote := make(chan error, 1)
		go func() {
			var err error
			if len(data) > 0 {
				_, err = client.Write(data)
			}
			wrote <- err
		}()

		br := bufio.NewReader(client)
		bits := bitvec.New(n)
		var buf []byte
		for i, w := range want {
			resp, b, err := ReadResponse(br, bits, buf)
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			buf = b
			if resp.Status != w.status {
				t.Fatalf("response %d: status %d, want %d", i, resp.Status, w.status)
			}
			switch w.status {
			case StatusOK:
				if !bits.Equal(echoResult(w.llrs).Bits) || resp.Iterations != n {
					t.Fatalf("response %d answers another request", i)
				}
			case StatusUnknownCode:
				if !bytes.Equal(resp.Codes, cb.IDs()) {
					t.Fatalf("response %d advertises %v", i, resp.Codes)
				}
			}
		}
		if errors.Is(wantErr, ErrOversized) {
			// The server stops reading at the bad prefix and hangs up
			// once its answers are out.
			if _, err := ReadRawResponse(br, buf); err == nil {
				t.Fatal("response beyond the oversized prefix")
			}
		} else if err := <-wrote; err != nil {
			t.Fatalf("server stopped reading a well-framed stream: %v", err)
		}
		client.Close()
		select {
		case err := <-errc:
			if wantErr == nil && err != nil || wantErr != nil && !errors.Is(err, wantErr) {
				t.Fatalf("ServeConn ended with %v, want %v", err, wantErr)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn hung")
		}
	})
}

// TestServeConnConcurrency pins the handler contract: a handler that
// answers before returning is never called concurrently on one
// connection, and one that answers later has up to Window calls
// outstanding — the next request waits for a free reply slot — with
// the responses still written in request order.
func TestServeConnConcurrency(t *testing.T) {
	const n = 16
	t.Run("synchronous", func(t *testing.T) {
		var active, peak atomic.Int32
		h := func(req Request, rep *Reply) {
			if a := active.Add(1); a > peak.Load() {
				peak.Store(a)
			}
			time.Sleep(10 * time.Microsecond)
			active.Add(-1)
			echo(req, rep)
		}
		client, server := net.Pipe()
		defer client.Close()
		go NewFront(oneCode(n), h).ServeConn(server)
		const count = 200
		go pipeline(client, count, n)
		br := bufio.NewReader(client)
		var buf []byte
		for i := 0; i < count; i++ {
			buf = checkEcho(t, br, i, n, buf)
		}
		if p := peak.Load(); p != 1 {
			t.Errorf("synchronous handler ran %d calls at once on one connection", p)
		}
	})

	t.Run("asynchronous", func(t *testing.T) {
		type call struct {
			rep *Reply
			res ldpc.Result
		}
		const count = 100
		calls := make(chan call, count)
		h := func(req Request, rep *Reply) { calls <- call{rep, echoResult(req.LLRs)} }
		client, server := net.Pipe()
		defer client.Close()
		go NewFront(oneCode(n), h).ServeConn(server)
		go pipeline(client, count, n)

		held := make([]call, Window)
		for i := range held {
			held[i] = <-calls
		}
		select {
		case <-calls:
			t.Fatalf("handler called with %d replies outstanding", Window)
		case <-time.After(50 * time.Millisecond):
		}
		// Answer out of order; the responses still leave in order.
		for i := len(held) - 1; i >= 0; i-- {
			held[i].rep.Result(StatusOK, held[i].res)
		}
		go func() {
			for i := Window; i < count; i++ {
				c := <-calls
				c.rep.Result(StatusOK, c.res)
			}
		}()
		br := bufio.NewReader(client)
		var buf []byte
		for i := 0; i < count; i++ {
			buf = checkEcho(t, br, i, n, buf)
		}
	})
}

// closeWatch is a listener that reports when it is closed.
type closeWatch struct {
	net.Listener
	closed chan struct{}
}

func (l closeWatch) Close() error {
	close(l.closed)
	return l.Listener.Close()
}

// startFront serves f on a loopback listener and dials one client.
func startFront(t *testing.T, f *Front) (closeWatch, net.Conn, chan error) {
	t.Helper()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := closeWatch{tl, make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- f.ServeListener(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return l, conn, done
}

// waitServed requires the accept loop to return once the drain is over.
func waitServed(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop still waiting after the drain")
	}
}

// TestDrainClosesIdleConnAtBound: a drain waits for an idle client up to
// its bound, then closes the connection, and the accept loop returns.
func TestDrainClosesIdleConnAtBound(t *testing.T) {
	const n = 16
	f := NewFront(oneCode(n), echo)
	l, conn, done := startFront(t, f)
	if _, err := WriteRequest(conn, signFrame(1, n), nil); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, bufio.NewReader(conn), 1, n, nil)

	const bound = 100 * time.Millisecond
	start := time.Now()
	if closed := f.Drain(l, bound, nil); closed != 1 {
		t.Errorf("drain closed %d connections, want the idle one", closed)
	}
	if waited := time.Since(start); waited < bound {
		t.Errorf("drain closed the idle connection after %v, before its %v bound", waited, bound)
	}
	waitServed(t, done)
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("idle connection still open after the drain")
	}
}

// TestDrainAnswersFrameInFlight: a frame in flight when the drain starts
// is answered before the drain closes its connection.
func TestDrainAnswersFrameInFlight(t *testing.T) {
	const n = 16
	entered, release := make(chan struct{}), make(chan struct{})
	f := NewFront(oneCode(n), func(req Request, rep *Reply) {
		close(entered)
		<-release
		echo(req, rep)
	})
	l, conn, done := startFront(t, f)
	if _, err := WriteRequest(conn, signFrame(2, n), nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	drained := make(chan int, 1)
	go func() { drained <- f.Drain(l, 200*time.Millisecond, nil) }()
	<-l.closed
	close(release)

	br := bufio.NewReader(conn)
	checkEcho(t, br, 2, n, nil)
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the answer: %v, want the drain to close the connection", err)
	}
	if closed := <-drained; closed != 1 {
		t.Errorf("drain closed %d connections, want 1", closed)
	}
	waitServed(t, done)
}
