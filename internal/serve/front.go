package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/ldpc"
)

// Window is the reply ring every connection owns: how many requests one
// connection may hold accepted but not yet answered.
const Window = 64

// Request is one well-formed request, parsed against the front door's
// codebook. Payload and LLRs alias the connection's read buffer and are
// valid only until the handler returns.
type Request struct {
	Code    byte   // the code the request addresses
	Payload []byte // the whole request payload as read, v1 or v2
	LLRs    []byte // the frame's int8 wire LLRs, a suffix of Payload
}

// Handler answers one request by filling rep exactly once, before it
// returns or later from another goroutine. The connection reads its
// next request only after the handler returns, so a handler that fills
// rep before returning is never called concurrently on one connection,
// while one that fills it later has up to Window requests outstanding.
type Handler func(req Request, rep *Reply)

// Reply is one request's slot in its connection's reply ring; the
// connection writes the slots in request order as they fill.
type Reply struct {
	msg  *[]byte // the framed response, in a buffer from msgPool
	done chan struct{}
}

// msgPool recycles response buffers across connections. A buffer is
// held only from the fill to the write, so a connection whose handler
// answers before returning cycles one or two of them instead of owning
// one per ring slot.
var msgPool sync.Pool

// fill frames the response through encode into a pooled buffer and
// hands it to the connection's writer.
func (r *Reply) fill(encode func(buf []byte) []byte) {
	p, _ := msgPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = encode(*p)
	r.msg = p
	r.done <- struct{}{}
}

// Result answers with status and, when it is StatusOK, the hard
// decisions, convergence flag and iteration count of res.
func (r *Reply) Result(status byte, res ldpc.Result) {
	if status != StatusOK {
		res = ldpc.Result{}
	}
	r.fill(func(buf []byte) []byte { return encodeResponse(buf, status, res) })
}

// Raw answers with a response payload assembled elsewhere, such as a
// backend's response relayed verbatim. The payload is copied.
func (r *Reply) Raw(payload []byte) {
	r.fill(func(buf []byte) []byte {
		buf = frame(buf, len(payload))
		copy(buf[4:], payload)
		return buf
	})
}

// FrontCounts classifies the requests a front door has read: v1 and v2
// frames, which went to the handler, and the two in-band rejections.
type FrontCounts struct {
	V1Frames    int64 `json:"v1_frames"`
	V2Frames    int64 `json:"v2_frames"`
	UnknownCode int64 `json:"unknown_code"`
	BadFrames   int64 `json:"bad_frames"`
}

// Front is the wire protocol's front door, the one connection loop and
// accept loop of every TCP endpoint. A connection reads length-prefixed
// requests, parses each against the codebook, answers unknown-code and
// malformed requests in-band, hands the rest to the handler, and writes
// the responses in request order; a framing violation (truncation,
// oversize) ends it. Open connections are tracked, so a shutdown can
// wait for them or close them.
type Front struct {
	cb     Codebook
	handle Handler

	v1, v2, unknown, bad atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil after CloseConns: later connections close at once
}

// NewFront builds a front door over a codebook and a handler.
func NewFront(cb Codebook, h Handler) *Front {
	return &Front{cb: cb, handle: h, conns: make(map[net.Conn]struct{})}
}

// Counts returns the request classification so far.
func (f *Front) Counts() FrontCounts {
	return FrontCounts{f.v1.Load(), f.v2.Load(), f.unknown.Load(), f.bad.Load()}
}

// ServeConn answers requests on one connection until the peer closes
// it, then closes it. It returns nil on a clean close at a message
// boundary, else the framing or I/O error that ended the connection.
func (f *Front) ServeConn(conn net.Conn) error {
	defer conn.Close()
	f.mu.Lock()
	if f.conns == nil {
		f.mu.Unlock()
		return net.ErrClosed
	}
	f.conns[conn] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()

	// A slot is either free or queued in order, so neither channel ever
	// holds more than the ring and neither send blocks.
	slots := new([Window]Reply)
	free := make(chan *Reply, Window)
	order := make(chan *Reply, Window)
	for i := range slots {
		slots[i].done = make(chan struct{}, 1)
		free <- &slots[i]
	}
	werr := make(chan error, 1)
	go func() { werr <- writeReplies(conn, order, free) }()
	rerr := f.readRequests(conn, order, free)
	close(order)
	if err := <-werr; rerr == nil {
		return err
	}
	return rerr
}

// readRequests is a connection's reader: it queues a free slot for each
// request in request order, then fills it with an in-band rejection or
// hands it to the handler. It returns nil at a clean EOF.
func (f *Front) readRequests(conn net.Conn, order, free chan *Reply) error {
	br := bufio.NewReaderSize(conn, 16<<10)
	var buf []byte
	for {
		payload, err := readMessage(br, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		buf = payload
		rep := <-free
		order <- rep
		id, llrs, err := ParseRequest(payload, f.cb)
		switch {
		case err == nil:
			if len(llrs) == len(payload) {
				f.v1.Add(1)
			} else {
				f.v2.Add(1)
			}
			f.handle(Request{Code: id, Payload: payload, LLRs: llrs}, rep)
		case errors.Is(err, ErrUnknownCode):
			f.unknown.Add(1)
			rep.fill(func(buf []byte) []byte { return encodeUnknownCode(buf, f.cb.IDs()) })
		default:
			f.bad.Add(1)
			rep.Result(StatusBadFrame, ldpc.Result{})
		}
	}
}

// writeReplies is a connection's writer. It writes the queued replies
// in order as they fill and flushes before it waits, so a written
// response never waits on its successor. A write error sticks in the
// bufio.Writer; the next flush then closes the connection, which stops
// the reader, and the writer keeps draining the ring so that neither
// the reader nor a handler still filling a slot blocks.
func writeReplies(conn net.Conn, order <-chan *Reply, free chan<- *Reply) error {
	bw := bufio.NewWriterSize(conn, 16<<10)
	flush := func() {
		if bw.Flush() != nil {
			conn.Close()
		}
	}
	for rep := range order {
		select {
		case <-rep.done:
		default:
			flush()
			<-rep.done
		}
		_, _ = bw.Write(*rep.msg) // an error resurfaces at the next flush
		msgPool.Put(rep.msg)
		free <- rep
		if len(order) == 0 {
			flush()
		}
	}
	return bw.Flush()
}

// ServeListener accepts connections and serves each on its own
// goroutine until the listener closes, then waits for the open
// connections to end.
func (f *Front) ServeListener(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.ServeConn(conn)
		}()
	}
}

// Drain is the graceful stop of ServeListener. It closes l, so the
// accept loop stops accepting and waits for the open connections to
// end; once bound has passed or force delivers, Drain closes the ones
// still open and returns their number. A frame in flight when the drain
// starts is answered if its handler fills the reply before then.
func (f *Front) Drain(l net.Listener, bound time.Duration, force <-chan os.Signal) int {
	l.Close()
	t := time.NewTimer(bound)
	defer t.Stop()
	select {
	case <-force:
	case <-t.C:
	}
	return f.CloseConns()
}

// CloseConns closes every open connection, and every connection the
// front door is handed from then on, and returns how many were open:
// the hard stop of a drain, or an instance dying abruptly.
func (f *Front) CloseConns() int {
	f.mu.Lock()
	open := f.conns
	f.conns = nil
	f.mu.Unlock()
	for c := range open {
		c.Close()
	}
	return len(open)
}
