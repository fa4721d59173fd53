package fleet

import (
	"errors"
	"net"

	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/serve"
)

// statusForErr maps routing errors onto the wire statuses clients
// already handle: saturation and deadline are retryable, a lost frame
// is a transient internal fault, a closing router looks like a closing
// server.
func statusForErr(err error) byte {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrNoBackends):
		return serve.StatusOverloaded
	case errors.Is(err, ErrDeadline):
		return serve.StatusDeadline
	case errors.Is(err, ErrClosed):
		return serve.StatusClosed
	default:
		return serve.StatusInternal
	}
}

// forward is the router's front-door handler. Each frame is routed from
// its own goroutine, so a pipelining client keeps up to serve.Window
// frames in flight per connection; the front door still writes the
// responses in request order. The payload is copied because the
// connection reuses its read buffer for the next request.
func (r *Router) forward(req serve.Request, rep *serve.Reply) {
	code, payload := req.Code, append([]byte(nil), req.Payload...)
	go func() {
		raw, err := r.Submit(code, payload)
		if err != nil {
			rep.Result(statusForErr(err), ldpc.Result{})
			return
		}
		rep.Raw(raw)
	}()
}

// Front returns the router's front door: its connection tracking,
// drain and request counters.
func (r *Router) Front() *serve.Front { return r.front }

// ServeConn answers v1/v2 decode requests on one client connection
// until the peer closes it, routing each frame across the fleet (see
// serve.Front.ServeConn).
func (r *Router) ServeConn(conn net.Conn) error { return r.front.ServeConn(conn) }

// ServeListener serves every client connection the listener accepts
// until it closes, then waits for them to end (see
// serve.Front.ServeListener).
func (r *Router) ServeListener(l net.Listener) error { return r.front.ServeListener(l) }
