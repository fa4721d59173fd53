package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"ccsdsldpc/internal/serve"
)

// frame length-prefixes a payload the way the wire protocol does.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// FuzzFleetProto streams arbitrary bytes into the router's client front
// end over a real connection: truncated frames, interleaved v1/v2,
// oversized declarations, unknown tags. The router must never panic or
// hang, every response it does emit must be well-formed, and the router
// must still route a clean frame afterwards — one garbage client cannot
// poison the fleet.
func FuzzFleetProto(f *testing.F) {
	a := newFakeBackend(f)
	r := testRouter(f, Config{RequestTimeout: 2 * time.Second},
		backendOf("a", a, nil))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatalf("listen: %v", err)
	}
	f.Cleanup(func() { l.Close() })
	go r.ServeListener(l)

	f.Add(frame(v1Frame(1)))
	f.Add(frame(v2Frame(2, 1)))
	f.Add(frame(v2Frame(7, 1)))
	f.Add(frame(v2Frame(9, 1)))                    // unknown tag
	f.Add(frame([]byte{serve.ProtoV2Magic, 2, 0})) // wrong-length v2
	f.Add(frame(nil))                              // empty payload
	f.Add([]byte{0, 0, 0, 100, 1, 2, 3})           // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})          // oversized declaration
	f.Add([]byte{0, 0})                            // truncated prefix
	f.Add(bytes.Join([][]byte{                     // interleaved good/bad/good
		frame(v1Frame(2)), frame([]byte{9, 9, 9}), frame(v2Frame(2, 3)),
	}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))

		go func() {
			conn.Write(data)
			conn.(*net.TCPConn).CloseWrite()
		}()

		br := bufio.NewReader(conn)
		var buf []byte
		for {
			buf, err = serve.ReadRawResponse(br, buf)
			if err != nil {
				break // EOF or reset: the router ended the stream
			}
			if len(buf) < 4 {
				t.Fatalf("%d-byte response header", len(buf))
			}
		}

		// The router must survive the garbage and keep routing.
		p := v1Frame(4)
		raw, err := r.Submit(0, p)
		if err != nil {
			t.Fatalf("router dead after fuzz input: %v", err)
		}
		checkEcho(t, raw, p)
	})
}
