package serve

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
)

// TestFramingEdgeCases feeds malformed wire images to the framing layer
// and checks each comes back as the right typed error — never a hang, a
// panic, or a silent short read.
func TestFramingEdgeCases(t *testing.T) {
	const n = 124 // expected frame length
	cases := []struct {
		name string
		raw  []byte
		// read decides which reader sees the bytes; default
		// ReadRawRequest + ParseRequest.
		readResponse bool
		want         error
	}{
		{
			name: "empty length prefix",
			raw:  []byte{0, 0},
			want: ErrTruncated,
		},
		{
			name: "truncated length prefix",
			raw:  []byte{0, 0, 0},
			want: ErrTruncated,
		},
		{
			name: "oversized declared length",
			raw:  []byte{0xFF, 0xFF, 0xFF, 0xFF},
			want: ErrOversized,
		},
		{
			name: "just above the payload limit",
			raw:  []byte{0, 0x10, 0, 1},
			want: ErrOversized,
		},
		{
			name: "zero-length frame",
			raw:  []byte{0, 0, 0, 0},
			want: ErrFrameLength,
		},
		{
			name: "truncated payload",
			raw:  append([]byte{0, 0, 0, byte(n)}, make([]byte, n-1)...),
			want: ErrTruncated,
		},
		{
			name: "wrong frame length",
			raw:  append([]byte{0, 0, 0, 5}, make([]byte, 5)...),
			want: ErrFrameLength,
		},
		{
			name:         "short response header",
			raw:          []byte{0, 0, 0, 2, 0, 0},
			readResponse: true,
			want:         ErrFrameLength,
		},
		{
			name: "wrong hard-decision byte count",
			// StatusOK header + 3 hard-decision bytes for a code that
			// packs into ceil(124/8) = 16.
			raw:          append([]byte{0, 0, 0, 7, StatusOK, 1, 0, 9}, make([]byte, 3)...),
			readResponse: true,
			want:         ErrFrameLength,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.raw)
			var err error
			if tc.readResponse {
				_, _, err = ReadResponse(r, bitvec.New(n), nil)
			} else {
				var payload []byte
				if payload, err = ReadRawRequest(r, nil); err == nil {
					_, _, err = ParseRequest(payload, oneCode(n))
				}
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestFramingMidFrameClose closes the peer halfway through a declared
// payload on a real bidirectional pipe: the reader must return
// ErrTruncated promptly instead of blocking on bytes that will never
// arrive.
func TestFramingMidFrameClose(t *testing.T) {
	const n = 124
	client, server := net.Pipe()
	go func() {
		// Declare n bytes, deliver half, hang up.
		client.Write([]byte{0, 0, 0, byte(n)})
		client.Write(make([]byte, n/2))
		client.Close()
	}()
	errc := make(chan error, 1)
	go func() {
		_, err := ReadRawRequest(server, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("mid-frame close: got %v, want ErrTruncated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader hung on a mid-frame close")
	}
	server.Close()
}

// TestServeConnBadFrameLength: a well-framed request of the wrong
// length is answered in-band with StatusBadFrame and the connection
// keeps serving — a valid frame after it still decodes — while a
// truncated frame ends the connection with the typed framing error.
func TestServeConnBadFrameLength(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 1, Linger: time.Millisecond})
	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() { errc <- decodeFront(s).ServeConn(server) }()
	client.SetDeadline(time.Now().Add(5 * time.Second))

	if err := WriteRaw(client, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	bits := bitvec.New(c.N)
	resp, _, err := ReadResponse(client, bits, nil)
	if err != nil {
		t.Fatalf("wrong-length frame: %v", err)
	}
	if resp.Status != StatusBadFrame {
		t.Fatalf("wrong-length frame answered with status %d, want StatusBadFrame", resp.Status)
	}

	q := noisyQ(t, c, p.Format, 2.5, 77)
	ref := scalarRef(t, c, p, [][]int16{q})[0]
	if _, err := WriteRequest(client, q, nil); err != nil {
		t.Fatal(err)
	}
	if resp, _, err = ReadResponse(client, bits, nil); err != nil {
		t.Fatalf("valid frame after the rejection: %v", err)
	}
	if resp.Status != StatusOK || !bits.Equal(ref.bits) || resp.Iterations != ref.iterations || resp.Converged != ref.converged {
		t.Fatalf("valid frame after the rejection: status %d, decode differs from scalar reference", resp.Status)
	}

	// Declare a whole frame, deliver half, hang up.
	client.Write([]byte{0, 0, 0, byte(c.N)})
	client.Write(make([]byte, c.N/2))
	client.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("ServeConn: got %v, want ErrTruncated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn hung on a truncated frame")
	}
}

// TestServeListenerGoroutineLeak: connections served and closed must
// not leave per-connection goroutines behind once the listener drains.
func TestServeListenerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Config{Code: smallCode(t), Workers: 2, Linger: time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- decodeFront(s).ServeListener(l) }()
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	l.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.Close()
	assertNoGoroutineLeak(t, before)
}
