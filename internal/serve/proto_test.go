package serve

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/rng"
)

func TestProtoRequestRoundTrip(t *testing.T) {
	r := rng.New(3)
	q := make([]int16, 513)
	for j := range q {
		q[j] = int16(r.Uint64()%31) - 15
	}
	var buf bytes.Buffer
	if _, err := WriteRequest(&buf, q, nil); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadRawRequest(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, llrs, err := ParseRequest(payload, oneCode(len(q)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int16, len(q))
	if err := LLRsFromWire(got, llrs); err != nil {
		t.Fatal(err)
	}
	for j := range q {
		if got[j] != q[j] {
			t.Fatalf("LLR %d: %d != %d", j, got[j], q[j])
		}
	}
	if _, err := ReadRawRequest(&buf, nil); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestProtoResponseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 8176} {
		bits := bitvec.New(n)
		r := rng.New(uint64(n))
		for j := 0; j < n; j++ {
			if r.Bool() {
				bits.Set(j)
			}
		}
		var buf bytes.Buffer
		res := ldpc.Result{Bits: bits, Iterations: 17, Converged: true}
		if _, err := WriteResponse(&buf, StatusOK, res, nil); err != nil {
			t.Fatal(err)
		}
		got := bitvec.New(n)
		resp, _, err := ReadResponse(&buf, got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK || !resp.Converged || resp.Iterations != 17 {
			t.Fatalf("n=%d: response header %+v", n, resp)
		}
		if !got.Equal(bits) {
			t.Fatalf("n=%d: bits corrupted in transit", n)
		}
	}
}

func TestProtoErrorStatusCarriesNoBits(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteResponse(&buf, StatusOverloaded, ldpc.Result{}, nil); err != nil {
		t.Fatal(err)
	}
	bits := bitvec.New(64)
	resp, _, err := ReadResponse(&buf, bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOverloaded {
		t.Fatalf("status %d", resp.Status)
	}
}

func TestProtoRejectsOversizeAndTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB header
	if _, err := readMessage(&buf, nil); err == nil {
		t.Error("oversize message accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2}) // 10-byte payload, 2 present
	if _, err := readMessage(&buf, nil); err == nil {
		t.Error("truncated message accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0})
	if _, err := readMessage(&buf, nil); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestTCPEndToEnd runs the full stack — listener, front door, wire
// protocol, scheduler, worker pool — with concurrent TCP clients and
// checks every decode against the scalar reference.
func TestTCPEndToEnd(t *testing.T) {
	c := smallCode(t)
	p := fixed.DefaultHighSpeedParams()
	s := newTestServer(t, Config{Code: c, Params: p, Workers: 2, Linger: 2 * time.Millisecond, QueueDepth: 1 << 10})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- decodeFront(s).ServeListener(l) }()

	const clients, perClient = 6, 5
	qs := make([][]int16, clients)
	for i := range qs {
		qs[i] = noisyQ(t, c, p.Format, 2.5, uint64(500+i))
	}
	ref := scalarRef(t, c, p, qs)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			bits := bitvec.New(c.N)
			var rbuf, wbuf []byte
			for k := 0; k < perClient; k++ {
				if wbuf, err = WriteRequest(conn, qs[i], wbuf); err != nil {
					t.Error(err)
					return
				}
				resp, rb, err := ReadResponse(conn, bits, rbuf)
				if err != nil {
					t.Error(err)
					return
				}
				rbuf = rb
				if resp.Status != StatusOK {
					t.Errorf("client %d: status %d", i, resp.Status)
					return
				}
				if !bits.Equal(ref[i].bits) || resp.Iterations != ref[i].iterations || resp.Converged != ref[i].converged {
					t.Errorf("client %d: decode differs from scalar reference", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	if snap.FramesDecoded != clients*perClient {
		t.Errorf("decoded %d of %d frames", snap.FramesDecoded, clients*perClient)
	}
}
