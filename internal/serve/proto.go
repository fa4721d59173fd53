package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
)

// Wire protocol: every message is a 4-byte big-endian payload length
// followed by the payload.
//
// v1 request payload — exactly N bytes, the frame's quantized channel
// LLRs as int8 (the high-speed Q(5,1) values occupy [−15, +15]), where
// N is the frame length of the server's default code. v1 carries no
// code tag; a multi-mode server routes every v1 frame to its default
// code, which keeps every pre-v2 client working unchanged.
//
// v2 request payload — a 2-byte tag
//
//	version(1) = ProtoV2Magic, code(1) = registry code ID
//
// followed by exactly FrameLen(code) LLR bytes. The two versions are
// discriminated by payload length: a payload of exactly the default
// code's frame length is a v1 request, anything else must parse as v2.
// (Registries must therefore never register a code whose tagged frame
// collides with the default code's untagged length — see ParseRequest.)
//
// Response payload — a 4-byte header
//
//	status(1) converged(1) iterations(2, big-endian)
//
// followed, when status is StatusOK, by ceil(N/8) bytes of hard
// decisions packed LSB-first (bit j of the codeword is bit j&7 of byte
// j>>3), N being the inner codeword length of the request's code. A
// StatusUnknownCode response instead carries the server's advertised
// code list: count(1) then one ID byte per served code, so a client can
// fail fast with the supported set instead of retrying a frame that can
// never decode.

// Response status codes.
const (
	StatusOK          byte = 0 // frame decoded; hard decisions follow
	StatusOverloaded  byte = 1 // shed: queue full, retry later
	StatusClosed      byte = 2 // server shutting down
	StatusBadFrame    byte = 3 // malformed request
	StatusDeadline    byte = 4 // per-request decode deadline exceeded, retry later
	StatusInternal    byte = 5 // transient server fault (worker crash), retry
	StatusUnknownCode byte = 6 // v2 code tag not served here; advertised list follows
)

// StatusFor maps a DecodeQ outcome onto its response status: shed,
// deadline, shutdown and a worker crash become the retryable statuses
// clients already handle, and any other error a malformed frame.
func StatusFor(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, ErrDeadline):
		return StatusDeadline
	case errors.Is(err, ErrClosed):
		return StatusClosed
	case errors.Is(err, ErrWorkerCrash):
		return StatusInternal
	default:
		return StatusBadFrame
	}
}

// ProtoV2Magic is the version byte opening every code-tagged v2 request
// payload.
const ProtoV2Magic byte = 0x02

// Framing errors. All are wrapped with context, so match with
// errors.Is. A peer that violates the framing invariants gets one of
// these — never a hang and never a panic.
var (
	// ErrTruncated reports a connection that closed mid-message: inside
	// the 4-byte length prefix or before the declared payload arrived.
	ErrTruncated = errors.New("serve: truncated message")
	// ErrOversized reports a declared payload length beyond maxPayload.
	ErrOversized = errors.New("serve: oversized message")
	// ErrFrameLength reports a well-framed payload whose size does not
	// match what the code or protocol requires (e.g. a zero-length or
	// wrong-length LLR frame, or a short response header).
	ErrFrameLength = errors.New("serve: wrong frame length")
	// ErrUnknownCode reports a v2 request whose code tag is not in the
	// server's codebook. The rejection is permanent for that tag —
	// clients should consult the advertised code list instead of
	// retrying.
	ErrUnknownCode = errors.New("serve: unknown code id")
)

// maxPayload bounds accepted message lengths; the CCSDS frame is 8176
// bytes, so 1 MiB is generous for any supported code.
const maxPayload = 1 << 20

// frame sizes buf for an n-byte payload behind its 4-byte length
// prefix, fills in the prefix and returns the whole message; the
// payload goes in msg[4:].
func frame(buf []byte, n int) []byte {
	if cap(buf) < 4+n {
		buf = make([]byte, 4+n)
	}
	buf = buf[:4+n]
	binary.BigEndian.PutUint32(buf, uint32(n))
	return buf
}

// readMessage reads one length-prefixed payload into buf (growing it if
// needed) and returns the payload slice. The prefix is read through buf
// too, so a reused buffer makes the read allocation-free. A clean EOF
// before the header is returned as io.EOF; a truncated message is an
// error.
func readMessage(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: connection closed inside the length prefix", ErrTruncated)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrOversized, n, maxPayload)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: got %v before the declared %d bytes", ErrTruncated, err, n)
	}
	return buf, nil
}

// Codebook is the server-side view of a code registry needed to parse
// the multi-mode wire protocol: the default (v1) code and the frame
// geometry of every served code tag. internal/registry provides the
// production implementation; serve stays registry-agnostic.
type Codebook interface {
	// DefaultID is the code v1 (untagged) frames decode as.
	DefaultID() byte
	// FrameLen returns the LLR count per wire frame of a served code
	// tag, or ok=false when the tag is not served.
	FrameLen(id byte) (int, bool)
	// IDs lists the served code tags in ascending order — the
	// advertised list of a StatusUnknownCode response.
	IDs() []byte
}

// ReadRawRequest reads one length-prefixed request payload without
// interpreting it; pair with ParseRequest on a multi-mode connection.
// io.EOF at a message boundary is the clean end of the stream.
func ReadRawRequest(r io.Reader, buf []byte) ([]byte, error) {
	return readMessage(r, buf)
}

// ParseRequest classifies one request payload against a codebook and
// returns the code it addresses plus its raw LLR bytes (aliasing
// payload). The discrimination rule: a payload of exactly the default
// code's frame length is a v1 frame for the default code; any other
// length must open with ProtoV2Magic and a served code ID followed by
// exactly that code's frame length of LLRs.
//
// Errors are typed: ErrUnknownCode for an unserved tag (the id is still
// returned), ErrFrameLength for everything else malformed. Both leave
// the connection framing intact — the caller can respond and keep
// reading.
func ParseRequest(payload []byte, cb Codebook) (id byte, llrs []byte, err error) {
	def := cb.DefaultID()
	if n, ok := cb.FrameLen(def); ok && len(payload) == n {
		return def, payload, nil
	}
	if len(payload) < 2 {
		return 0, nil, fmt.Errorf("%w: %d-byte payload is neither a default-code v1 frame nor a tagged v2 frame",
			ErrFrameLength, len(payload))
	}
	if payload[0] != ProtoV2Magic {
		return 0, nil, fmt.Errorf("%w: request version %#x, want v2 magic %#x (or a v1 frame of the default code's length)",
			ErrFrameLength, payload[0], ProtoV2Magic)
	}
	id = payload[1]
	n, ok := cb.FrameLen(id)
	if !ok {
		return id, nil, fmt.Errorf("%w %d", ErrUnknownCode, id)
	}
	if len(payload)-2 != n {
		return id, nil, fmt.Errorf("%w: %d-byte v2 frame for code %d, want %d LLRs", ErrFrameLength, len(payload)-2, id, n)
	}
	return id, payload[2:], nil
}

// WriteRaw sends one already-assembled payload verbatim under a length
// prefix — the forwarding primitive of a routing tier, which relays
// request and response payloads between client and backend without
// re-encoding them.
func WriteRaw(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRawResponse reads one length-prefixed response payload without
// interpreting it (the router relays it to the client verbatim; the
// status byte is payload[0]). io.EOF at a message boundary is the clean
// end of the stream.
func ReadRawResponse(r io.Reader, buf []byte) ([]byte, error) {
	return readMessage(r, buf)
}

// LLRsFromWire widens raw wire LLR bytes (int8) into dst. Lengths must
// match.
func LLRsFromWire(dst []int16, raw []byte) error {
	if len(raw) != len(dst) {
		return fmt.Errorf("%w: %d wire LLRs for frame length %d", ErrFrameLength, len(raw), len(dst))
	}
	for j, b := range raw {
		dst[j] = int16(int8(b))
	}
	return nil
}

// WriteRequestTagged sends one code-tagged (v2) frame of quantized
// LLRs. Values are saturated into int8.
func WriteRequestTagged(w io.Writer, id byte, q []int16, buf []byte) ([]byte, error) {
	buf = frame(buf, 2+len(q))
	buf[4] = ProtoV2Magic
	buf[5] = id
	putLLRs(buf[6:], q)
	_, err := w.Write(buf)
	return buf, err
}

// WriteRequest sends one frame of quantized LLRs. Values are saturated
// into int8.
func WriteRequest(w io.Writer, q []int16, buf []byte) ([]byte, error) {
	buf = frame(buf, len(q))
	putLLRs(buf[4:], q)
	_, err := w.Write(buf)
	return buf, err
}

// putLLRs saturates quantized LLRs into their int8 wire bytes.
func putLLRs(dst []byte, q []int16) {
	for j, v := range q {
		if v > 127 {
			v = 127
		} else if v < -128 {
			v = -128
		}
		dst[j] = byte(int8(v))
	}
}

// WriteResponse sends a decode outcome. The hard decisions are taken
// from res.Bits when status is StatusOK.
func WriteResponse(w io.Writer, status byte, res ldpc.Result, buf []byte) ([]byte, error) {
	buf = encodeResponse(buf, status, res)
	_, err := w.Write(buf)
	return buf, err
}

// encodeResponse frames a decode outcome in buf.
func encodeResponse(buf []byte, status byte, res ldpc.Result) []byte {
	n := 4
	if status == StatusOK {
		n += (res.Bits.Len() + 7) / 8
	}
	buf = frame(buf, n)
	p := buf[4:]
	p[0] = status
	p[1] = 0
	if res.Converged {
		p[1] = 1
	}
	it := res.Iterations
	if it < 0 || it > 0xFFFF {
		it = 0xFFFF
	}
	binary.BigEndian.PutUint16(p[2:4], uint16(it))
	if status == StatusOK {
		packBits(p[4:], res.Bits)
	}
	return buf
}

// WriteUnknownCode sends a StatusUnknownCode response advertising the
// server's served code IDs, so the client can fail fast instead of
// retrying a permanently-failing frame.
func WriteUnknownCode(w io.Writer, ids []byte, buf []byte) ([]byte, error) {
	buf = encodeUnknownCode(buf, ids)
	_, err := w.Write(buf)
	return buf, err
}

// encodeUnknownCode frames a StatusUnknownCode response in buf.
func encodeUnknownCode(buf []byte, ids []byte) []byte {
	if len(ids) > 255 {
		ids = ids[:255]
	}
	buf = frame(buf, 4+1+len(ids))
	p := buf[4:]
	p[0] = StatusUnknownCode
	p[1] = 0
	binary.BigEndian.PutUint16(p[2:4], 0)
	p[4] = byte(len(ids))
	copy(p[5:], ids)
	return buf
}

// Response is a decoded frame as seen by a client.
type Response struct {
	Status     byte
	Converged  bool
	Iterations int
	// Codes is the server's advertised code list, present only on a
	// StatusUnknownCode response.
	Codes []byte
}

// ReadResponse reads one decode outcome; when the status is StatusOK
// the hard decisions are unpacked into bits (length N).
func ReadResponse(r io.Reader, bits *bitvec.Vector, buf []byte) (Response, []byte, error) {
	buf, err := readMessage(r, buf)
	if err != nil {
		return Response{}, buf, err
	}
	if len(buf) < 4 {
		return Response{}, buf, fmt.Errorf("%w: %d-byte response header", ErrFrameLength, len(buf))
	}
	resp := Response{
		Status:     buf[0],
		Converged:  buf[1] != 0,
		Iterations: int(binary.BigEndian.Uint16(buf[2:4])),
	}
	if resp.Status == StatusOK {
		want := (bits.Len() + 7) / 8
		if len(buf)-4 != want {
			return resp, buf, fmt.Errorf("%w: %d hard-decision bytes for code length %d", ErrFrameLength, len(buf)-4, bits.Len())
		}
		unpackBits(bits, buf[4:])
	}
	if resp.Status == StatusUnknownCode && len(buf) > 4 {
		n := int(buf[4])
		if len(buf)-5 < n {
			return resp, buf, fmt.Errorf("%w: %d advertised codes in a %d-byte list", ErrFrameLength, n, len(buf)-5)
		}
		resp.Codes = append([]byte(nil), buf[5:5+n]...)
	}
	return resp, buf, nil
}

// packBits serializes a bit vector LSB-first — exactly the
// little-endian byte image of its uint64 words, truncated to ceil(N/8)
// bytes (bitvec keeps trailing bits of the last word zero).
func packBits(dst []byte, v *bitvec.Vector) {
	words := v.Words()
	nb := (v.Len() + 7) / 8
	for i := 0; i < nb; i++ {
		dst[i] = byte(words[i>>3] >> (8 * uint(i&7)))
	}
}

// unpackBits is the inverse of packBits. Stray bits beyond the vector
// length (possible only from a non-conforming peer) are ignored.
func unpackBits(v *bitvec.Vector, src []byte) {
	v.Zero()
	n := v.Len()
	for i, b := range src {
		if b == 0 {
			continue
		}
		base := 8 * i
		for k := 0; k < 8 && base+k < n; k++ {
			if b>>uint(k)&1 == 1 {
				v.Set(base + k)
			}
		}
	}
}
