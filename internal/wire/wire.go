// Package wire defines Stabilizer's binary wire protocol: length-prefixed
// frames carrying one of a small set of message kinds. The protocol is
// deliberately minimal — every message is a separately sequenced object and
// the transport layer guarantees lossless FIFO delivery per link, so no
// per-message negotiation is needed (paper §III-A).
//
// Frame layout:
//
//	uint32   big-endian body length (kind byte + payload)
//	uint8    kind
//	[]byte   kind-specific payload
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind identifies the message type carried by a frame.
type Kind uint8

// Message kinds. Values are part of the wire contract; do not renumber.
const (
	KindHello Kind = iota + 1
	KindHelloAck
	KindData
	KindAck
	KindHeartbeat
	KindApp
	KindHeartbeatEcho
)

// String returns the kind's human-readable name.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindHelloAck:
		return "helloack"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindHeartbeat:
		return "heartbeat"
	case KindApp:
		return "app"
	case KindHeartbeatEcho:
		return "hbecho"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxFrameSize bounds a single frame body. Data payloads are normally
// chunked to 8 KB by the applications (paper §VI-B), but the library itself
// allows larger messages up to this limit.
const MaxFrameSize = 64 << 20

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrShortFrame    = errors.New("wire: truncated frame body")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
)

// Message is any decodable protocol message.
type Message interface {
	// Kind reports the message's wire kind.
	Kind() Kind
	// AppendBody appends the kind-specific payload to buf.
	AppendBody(buf []byte) []byte
	// DecodeBody parses the kind-specific payload.
	DecodeBody(body []byte) error
}

// Hello is the first frame on a freshly dialed link: it identifies the
// dialing node so the accepting side can bind the connection to a peer.
type Hello struct {
	// From is the 1-based WAN node index of the dialer.
	From uint16
	// Epoch distinguishes successive processes at the same node; a higher
	// epoch supersedes links from older incarnations.
	Epoch uint64
}

// HelloAck is the accepting side's reply: it reports the highest contiguous
// data sequence it has received from the dialer, so the dialer can resume
// streaming from LastSeq+1 after a reconnect.
type HelloAck struct {
	From    uint16
	LastSeq uint64
}

// Data carries one sequenced data message on the data plane.
type Data struct {
	// Seq is the origin-assigned sequence number (1-based, dense).
	Seq uint64
	// SentUnixNano is the origin's send timestamp, used by the
	// experiment harnesses to compute end-to-end latency.
	SentUnixNano int64
	// Payload is the application data.
	Payload []byte
}

// Ack is one monotonic stability report on the control plane: node By has
// observed stability Type for all of node Origin's messages up to Seq.
// Newer values overwrite older ones — receivers only keep the maximum.
type Ack struct {
	Origin uint16
	By     uint16
	Type   uint16
	Seq    uint64
}

// Heartbeat keeps links alive and drives failure detection.
type Heartbeat struct {
	// Clock is a sender-local monotonic counter.
	Clock uint64
}

// HeartbeatEcho returns a peer's heartbeat clock to it. A heartbeat
// received while the echoing node's own link back to the sender is busy
// draining data is answered with this frame riding that data stream as a
// batch trailer, instead of a competing write on the idle incoming
// connection; the original same-connection Heartbeat echo remains the idle
// fallback.
type HeartbeatEcho struct {
	// Clock is the echoed sender-local counter.
	Clock uint64
}

// App carries an application-level request or response outside the
// sequenced data stream (e.g. quorum read RPCs).
type App struct {
	// ID correlates a response with its request.
	ID uint64
	// Method is an application-defined selector.
	Method uint16
	// IsResponse distinguishes replies from requests.
	IsResponse bool
	// From is the sending node's index.
	From uint16
	// Payload is the application body.
	Payload []byte
}

// Compile-time interface checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*HelloAck)(nil)
	_ Message = (*Data)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*App)(nil)
	_ Message = (*HeartbeatEcho)(nil)
)

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

// Kind implements Message.
func (*HelloAck) Kind() Kind { return KindHelloAck }

// Kind implements Message.
func (*Data) Kind() Kind { return KindData }

// Kind implements Message.
func (*Ack) Kind() Kind { return KindAck }

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// Kind implements Message.
func (*App) Kind() Kind { return KindApp }

// Kind implements Message.
func (*HeartbeatEcho) Kind() Kind { return KindHeartbeatEcho }

// AppendBody implements Message.
func (m *Hello) AppendBody(buf []byte) []byte {
	buf = appendU16(buf, m.From)
	return appendU64(buf, m.Epoch)
}

// DecodeBody implements Message.
func (m *Hello) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.From = d.u16()
	m.Epoch = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *HelloAck) AppendBody(buf []byte) []byte {
	buf = appendU16(buf, m.From)
	return appendU64(buf, m.LastSeq)
}

// DecodeBody implements Message.
func (m *HelloAck) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.From = d.u16()
	m.LastSeq = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *Data) AppendBody(buf []byte) []byte {
	buf = appendU64(buf, m.Seq)
	buf = appendU64(buf, uint64(m.SentUnixNano))
	return append(buf, m.Payload...)
}

// DecodeBody implements Message.
func (m *Data) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Seq = d.u64()
	m.SentUnixNano = int64(d.u64())
	if d.err != nil {
		return d.err
	}
	m.Payload = d.rest()
	return nil
}

// AppendBody implements Message.
func (m *Ack) AppendBody(buf []byte) []byte {
	buf = appendU16(buf, m.Origin)
	buf = appendU16(buf, m.By)
	buf = appendU16(buf, m.Type)
	return appendU64(buf, m.Seq)
}

// DecodeBody implements Message.
func (m *Ack) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Origin = d.u16()
	m.By = d.u16()
	m.Type = d.u16()
	m.Seq = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *Heartbeat) AppendBody(buf []byte) []byte {
	return appendU64(buf, m.Clock)
}

// DecodeBody implements Message.
func (m *Heartbeat) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Clock = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *HeartbeatEcho) AppendBody(buf []byte) []byte {
	return appendU64(buf, m.Clock)
}

// DecodeBody implements Message.
func (m *HeartbeatEcho) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.Clock = d.u64()
	return d.finish()
}

// AppendBody implements Message.
func (m *App) AppendBody(buf []byte) []byte {
	buf = appendU64(buf, m.ID)
	buf = appendU16(buf, m.Method)
	if m.IsResponse {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendU16(buf, m.From)
	return append(buf, m.Payload...)
}

// DecodeBody implements Message.
func (m *App) DecodeBody(body []byte) error {
	d := decoder{buf: body}
	m.ID = d.u64()
	m.Method = d.u16()
	m.IsResponse = d.u8() != 0
	m.From = d.u16()
	if d.err != nil {
		return d.err
	}
	m.Payload = d.rest()
	return nil
}

// AppendFrame appends a complete frame (length prefix, kind byte, body) for
// msg to buf and returns the extended slice.
func AppendFrame(buf []byte, msg Message) []byte {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = append(buf, byte(msg.Kind()))
	buf = msg.AppendBody(buf)
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf
}

// DataFrameOverhead is the encoded size of a Data frame minus its payload:
// the 4-byte length prefix, the kind byte, and the fixed seq + timestamp
// fields. A Data frame on the wire is exactly a DataFrameOverhead-byte
// header followed by the raw payload, which is what lets the transport hand
// header and payload to the kernel as separate iovecs (writev) without ever
// copying the payload.
const DataFrameOverhead = 4 + 1 + 8 + 8

// AppendDataFrameHeader appends the complete frame header for a Data
// message with a payloadLen-byte payload: the bytes such that
// header||payload is identical to AppendFrame(nil, &Data{...}). It exists
// so vectored writers can frame payloads in place.
func AppendDataFrameHeader(buf []byte, seq uint64, sentUnixNano int64, payloadLen int) []byte {
	var b [DataFrameOverhead]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(DataFrameOverhead-4+payloadLen))
	b[4] = byte(KindData)
	binary.BigEndian.PutUint64(b[5:13], seq)
	binary.BigEndian.PutUint64(b[13:21], uint64(sentUnixNano))
	return append(buf, b[:]...)
}

// WriteFrame encodes msg as one frame and writes it to w.
func WriteFrame(w io.Writer, msg Message) error {
	buf := AppendFrame(nil, msg)
	_, err := w.Write(buf)
	return err
}

// Reader decodes a stream of frames. It owns an internal buffered reader;
// do not read from the underlying stream while a Reader is attached.
//
// Readers are zero-allocation on the hot path: frame bodies are read into
// an internal buffer reused across calls, and the high-rate message kinds
// (Data, Ack, Heartbeat) are decoded into Reader-owned scratch structs.
type Reader struct {
	br    *bufio.Reader
	hdr   [4]byte // length-prefix scratch, kept here so it never escapes
	buf   []byte  // reusable frame-body buffer (slow path: oversized frames)
	arena payloadArena

	// Scratch messages for the hot-path kinds; handed out by Next and
	// overwritten by the following call.
	data Data
	ack  Ack
	hb   Heartbeat
	hbe  HeartbeatEcho
}

// payloadArena amortizes the per-Data-frame payload allocation: payloads
// are carved from shared slab chunks instead of individually heap
// allocated. A carved payload stays valid indefinitely (it is never reused
// — a full chunk is simply abandoned to the collector), at the cost that a
// long-retained payload pins its whole chunk; payloads big enough to make
// that waste matter are allocated exactly instead.
type payloadArena struct {
	buf []byte
}

// arenaChunk is the slab size; payloads of arenaChunk/4 bytes or more
// bypass the arena so one retained payload never pins more than 4x its own
// size.
const arenaChunk = 32 << 10

// copyOut returns a stable copy of src.
func (a *payloadArena) copyOut(src []byte) []byte {
	n := len(src)
	if n == 0 {
		return []byte{}
	}
	if n >= arenaChunk/4 {
		out := make([]byte, n)
		copy(out, src)
		return out
	}
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, arenaChunk)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	out := a.buf[off : off+n : off+n] // full-cap: appends cannot bleed over
	copy(out, src)
	return out
}

// bufKeep caps how much body-buffer capacity a Reader retains between
// frames: one oversized frame must not pin its buffer forever.
const bufKeep = 1 << 20

// NewReader wraps r in a frame decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads and decodes the next frame. The returned message is valid
// only until the following call to Next — Data, Ack, Heartbeat and
// HeartbeatEcho decode into Reader-owned scratch structs. Payload slices
// (Data.Payload, App.Payload) are stable copies that remain valid
// indefinitely; callers that need other fields past the next call must
// copy them out.
//
// Frames that fit inside the internal buffer are decoded in place via
// Peek/Discard, so the body is copied at most once (payload into the
// arena) instead of twice; only oversized frames take the copying path.
func (r *Reader) Next() (Message, error) {
	hdr, err := r.br.Peek(4)
	if len(hdr) < 4 {
		return nil, headerErr(len(hdr), err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, ErrShortFrame
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if total := 4 + int(n); total <= r.br.Size() {
		if cap(r.buf) > bufKeep {
			r.buf = nil // a normal frame followed an oversize one: unpin
		}
		frame, err := r.br.Peek(total)
		if len(frame) < total {
			if err == nil || errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		msg, err := r.decodeBody(frame[4:])
		if err != nil {
			return nil, err
		}
		if _, err := r.br.Discard(total); err != nil {
			return nil, err
		}
		return msg, nil
	}

	// Oversized frame: stage the body in the reusable buffer.
	if _, err := r.br.Discard(4); err != nil {
		return nil, err
	}
	if uint32(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if cap(r.buf) > bufKeep && n <= bufKeep {
		r.buf = nil // drop an oversized buffer once a normal frame follows
	}
	return r.decodeBody(body)
}

// HasFrame reports whether a whole frame is already buffered, so the next
// call to Next returns without reading the underlying stream. It never
// blocks: it peeks only at buffered bytes. A frame larger than the internal
// buffer never counts as buffered.
func (r *Reader) HasFrame() bool {
	b := r.br.Buffered()
	if b < 4 {
		return false
	}
	hdr, _ := r.br.Peek(4)
	return 4+uint64(binary.BigEndian.Uint32(hdr)) <= uint64(b)
}

// headerErr maps a short length-prefix peek onto io.ReadFull semantics: a
// clean boundary is io.EOF, a torn prefix is io.ErrUnexpectedEOF.
func headerErr(got int, err error) error {
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.EOF) && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBody decodes one frame body (kind byte + fields). body may alias
// the internal read buffer: every retained slice is copied out.
func (r *Reader) decodeBody(body []byte) (Message, error) {
	if Kind(body[0]) == KindData {
		// Decoded by hand so the payload goes straight from the read
		// buffer into the arena, skipping the generic copy in rest().
		b := body[1:]
		if len(b) < 16 {
			return nil, fmt.Errorf("wire: decode data: %w", ErrShortFrame)
		}
		r.data.Seq = binary.BigEndian.Uint64(b)
		r.data.SentUnixNano = int64(binary.BigEndian.Uint64(b[8:]))
		r.data.Payload = r.arena.copyOut(b[16:])
		return &r.data, nil
	}
	msg, err := r.message(Kind(body[0]))
	if err != nil {
		return nil, err
	}
	if err := msg.DecodeBody(body[1:]); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", msg.Kind(), err)
	}
	return msg, nil
}

// message returns the destination struct for kind k: a reused scratch
// struct for the hot-path kinds, a fresh allocation otherwise (handshake
// frames are rare; App messages are retained by application handlers).
func (r *Reader) message(k Kind) (Message, error) {
	switch k {
	case KindHello:
		return &Hello{}, nil
	case KindHelloAck:
		return &HelloAck{}, nil
	case KindData:
		return &r.data, nil
	case KindAck:
		return &r.ack, nil
	case KindHeartbeat:
		return &r.hb, nil
	case KindHeartbeatEcho:
		return &r.hbe, nil
	case KindApp:
		return &App{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
}

// --- primitive encoding helpers ---

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.err = ErrShortFrame
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 2 {
		d.err = ErrShortFrame
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = ErrShortFrame
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// rest returns a copy of the remaining bytes.
func (d *decoder) rest() []byte {
	out := make([]byte, len(d.buf))
	copy(out, d.buf)
	d.buf = nil
	return out
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}
