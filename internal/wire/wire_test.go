package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg Message, fresh func() Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatalf("write %T: %v", msg, err)
	}
	r := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatalf("read %T: %v", msg, err)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		&Hello{From: 3, Epoch: 42},
		&HelloAck{From: 7, LastSeq: 1 << 40},
		&Data{Seq: 99, SentUnixNano: 123456789, Payload: []byte("payload")},
		&Data{Seq: 1, Payload: nil},
		&Ack{Origin: 1, By: 5, Type: 16, Seq: 77},
		&Heartbeat{Clock: 8},
		&HeartbeatEcho{Clock: 8},
		&App{ID: 12, Method: 0x5152, IsResponse: true, From: 2, Payload: []byte{0, 1, 2}},
		&App{ID: 0, Method: 1, IsResponse: false, From: 8, Payload: []byte{}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m, nil)
		if got.Kind() != m.Kind() {
			t.Fatalf("kind mismatch: sent %v got %v", m.Kind(), got.Kind())
		}
		// Normalize empty-vs-nil payloads before deep comparison.
		normalize := func(msg Message) {
			switch v := msg.(type) {
			case *Data:
				if len(v.Payload) == 0 {
					v.Payload = nil
				}
			case *App:
				if len(v.Payload) == 0 {
					v.Payload = nil
				}
			}
		}
		normalize(m)
		normalize(got)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\nsent %#v\ngot  %#v", m, got)
		}
	}
}

func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	const n = 100
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, &Data{Seq: uint64(i + 1), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < n; i++ {
		msg, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		d, ok := msg.(*Data)
		if !ok || d.Seq != uint64(i+1) {
			t.Fatalf("frame %d: got %#v", i, msg)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream: err = %v, want EOF", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	full := AppendFrame(nil, &Data{Seq: 5, Payload: bytes.Repeat([]byte{7}, 100)})
	for cut := 1; cut < len(full); cut += 17 {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.Next(); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestUnknownKindRejected(t *testing.T) {
	frame := []byte{0, 0, 0, 2, 0xEE, 0x01}
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.Next(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestZeroLengthFrameRejected(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, err := r.Next(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// A Heartbeat body is exactly 8 bytes; add one extra.
	body := append([]byte{byte(KindHeartbeat)}, make([]byte, 9)...)
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.Next(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

// TestQuickDataRoundTrip property-checks the Data codec.
func TestQuickDataRoundTrip(t *testing.T) {
	f := func(seq uint64, nano int64, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Data{Seq: seq, SentUnixNano: nano, Payload: payload}); err != nil {
			return false
		}
		msg, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		d, ok := msg.(*Data)
		return ok && d.Seq == seq && d.SentUnixNano == nano && bytes.Equal(d.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAckRoundTrip property-checks the Ack codec.
func TestQuickAckRoundTrip(t *testing.T) {
	f := func(origin, by, typ uint16, seq uint64) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Ack{Origin: origin, By: by, Type: typ, Seq: seq}); err != nil {
			return false
		}
		msg, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		a, ok := msg.(*Ack)
		return ok && a.Origin == origin && a.By == by && a.Type == typ && a.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecoderNeverPanics feeds random bytes to the frame decoder.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		r := NewReader(bytes.NewReader(junk))
		for {
			if _, err := r.Next(); err != nil {
				return true // any error is fine; panics are not
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderScratchReuse pins the Reader's zero-alloc contract: hot-path
// kinds decode into Reader-owned scratch structs (same pointer every call),
// while payload slices are fresh per frame and survive later calls.
func TestReaderScratchReuse(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Data{Seq: 1, Payload: []byte("first")})
	_ = WriteFrame(&buf, &Ack{Origin: 1, By: 2, Type: 3, Seq: 10})
	_ = WriteFrame(&buf, &Data{Seq: 2, Payload: []byte("second")})
	_ = WriteFrame(&buf, &Heartbeat{Clock: 4})
	r := NewReader(&buf)

	m1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	d1 := m1.(*Data)
	p1 := d1.Payload
	if _, err := r.Next(); err != nil { // Ack overwrites nothing of Data
		t.Fatal(err)
	}
	m3, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	d3 := m3.(*Data)
	if d1 != d3 {
		t.Fatal("Data frames decoded into distinct structs; want reused scratch")
	}
	if d3.Seq != 2 || string(d3.Payload) != "second" {
		t.Fatalf("second Data = %+v", d3)
	}
	// The first payload slice must still be intact after two more frames.
	if string(p1) != "first" {
		t.Fatalf("retained payload corrupted: %q", p1)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBufferShrinksAfterOversizeFrame checks one giant frame does not
// pin its body buffer once normal-sized frames resume.
func TestReaderBufferShrinksAfterOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, 2<<20)
	_ = WriteFrame(&buf, &Data{Seq: 1, Payload: big})
	_ = WriteFrame(&buf, &Data{Seq: 2, Payload: []byte("small")})
	_ = WriteFrame(&buf, &Data{Seq: 3, Payload: []byte("again")})
	r := NewReader(&buf)
	for i := 1; i <= 3; i++ {
		m, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if d := m.(*Data); d.Seq != uint64(i) {
			t.Fatalf("frame %d: seq %d", i, d.Seq)
		}
	}
	if cap(r.buf) > bufKeep {
		t.Fatalf("body buffer still %d bytes after oversize frame", cap(r.buf))
	}
}

// chunkReader hands its chunks out one per Read call, then reports EOF, so
// a test controls exactly what a Reader has buffered.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestHasFrame pins the non-blocking "is a whole frame buffered" probe the
// receive path uses to decide when a batch ends: false on an empty buffer,
// a torn length prefix, a torn body, or a frame larger than the buffer;
// true once the whole frame is in.
func TestHasFrame(t *testing.T) {
	first := AppendFrame(nil, &Data{Seq: 1, Payload: []byte("first")})
	second := AppendFrame(nil, &Data{Seq: 2, Payload: []byte("second frame")})
	huge := AppendFrame(nil, &Data{Seq: 2, Payload: make([]byte, 70<<10)})
	cases := []struct {
		name string
		rest []byte // buffered behind the first frame after one Next
		want bool
	}{
		{"empty", nil, false},
		{"partial header", second[:2], false},
		{"partial body", second[:len(second)-1], false},
		{"whole frame", second, true},
		{"larger than buffer", huge, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(&chunkReader{chunks: [][]byte{append(append([]byte(nil), first...), tc.rest...)}})
			if r.HasFrame() {
				t.Fatal("HasFrame true before anything was read")
			}
			if _, err := r.Next(); err != nil {
				t.Fatalf("first frame: %v", err)
			}
			if got := r.HasFrame(); got != tc.want {
				t.Fatalf("HasFrame = %v with %d bytes buffered, want %v", got, r.br.Buffered(), tc.want)
			}
		})
	}
	// A frame too large to buffer still decodes through the slow path.
	r := NewReader(bytes.NewReader(append(append([]byte(nil), first...), huge...)))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.HasFrame() {
		t.Fatal("HasFrame true for a frame larger than the buffer")
	}
	m, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d := m.(*Data); d.Seq != 2 || len(d.Payload) != 70<<10 {
		t.Fatalf("oversized frame decoded as seq %d, %d bytes", d.Seq, len(d.Payload))
	}
}

// TestAppendDataFrameHeaderMatchesAppendFrame pins the vectored-write
// invariant: a data frame header encoded standalone (for writev iovecs)
// followed by the payload must be byte-identical to AppendFrame's output.
func TestAppendDataFrameHeaderMatchesAppendFrame(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		d := &Data{Seq: 1 << 33, SentUnixNano: -7, Payload: p}
		whole := AppendFrame(nil, d)
		split := AppendDataFrameHeader(nil, d.Seq, d.SentUnixNano, len(p))
		if len(split) != DataFrameOverhead {
			t.Fatalf("header length %d, want DataFrameOverhead %d", len(split), DataFrameOverhead)
		}
		split = append(split, p...)
		if !bytes.Equal(whole, split) {
			t.Fatalf("payload len %d: header+payload differs from AppendFrame:\n%x\nvs\n%x", len(p), split, whole)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindHello; k <= KindHeartbeatEcho; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind string = %q", Kind(200).String())
	}
}
