package transport

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// flushMark stands for a FlushData call in a batchLog's event list.
const flushMark = 0

// batchLog is a Handler that records the interleaving of HandleData (the
// frame's sequence) and FlushData (flushMark) calls.
type batchLog struct {
	*recorder
	mu     sync.Mutex
	events []uint64
}

func (b *batchLog) HandleData(from int, d *wire.Data) {
	b.mu.Lock()
	b.events = append(b.events, d.Seq)
	b.mu.Unlock()
}

func (b *batchLog) FlushData(from int) {
	b.mu.Lock()
	b.events = append(b.events, flushMark)
	b.mu.Unlock()
}

// waitEvents waits until the log holds exactly want.
func (b *batchLog) waitEvents(t *testing.T, want []uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		got := append([]uint64(nil), b.events...)
		b.mu.Unlock()
		if reflect.DeepEqual(got, want) {
			return
		}
		if len(got) > len(want) || time.Now().After(deadline) {
			t.Fatalf("events (0 = flush):\n got %v\nwant %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// chunkConn is an accepted connection whose peer writes in chosen chunks:
// each Read returns what is left of the current chunk and blocks until the
// test sends the next one, so the test controls exactly which frames are
// buffered when the receive loop decides whether to flush.
type chunkConn struct {
	net.Conn // unused methods; the receive loop calls only Read, Write, Close
	chunks   chan []byte
	cur      []byte
	once     sync.Once
	closed   chan struct{}
}

func newChunkConn() *chunkConn {
	return &chunkConn{chunks: make(chan []byte), closed: make(chan struct{})}
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.cur) == 0 {
		select {
		case c.cur = <-c.chunks:
		case <-c.closed:
			return 0, io.EOF
		}
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *chunkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// send hands the receive loop one chunk.
func (c *chunkConn) send(t *testing.T, b []byte) {
	t.Helper()
	select {
	case c.chunks <- b:
	case <-time.After(5 * time.Second):
		t.Fatal("receive loop never read the next chunk")
	}
}

// serveChunks runs node 1's receive loop for an incoming connection from
// node 2 over a chunkConn, past the handshake.
func serveChunks(t *testing.T) (*batchLog, *chunkConn) {
	t.Helper()
	h := &batchLog{recorder: newRecorder()}
	tr, err := New(Config{Self: 1, N: 2, Network: emunet.NewMemNetwork(nil), Handler: h, Log: NewSendLog(1)})
	if err != nil {
		t.Fatal(err)
	}
	c := newChunkConn()
	tr.wg.Add(1)
	go tr.serveIncoming(c)
	t.Cleanup(func() {
		_ = c.Close()
		tr.wg.Wait()
	})
	c.send(t, wire.AppendFrame(nil, &wire.Hello{From: 2}))
	return h, c
}

// dataFrames frames sequences [from, to] back to back.
func dataFrames(from, to uint64) []byte {
	var b []byte
	for s := from; s <= to; s++ {
		b = wire.AppendFrame(b, &wire.Data{Seq: s, Payload: []byte(fmt.Sprint(s))})
	}
	return b
}

// seqs lists [from, to] followed by a flush.
func seqs(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return append(out, flushMark)
}

// TestRecvBatchFlushPerBufferedRun: every run of frames that arrives in one
// read is delivered frame by frame and closed by exactly one flush.
func TestRecvBatchFlushPerBufferedRun(t *testing.T) {
	h, c := serveChunks(t)
	c.send(t, dataFrames(1, 5))
	h.waitEvents(t, seqs(1, 5))
	c.send(t, dataFrames(6, 8))
	h.waitEvents(t, append(seqs(1, 5), seqs(6, 8)...))
}

// TestRecvBatchCapsLongRun: a long buffered run is flushed every
// recvBatchFrames frames and once more at its end.
func TestRecvBatchCapsLongRun(t *testing.T) {
	h, c := serveChunks(t)
	const total = 2*recvBatchFrames + 22
	c.send(t, dataFrames(1, total))
	var want []uint64
	for lo := uint64(1); lo <= total; lo += recvBatchFrames {
		want = append(want, seqs(lo, min(lo+recvBatchFrames-1, total))...)
	}
	h.waitEvents(t, want)
}

// TestRecvBatchFlushesBeforeBlocking: when a frame is split across reads
// the loop flushes the frames before it first, so their ACKs never wait on
// the network for the rest of the split frame.
func TestRecvBatchFlushesBeforeBlocking(t *testing.T) {
	h, c := serveChunks(t)
	run := dataFrames(1, 4)
	cut := len(run) - 3 // inside frame 4's body
	c.send(t, run[:cut])
	h.waitEvents(t, seqs(1, 3)) // flushed while the loop blocks on the read
	c.send(t, run[cut:])
	h.waitEvents(t, append(seqs(1, 3), seqs(4, 4)...))
}

// TestRecvBatchFlushesOnConnError: a connection that fails mid-run (here a
// corrupt frame right behind the good ones, so no read would block first)
// still flushes the frames it delivered.
func TestRecvBatchFlushesOnConnError(t *testing.T) {
	h, c := serveChunks(t)
	bad := []byte{0, 0, 0, 2, 0xEE, 0x01} // unknown frame kind
	c.send(t, append(dataFrames(1, 3), bad...))
	h.waitEvents(t, seqs(1, 3))
}
