package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// recorder is a Handler that records everything.
type recorder struct {
	mu    sync.Mutex
	data  map[int][]uint64 // per-peer data sequences in arrival order
	acks  []wire.Ack
	apps  []*wire.App
	ups   []int
	downs []int
}

func newRecorder() *recorder {
	return &recorder{data: make(map[int][]uint64)}
}

func (r *recorder) HandleData(from int, d *wire.Data) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data[from] = append(r.data[from], d.Seq)
}

func (r *recorder) FlushData(from int) {}

func (r *recorder) HandleAck(a *wire.Ack) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.acks = append(r.acks, *a)
}

func (r *recorder) HandleApp(from int, a *wire.App) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps = append(r.apps, a)
}

func (r *recorder) PeerUp(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ups = append(r.ups, p)
}

func (r *recorder) PeerDown(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.downs = append(r.downs, p)
}

func (r *recorder) dataSeqs(from int) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.data[from]))
	copy(out, r.data[from])
	return out
}

func (r *recorder) maxAck(origin, by, typ int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max uint64
	for _, a := range r.acks {
		if int(a.Origin) == origin && int(a.By) == by && int(a.Type) == typ && a.Seq > max {
			max = a.Seq
		}
	}
	return max
}

type harness struct {
	net  *emunet.MemNetwork
	trs  []*Transport
	recs []*recorder
	logs []*SendLog
}

func startHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{net: emunet.NewMemNetwork(nil)}
	for i := 1; i <= n; i++ {
		rec := newRecorder()
		log := NewSendLog(1)
		tr, err := New(Config{
			Self:           i,
			N:              n,
			Network:        h.net,
			Handler:        rec,
			Log:            log,
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("new transport %d: %v", i, err)
		}
		if err := tr.Start(); err != nil {
			t.Fatalf("start transport %d: %v", i, err)
		}
		h.trs = append(h.trs, tr)
		h.recs = append(h.recs, rec)
		h.logs = append(h.logs, log)
	}
	t.Cleanup(func() {
		for _, tr := range h.trs {
			_ = tr.Close()
		}
		_ = h.net.Close()
	})
	return h
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestDataFIFOAcrossPeers(t *testing.T) {
	h := startHarness(t, 3)
	const count = 200
	for i := 0; i < count; i++ {
		if _, err := h.logs[0].Append([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	h.trs[0].NotifyData()
	for peer := 2; peer <= 3; peer++ {
		peer := peer
		waitUntil(t, 5*time.Second, func() bool {
			return len(h.recs[peer-1].dataSeqs(1)) == count
		})
		seqs := h.recs[peer-1].dataSeqs(1)
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("peer %d: seq[%d] = %d (FIFO violated)", peer, i, s)
			}
		}
	}
}

func TestAckCoalescingDeliversNewest(t *testing.T) {
	h := startHarness(t, 2)
	// Queue many monotonic acks quickly; only the newest value matters.
	for s := uint64(1); s <= 1000; s++ {
		h.trs[0].QueueAck(wire.Ack{Origin: 1, By: 1, Type: 1, Seq: s})
	}
	waitUntil(t, 5*time.Second, func() bool {
		return h.recs[1].maxAck(1, 1, 1) == 1000
	})
	// Coalescing may drop intermediates but must deliver 1000.
}

func TestAckStateResyncsAfterReconnect(t *testing.T) {
	h := startHarness(t, 2)
	h.trs[0].QueueAck(wire.Ack{Origin: 1, By: 1, Type: 1, Seq: 7})
	waitUntil(t, 5*time.Second, func() bool { return h.recs[1].maxAck(1, 1, 1) == 7 })

	// Kill node 2's transport and restart it with fresh state: node 1
	// must resync its full ACK state on the new connection.
	_ = h.trs[1].Close()
	rec := newRecorder()
	log := NewSendLog(1)
	tr, err := New(Config{
		Self: 2, N: 2, Network: h.net, Handler: rec, Log: log,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	h.trs[1] = tr
	h.recs[1] = rec
	waitUntil(t, 5*time.Second, func() bool { return rec.maxAck(1, 1, 1) == 7 })
}

func TestResendAfterReconnect(t *testing.T) {
	h := startHarness(t, 2)
	for i := 0; i < 10; i++ {
		_, _ = h.logs[0].Append([]byte{byte(i)}, 0)
	}
	h.trs[0].NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(h.recs[1].dataSeqs(1)) == 10 })

	// Restart the receiver with its last-received state intact is the
	// transport's own job via HelloAck; restart with FRESH state and all
	// ten messages must be resent (the log still holds them).
	_ = h.trs[1].Close()
	rec := newRecorder()
	tr, err := New(Config{
		Self: 2, N: 2, Network: h.net, Handler: rec, Log: NewSendLog(1),
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	h.trs[1] = tr
	waitUntil(t, 5*time.Second, func() bool { return len(rec.dataSeqs(1)) == 10 })
	seqs := rec.dataSeqs(1)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("resent seq[%d] = %d", i, s)
		}
	}
}

func TestNoDuplicateDeliveryAfterSenderReconnect(t *testing.T) {
	h := startHarness(t, 2)
	for i := 0; i < 5; i++ {
		_, _ = h.logs[0].Append([]byte{byte(i)}, 0)
	}
	h.trs[0].NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(h.recs[1].dataSeqs(1)) == 5 })

	// Restart the SENDER; it resends from what the receiver reports, so
	// the receiver sees no duplicates.
	_ = h.trs[0].Close()
	tr, err := New(Config{
		Self: 1, N: 2, Network: h.net, Handler: newRecorder(), Log: h.logs[0],
		HeartbeatEvery: 20 * time.Millisecond, Epoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 5; i < 8; i++ {
		_, _ = h.logs[0].Append([]byte{byte(i)}, 0)
	}
	tr.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(h.recs[1].dataSeqs(1)) == 8 })
	seqs := h.recs[1].dataSeqs(1)
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate delivery of seq %d", s)
		}
		seen[s] = true
	}
}

// tinyBatch forces multi-frame batches with a byte-budget boundary in the
// middle of a run: 40-byte budget over 16-byte payloads cuts every batch at
// two frames even though the frame cap allows four.
var tinyBatch = BatchConfig{MaxFrames: 4, MinBytes: 40, MaxBytes: 40}

// TestNoDuplicateDeliveryAfterSenderReconnectBatched is the sender-restart
// contract under batched streaming: batch sizes > 1, a byte-budget boundary
// mid-run, and a reconnect in the middle of the sequence must yield a
// gapless, duplicate-free FIFO stream.
func TestNoDuplicateDeliveryAfterSenderReconnectBatched(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	sendLog := NewSendLog(1)
	rec := newRecorder()
	mk := func(self int, h Handler, log *SendLog, epoch uint64) *Transport {
		tr, err := New(Config{
			Self: self, N: 2, Network: net, Handler: h, Log: log,
			HeartbeatEvery: 20 * time.Millisecond, Epoch: epoch, Batch: tinyBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	sender := mk(1, newRecorder(), sendLog, 1)
	receiver := mk(2, rec, NewSendLog(1), 1)
	defer receiver.Close()

	payload := make([]byte, 16)
	const before, after = 21, 12 // odd count: reconnect lands mid-batch-run
	for i := 0; i < before; i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	sender.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(rec.dataSeqs(1)) == before })

	// Restart the sender; it resumes from what the receiver reports.
	_ = sender.Close()
	sender = mk(1, newRecorder(), sendLog, 2)
	defer sender.Close()
	for i := 0; i < after; i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	sender.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(rec.dataSeqs(1)) == before+after })
	seqs := rec.dataSeqs(1)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d: gap or duplicate across batched reconnect", i, s)
		}
	}
}

// TestReceiverRestartMidBatchStream restarts the RECEIVER with fresh state
// while the sender is streaming multi-frame batches: the full stream must
// be resent from the log with no gaps and no duplicate deliveries.
func TestReceiverRestartMidBatchStream(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	sendLog := NewSendLog(1)
	mk := func(self int, h Handler, log *SendLog) *Transport {
		tr, err := New(Config{
			Self: self, N: 2, Network: net, Handler: h, Log: log,
			HeartbeatEvery: 20 * time.Millisecond, Batch: tinyBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rec1 := newRecorder()
	sender := mk(1, newRecorder(), sendLog)
	defer sender.Close()
	receiver := mk(2, rec1, NewSendLog(1))

	const total = 200
	payload := make([]byte, 16)
	for i := 0; i < total; i++ {
		if _, err := sendLog.Append(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	sender.NotifyData()
	// Kill the receiver once the stream is partially delivered.
	waitUntil(t, 5*time.Second, func() bool { return len(rec1.dataSeqs(1)) >= 20 })
	_ = receiver.Close()

	rec2 := newRecorder()
	receiver = mk(2, rec2, NewSendLog(1))
	defer receiver.Close()
	sender.NotifyData()
	waitUntil(t, 5*time.Second, func() bool { return len(rec2.dataSeqs(1)) == total })
	seqs := rec2.dataSeqs(1)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d: gap or duplicate after receiver restart", i, s)
		}
	}
}

func TestAppMessages(t *testing.T) {
	h := startHarness(t, 2)
	if err := h.trs[0].SendApp(2, &wire.App{ID: 9, Method: 3, From: 1, Payload: []byte("req")}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		h.recs[1].mu.Lock()
		defer h.recs[1].mu.Unlock()
		return len(h.recs[1].apps) == 1
	})
	h.recs[1].mu.Lock()
	a := h.recs[1].apps[0]
	h.recs[1].mu.Unlock()
	if a.ID != 9 || a.Method != 3 || string(a.Payload) != "req" {
		t.Fatalf("app message = %+v", a)
	}
	if err := h.trs[0].SendApp(99, &wire.App{}); err == nil {
		t.Fatal("SendApp to unknown peer succeeded")
	}
}

func TestPeerUpDown(t *testing.T) {
	h := startHarness(t, 2)
	waitUntil(t, 5*time.Second, func() bool {
		h.recs[0].mu.Lock()
		defer h.recs[0].mu.Unlock()
		return len(h.recs[0].ups) > 0
	})
	_ = h.trs[1].Close()
	waitUntil(t, 5*time.Second, func() bool {
		h.recs[0].mu.Lock()
		defer h.recs[0].mu.Unlock()
		return len(h.recs[0].downs) > 0
	})
}

func TestConfigValidation(t *testing.T) {
	net := emunet.NewMemNetwork(nil)
	defer net.Close()
	base := Config{Self: 1, N: 2, Network: net, Handler: newRecorder(), Log: NewSendLog(1)}

	bad := base
	bad.Handler = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil handler accepted")
	}
	bad = base
	bad.Log = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil log accepted")
	}
	bad = base
	bad.Network = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil network accepted")
	}
	bad = base
	bad.Self = 3
	if _, err := New(bad); err == nil {
		t.Fatal("out-of-range self accepted")
	}
}

func TestSendLogBasics(t *testing.T) {
	l := NewSendLog(0) // 0 normalizes to 1
	if l.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d", l.NextSeq())
	}
	s1, _ := l.Append([]byte("a"), 1)
	s2, _ := l.Append([]byte("bb"), 2)
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d", s1, s2)
	}
	if l.Head() != 2 || l.Len() != 2 || l.Bytes() != 3 {
		t.Fatalf("head=%d len=%d bytes=%d", l.Head(), l.Len(), l.Bytes())
	}
	e, err := l.Next(1)
	if err != nil || e.Seq != 1 || string(e.Payload) != "a" {
		t.Fatalf("Next(1) = %+v, %v", e, err)
	}
	if _, ok := l.TryNext(3); ok {
		t.Fatal("TryNext past head succeeded")
	}
	l.TruncateThrough(1)
	if l.Base() != 2 || l.Bytes() != 2 {
		t.Fatalf("after truncate: base=%d bytes=%d", l.Base(), l.Bytes())
	}
	// Next below base snaps to base.
	e, err = l.Next(1)
	if err != nil || e.Seq != 2 {
		t.Fatalf("Next(1) after truncate = %+v, %v", e, err)
	}
	l.Close()
	if _, err := l.Append(nil, 0); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close err = %v", err)
	}
	if _, err := l.Next(3); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("next after close err = %v", err)
	}
}

func TestSendLogBlockingNext(t *testing.T) {
	l := NewSendLog(1)
	got := make(chan LogEntry, 1)
	go func() {
		e, err := l.Next(1)
		if err == nil {
			got <- e
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.Seq != 1 {
			t.Fatalf("blocked Next returned seq %d", e.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Next never woke")
	}
}

func TestSendLogCheckpointStart(t *testing.T) {
	l := NewSendLog(100)
	s, _ := l.Append(nil, 0)
	if s != 100 {
		t.Fatalf("first seq after checkpoint = %d, want 100", s)
	}
}

func TestSendLogTryNextBatch(t *testing.T) {
	l := NewSendLog(1)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(make([]byte, 10), 0); err != nil {
			t.Fatal(err)
		}
	}

	// Frame cap.
	batch := l.TryNextBatch(1, nil, 3, 1<<20)
	if len(batch) != 3 || batch[0].Seq != 1 || batch[2].Seq != 3 {
		t.Fatalf("frame-capped batch = %+v", batch)
	}

	// Byte budget: 25 bytes fits two 10-byte payloads, not three.
	batch = l.TryNextBatch(1, batch[:0], 100, 25)
	if len(batch) != 2 {
		t.Fatalf("byte-capped batch len = %d, want 2", len(batch))
	}

	// An over-budget first entry is still returned: progress over budget.
	batch = l.TryNextBatch(1, batch[:0], 100, 1)
	if len(batch) != 1 || batch[0].Seq != 1 {
		t.Fatalf("over-budget batch = %+v", batch)
	}

	// Nothing ready past the head.
	if batch = l.TryNextBatch(11, batch[:0], 100, 1<<20); len(batch) != 0 {
		t.Fatalf("batch past head = %+v", batch)
	}

	// A cursor below the retained base snaps to the base.
	l.TruncateThrough(4)
	batch = l.TryNextBatch(1, batch[:0], 100, 1<<20)
	if len(batch) != 6 || batch[0].Seq != 5 || batch[5].Seq != 10 {
		t.Fatalf("post-truncate batch = %+v", batch)
	}
}

func TestSendLogTruncateAmortized(t *testing.T) {
	// Interleave appends and truncates past the compaction threshold and
	// check the observable state stays exact throughout.
	l := NewSendLog(1)
	var appended, truncated uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 17; i++ {
			if _, err := l.Append([]byte{byte(i)}, 0); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		// Reclaim all but the last 5 entries.
		if appended > 5 {
			l.TruncateThrough(appended - 5)
			truncated = appended - 5
		}
		if got := l.Base(); got != truncated+1 {
			t.Fatalf("round %d: base = %d, want %d", round, got, truncated+1)
		}
		if got := l.Len(); got != int(appended-truncated) {
			t.Fatalf("round %d: len = %d, want %d", round, got, appended-truncated)
		}
		if got := l.Bytes(); got != int64(appended-truncated) {
			t.Fatalf("round %d: bytes = %d, want %d", round, got, appended-truncated)
		}
		e, ok := l.TryNext(truncated + 1)
		if !ok || e.Seq != truncated+1 {
			t.Fatalf("round %d: TryNext(base) = %+v, %v", round, e, ok)
		}
		e, ok = l.TryNext(appended)
		if !ok || e.Seq != appended {
			t.Fatalf("round %d: TryNext(head) = %+v, %v", round, e, ok)
		}
	}
	// Truncating everything leaves an empty, still-appendable log.
	l.TruncateThrough(appended)
	if l.Len() != 0 {
		t.Fatalf("len after full truncate = %d", l.Len())
	}
	s, err := l.Append(nil, 0)
	if err != nil || s != appended+1 {
		t.Fatalf("append after full truncate = %d, %v", s, err)
	}
}

func TestManyNodesAllToAll(t *testing.T) {
	const n = 5
	h := startHarness(t, n)
	const per = 50
	for i := 0; i < n; i++ {
		for m := 0; m < per; m++ {
			_, _ = h.logs[i].Append([]byte(fmt.Sprintf("%d-%d", i+1, m)), 0)
		}
		h.trs[i].NotifyData()
	}
	for me := 1; me <= n; me++ {
		for from := 1; from <= n; from++ {
			if me == from {
				continue
			}
			me, from := me, from
			waitUntil(t, 10*time.Second, func() bool {
				return len(h.recs[me-1].dataSeqs(from)) == per
			})
		}
	}
}
