package core

import (
	"fmt"
	"testing"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/wire"
)

// seqFailPersister accepts every message except the listed sequences.
type seqFailPersister map[uint64]bool

func (p seqFailPersister) Persist(m Message) error {
	if p[m.Seq] {
		return fmt.Errorf("persist %d: disk full", m.Seq)
	}
	return nil
}

// openPair boots a two-node cluster and returns both nodes. Node 2 never
// sends, so the tests drive node 1's receive path for origin 2 by calling
// its handler directly, the way the transport's receive loop does.
func openPair(t *testing.T, p Persister) (n1, n2 *Node) {
	t.Helper()
	net := emunet.NewMemNetwork(nil)
	cl, err := OpenCluster(ClusterConfig{
		Topology:       flatTopology(2),
		Network:        net,
		HeartbeatEvery: 20 * time.Millisecond,
		Configure: func(id int, c *Config) {
			if id == 1 {
				c.Persister = p
			}
		},
	})
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = net.Close()
	})
	return cl.Node(1), cl.Node(2)
}

// deliverBatch hands node n the frames [from, to] of origin 2 and then
// ends the batch, as one receive-loop run would.
func deliverBatch(n *Node, d *wire.Data, from, to uint64) {
	h := (*trHandler)(n)
	for s := from; s <= to; s++ {
		d.Seq = s
		h.HandleData(2, d)
	}
	h.FlushData(2)
}

// TestRecvBatchReportsHighWater: a batch leaves the stability rows
// untouched until its flush, which sets received, delivered and persisted
// (plus the origin's completeness row) to the batch high-water mark and
// queues ACKs the peer ingests with the same values. A persister failing
// mid-batch still advances persisted to the last sequence it accepted.
func TestRecvBatchReportsHighWater(t *testing.T) {
	n1, n2 := openPair(t, seqFailPersister{5: true, 7: true})
	d := &wire.Data{Payload: []byte("x")}
	h := (*trHandler)(n1)

	rows := func(n *Node, node int) [3]uint64 {
		var out [3]uint64
		for i, typ := range []string{"received", "delivered", "persisted"} {
			out[i], _ = n.AckValue(2, node, typ)
		}
		return out
	}
	check := func(want [3]uint64) {
		t.Helper()
		if got := rows(n1, 1); got != want {
			t.Fatalf("node 1 rows (received, delivered, persisted) = %v, want %v", got, want)
		}
		if got, _ := n1.AckValue(2, 2, "received"); got != want[0] {
			t.Fatalf("origin completeness row = %d, want %d", got, want[0])
		}
		waitUntil(t, 5*time.Second, "peer ingests the batch ACKs", func() bool { return rows(n2, 1) == want })
	}

	for s := uint64(1); s <= 5; s++ {
		d.Seq = s
		h.HandleData(2, d)
	}
	if got := rows(n1, 1); got != [3]uint64{} {
		t.Fatalf("rows moved before the flush: %v", got)
	}
	h.FlushData(2)
	check([3]uint64{5, 5, 4}) // seq 5 failed to persist: last success is 4
	h.FlushData(2)            // a second flush with nothing new is a no-op
	check([3]uint64{5, 5, 4})

	deliverBatch(n1, d, 6, 8)
	check([3]uint64{8, 8, 8}) // 7 failed, but 8 was accepted after it
}

// TestRecvBatchZeroAllocsOneClockRead pins the receive hot path with
// tracing disabled: no allocation per message or per batch, and a single
// clock read per batch however many frames it holds.
func TestRecvBatchZeroAllocsOneClockRead(t *testing.T) {
	n1, _ := openPair(t, nil)
	var delivered int
	n1.OnDeliver(func(Message) { delivered++ })
	reads := 0
	n1.nowFn = func() time.Time {
		reads++
		return time.Unix(0, 1)
	}
	d := &wire.Data{Payload: []byte("payload")}
	const frames = 16
	seq := uint64(0)
	batch := func() {
		deliverBatch(n1, d, seq+1, seq+frames)
		seq += frames
	}

	batch()
	if reads != 1 || delivered != frames {
		t.Fatalf("one batch of %d frames: %d clock reads, %d upcalls; want 1, %d", frames, reads, delivered, frames)
	}
	if allocs := testing.AllocsPerRun(1000, batch); allocs != 0 {
		t.Fatalf("HandleData+FlushData: %.1f allocs per batch, want 0", allocs)
	}
	if want := 1 + 1001; reads != want {
		t.Fatalf("%d clock reads over %d batches, want one per batch", reads, want)
	}
}
