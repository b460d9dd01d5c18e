package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// TestSmokeEveryWorkload runs a short pass of every workload, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that no output was wrong.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := loadContract(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			out, err := run(options{workload: name, seed: 7, seconds: 4, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, traced, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// bootFor boots one workload's cluster for a negative test.
func bootFor(t *testing.T, name string) (workload, *pass) {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	p := &pass{seed: 7, viol: &violations{}, ctx: ctx}
	t.Cleanup(w.base().close)
	if err := w.boot(p); err != nil {
		t.Fatal(err)
	}
	return w, p
}

// TestCorruptPayloadCounted sends an append whose bytes are not the ones
// derived from its sequence number: every receiver must count it.
func TestCorruptPayloadCounted(t *testing.T) {
	w, p := bootFor(t, "lan-saturate")
	c := w.base()
	buf := make([]byte, satPayloadLen)
	fillPayload(buf, p.seed, 1, 2)
	buf[satPayloadLen-1] ^= 1
	seq, err := c.cl.Node(1).Send(buf)
	if err != nil || seq != 2 {
		t.Fatalf("send: seq %d, %v", seq, err)
	}
	if err := c.cl.Node(1).WaitFor(p.ctx, seq, c.key); err != nil {
		t.Fatal(err)
	}
	receivers := int64(len(c.cl.Nodes()) - 1)
	if got := p.viol.n.Load(); got != receivers {
		t.Fatalf("corrupted payload counted %d times, want once per receiver (%d): %v", got, receivers, p.viol.list())
	}
	out := finish(nil, nil, &passResult{attempted: 1, nViol: p.viol.n.Load()})
	if out.Correct || out.Failed != receivers {
		t.Fatalf("result line: correct=%t failed=%d, want false and %d", out.Correct, out.Failed, receivers)
	}
}

// TestStaleReadCounted reads a key after the client's model records a
// write newer than any replica holds: the read is stale and must count.
func TestStaleReadCounted(t *testing.T) {
	w, p := bootFor(t, "lan-quorum")
	kv := w.(*kvLoad)
	m := &kvModel{seed: p.seed, origin: 1}
	keys := kvKeyNames(1)
	if err := kv.write(p, 1, m, keys, nil); err != nil {
		t.Fatal(err)
	}
	k := m.writeKey(2)
	val, ver, err := kv.kvs[1].Read(p.ctx, keys[k])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkRead(k, true, ver, val); err != nil {
		t.Fatalf("fresh read rejected: %v", err)
	}
	m.lastVer[k] = ver + 1
	if err := m.checkRead(k, true, ver, val); err == nil {
		t.Fatal("stale read accepted")
	}
	m.lastVer[k] = ver
	val[0] ^= 1
	if err := m.checkRead(k, true, ver, val); err == nil {
		t.Fatal("read with corrupted bytes accepted")
	}
	if err := m.checkRead(k, false, 0, nil); err == nil {
		t.Fatal("read that missed a completed write accepted")
	}
	if got := p.viol.n.Load(); got != 0 {
		t.Fatalf("honest traffic counted %d violations: %v", got, p.viol.list())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); got < want*0.996 || got > want*1.004 {
			t.Errorf("q%.2f = %.0f, want %.0f within 0.4%%", q, got, want)
		}
	}
}
