package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/config"
	"stabilizer/internal/core"
	"stabilizer/internal/emunet"
	"stabilizer/internal/faultinject"
	"stabilizer/internal/optrace"
	"stabilizer/internal/predlib"
	"stabilizer/internal/quorum"
)

// Workload shapes. Each is chosen to stress different layers; the reasons
// are in workloadWhy, which BENCHMARK.json repeats.
const (
	satOutstanding = 256 // appends each lan-saturate client keeps in flight
	satPayloadLen  = 64
	kvValueLen     = 64
	kvWriteShare   = 0.10
	wanPayloadLen  = 1024
	wanInterval    = 500 * time.Microsecond // 2,000 appends/s
	wanOrigin      = 1
	partVictim     = 8 // Ohio
	partPeriod     = 4 * time.Second
	partOutage     = time.Second
	// partTail is the room left after a heal inside the window, so every
	// scheduled heal recovers inside it and every seed gets the same
	// number of outages (four in a 20 s window).
	partTail = 3 * time.Second
)

var workloadWhy = map[string]string{
	"lan-saturate":  "4 nodes on loopback TCP, 2 closed-loop origins with 256 appends of 64 B in flight: per-message CPU, writev batches, receive fan-in",
	"lan-quorum":    "5-node quorum KV (N=5, Nw=Nr=3) on loopback TCP, 2 clients with 1 op in flight, 90% reads: latency-bound control path and KTH_MIN writes",
	"wan-stream":    "8-node EC2 WAN on memnet at real Table I delays, open-loop 2,000 appends/s of 1 KiB, six Table III predicates: WAN-dominated commits",
	"wan-partition": "wan-stream while Ohio is isolated 1 s in every 4 s: reconnect, backoff, resend from the send log and catch-up drain",
}

var workloadNames = []string{"lan-saturate", "lan-quorum", "wan-stream", "wan-partition"}

// pass is one measured run of a workload: rounds of one cluster each, a
// warmup, then the measured window [start, end), cut into equal slices.
type pass struct {
	seed       int64
	traced     bool
	start, end int64
	slice      int64 // slice width
	nSlices    int
	// Latencies of the current round: append → stable under the commit
	// predicate, append → stable under OneWNode (wan-*), and KV.Read call
	// → return (lan-quorum).
	commit, weak, read *sliced
	// ctx bounds every blocking call; it expires drainTimeout after the
	// window, so an operation that never completes counts as a timeout.
	ctx    context.Context
	viol   *violations
	tracer *tracer // nil on untraced passes

	attempted atomic.Int64
	failed    atomic.Int64 // errors and timeouts; violations count separately
}

func (p *pass) in(t int64) bool { return t >= p.start && t < p.end }

// done counts an operation that completed at t, inside the window.
func (p *pass) done(ld *load, t int64) {
	ld.completed[min(int((t-p.start)/p.slice), p.nSlices-1)]++
}

// load is what one of a workload's clients measured, besides latencies.
type load struct {
	completed  []int64 // operations completed inside the window, per slice
	send       hist    // Node.Send call duration (traced passes)
	lag        hist    // open-loop send time − due time
	recoveries []float64
}

func newLoad(p *pass) *load { return &load{completed: make([]int64, p.nSlices)} }

func (l *load) total() int64 {
	var n int64
	for _, c := range l.completed {
		n += c
	}
	return n
}

// workload is one benchmark scenario over a live cluster.
type workload interface {
	// boot opens the cluster and returns once every origin's first
	// append is stable under its commit predicate.
	boot(p *pass) error
	// drive runs the load until p.end and then waits for every
	// outstanding operation.
	drive(p *pass) *load
	base() *cluster
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "lan-saturate":
		return &saturate{}, nil
	case "lan-quorum":
		return &kvLoad{}, nil
	case "wan-stream":
		return &wan{}, nil
	case "wan-partition":
		return &wan{partition: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cluster is the part every workload shares: the fabric, the nodes, the
// receive-side checker and the commit predicate.
type cluster struct {
	net   emunet.Network
	cl    *core.Cluster
	check *streamCheck
	// key names the commit predicate as registered on the origins;
	// checkSrc is the same condition written so that any node can
	// evaluate it about any origin's stream.
	key, checkSrc string
	origins       []int
	// wholeWindow makes the round's window a single slice: wan-partition's
	// window is a run of outage cycles, which 1 s slices would split.
	wholeWindow bool
	last        [maxNodes + 1]atomic.Uint64 // last seq each origin appended
}

func (c *cluster) open(topo *config.Topology, nw emunet.Network, traced bool) error {
	c.net = nw
	cfg := core.ClusterConfig{Topology: topo, Network: nw}
	if traced {
		cfg.Trace = optrace.Config{SampleEvery: traceSampleEvery, RingSize: traceRingSize}
	}
	cl, err := core.OpenCluster(cfg)
	if err != nil {
		return err
	}
	c.cl = cl
	return nil
}

// watchDeliveries routes every node's deliveries through the checker.
func (c *cluster) watchDeliveries() {
	for _, n := range c.cl.Nodes() {
		id := n.Self()
		n.OnDeliver(func(m core.Message) { c.check.deliver(id, m.Origin, m.Seq, m.Payload) })
	}
}

func (c *cluster) close() {
	if c.cl != nil {
		_ = c.cl.Close()
	}
	if c.net != nil {
		_ = c.net.Close()
	}
}

// firstAppends sends seq 1 on every origin and waits until each is stable.
func (c *cluster) firstAppends(p *pass, size int) error {
	buf := make([]byte, size)
	for _, o := range c.origins {
		fillPayload(buf, p.seed, o, 1)
		seq, err := c.cl.Node(o).Send(buf)
		if err != nil {
			return err
		}
		if seq != 1 {
			return fmt.Errorf("origin %d: first append got seq %d", o, seq)
		}
		c.last[o].Store(seq)
	}
	for _, o := range c.origins {
		if err := c.cl.Node(o).WaitFor(p.ctx, 1, c.key); err != nil {
			return fmt.Errorf("origin %d: first append: %w", o, err)
		}
	}
	return nil
}

// settle runs the end-of-run checks, waiting up to the pass deadline for
// each: every node's commit frontier for each origin covers the origin's
// last append, and every other node delivered the origin's whole stream
// (a quorum commit does not wait for every node, so delivery may lag it).
func (c *cluster) settle(p *pass) {
	for _, o := range c.origins {
		last := c.last[o].Load()
		for _, n := range c.cl.Nodes() {
			var f, got uint64
			var err error
			for {
				if f, err = n.EvalFor(o, c.checkSrc); err != nil {
					p.viol.addf("node %d: evaluate commit predicate for origin %d: %v", n.Self(), o, err)
					break
				}
				got = last
				if n.Self() != o {
					got = c.check.delivered(n.Self(), o)
				}
				if (f >= last && got == last) || p.ctx.Err() != nil {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err == nil && f < last {
				p.viol.addf("node %d: commit frontier for origin %d stuck at %d, last append %d", n.Self(), o, f, last)
			}
			if got != last {
				p.viol.addf("node %d: delivered origin %d through %d, last append %d", n.Self(), o, got, last)
			}
		}
	}
}

// fourRegionTopology takes one node from each EC2 region.
func fourRegionTopology() *config.Topology {
	ec2 := config.EC2Topology(1)
	return &config.Topology{Self: 1, Nodes: []config.Node{ec2.Nodes[0], ec2.Nodes[2], ec2.Nodes[6], ec2.Nodes[7]}}
}

// --- lan-saturate ---

type saturate struct{ c cluster }

func (w *saturate) base() *cluster { return &w.c }

func (w *saturate) boot(p *pass) error {
	c := &w.c
	if err := c.open(fourRegionTopology(), emunet.NewTCPNetwork(nil), p.traced); err != nil {
		return err
	}
	c.origins = []int{1, 3}
	c.key, c.checkSrc = predlib.AllWNodesKey, "MIN($ALLWNODES)"
	c.check = newStreamCheck(p.viol, func(o int, s uint64, b []byte) bool {
		return payloadOK(b, satPayloadLen, p.seed, o, s)
	})
	c.watchDeliveries()
	for _, o := range c.origins {
		if err := c.cl.Node(o).RegisterPredicate(c.key, predlib.AllWNodes()); err != nil {
			return err
		}
	}
	return c.firstAppends(p, satPayloadLen)
}

func (w *saturate) drive(p *pass) *load {
	return runClients(p, w.c.origins, w.client)
}

// client keeps satOutstanding appends in flight and, once full, waits for
// the oldest to be stable under AllWNodes before sending the next.
func (w *saturate) client(p *pass, origin int, ld *load) {
	node := w.c.cl.Node(origin)
	type inflight struct {
		seq   uint64
		start int64
	}
	var ring [satOutstanding]inflight
	head, n := 0, 0
	next := w.c.last[origin].Load() + 1
	buf := make([]byte, satPayloadLen)
	var attempted, failed int64
	complete := func() {
		op := ring[head]
		head = (head + 1) % satOutstanding
		n--
		err := node.WaitFor(p.ctx, op.seq, w.c.key)
		done := nanotime()
		if err != nil {
			failed++
			return
		}
		if p.in(done) {
			p.done(ld, done)
			p.commit.add(done, done-op.start)
		}
		if p.tracer != nil && sampled(origin, op.seq) {
			p.tracer.offer(sampledOp{origin: origin, seq: op.seq, start: op.start, done: done})
		}
	}
	for nanotime() < p.end && p.ctx.Err() == nil {
		if n == satOutstanding {
			complete()
		}
		fillPayload(buf, p.seed, origin, next)
		start := nanotime()
		seq, err := node.Send(buf)
		attempted++
		if err != nil {
			failed++
			break
		}
		if p.traced && p.in(start) {
			ld.send.add(nanotime() - start)
		}
		if seq != next {
			p.viol.addf("origin %d: Send assigned seq %d, want %d", origin, seq, next)
		}
		next = seq + 1
		w.c.last[origin].Store(seq)
		ring[(head+n)%satOutstanding] = inflight{seq: seq, start: start}
		n++
	}
	for n > 0 {
		complete()
	}
	p.attempted.Add(attempted)
	p.failed.Add(failed)
}

// --- lan-quorum ---

type kvLoad struct {
	c   cluster
	kvs map[int]*quorum.KV
}

func (w *kvLoad) base() *cluster { return &w.c }

// kvKeyNames are origin's private keys.
func kvKeyNames(origin int) *[kvKeys]string {
	var keys [kvKeys]string
	for i := range keys {
		keys[i] = fmt.Sprintf("n%d/k%04d", origin, i)
	}
	return &keys
}

func (w *kvLoad) boot(p *pass) error {
	c := &w.c
	topo := config.CloudLabTopology(1)
	if err := c.open(topo, emunet.NewTCPNetwork(nil), p.traced); err != nil {
		return err
	}
	c.origins = []int{1, 4}
	members := topo.AllIndexes()
	keys := map[int]*[kvKeys]string{}
	for _, o := range c.origins {
		keys[o] = kvKeyNames(o)
	}
	c.check = newStreamCheck(p.viol, func(o int, s uint64, b []byte) bool {
		k := keys[o]
		return k != nil && kvPayloadOK(p.seed, o, s, b, k)
	})
	c.watchDeliveries()
	w.kvs = map[int]*quorum.KV{}
	for _, n := range c.cl.Nodes() {
		kv, err := quorum.New(quorum.Config{Node: n, Members: members, Nw: 3, Nr: 3})
		if err != nil {
			return err
		}
		w.kvs[n.Self()] = kv
	}
	// The write predicate's key is the quorum package's own; find it by
	// its source so Stabilize events can be matched to it.
	node1 := c.cl.Node(1)
	c.checkSrc = w.kvs[1].WritePredicate()
	for _, k := range node1.Predicates() {
		if src, _ := node1.PredicateSource(k); src == c.checkSrc {
			c.key = k
		}
	}
	if c.key == "" {
		return errors.New("quorum write predicate not registered")
	}
	// The first append of each origin is a write of that origin's first
	// key, made the way the clients make every write.
	for _, o := range c.origins {
		m := &kvModel{seed: p.seed, origin: o}
		if err := w.write(p, o, m, keys[o], nil); err != nil {
			return fmt.Errorf("origin %d: first write: %w", o, err)
		}
	}
	return nil
}

// write makes the next write of origin's client. Its key and value derive
// from the sequence number it will be assigned (the client is its node's
// only sender), so receivers and readers can check the bytes.
func (w *kvLoad) write(p *pass, origin int, m *kvModel, keys *[kvKeys]string, ld *load) error {
	node := w.c.cl.Node(origin)
	seq := node.NextSeq()
	k := m.writeKey(seq)
	val := make([]byte, kvValueLen)
	fillPayload(val, p.seed, origin, seq)
	start := nanotime()
	ver, err := w.kvs[origin].Write(p.ctx, keys[k], val)
	done := nanotime()
	if err != nil {
		return err
	}
	if ver != seq {
		p.viol.addf("origin %d: write assigned version %d, want %d", origin, ver, seq)
	}
	m.lastVer[k] = ver
	w.c.last[origin].Store(ver)
	if ld != nil && p.in(done) {
		p.done(ld, done)
		p.commit.add(done, done-start)
	}
	if ld != nil && p.tracer != nil && sampled(origin, ver) {
		p.tracer.offer(sampledOp{origin: origin, seq: ver, start: start, done: done})
	}
	return nil
}

func (w *kvLoad) drive(p *pass) *load {
	return runClients(p, w.c.origins, w.client)
}

// client runs one operation at a time: 10 % writes, 90 % reads, over its
// own key space, choosing from a generator seeded by (seed, origin).
func (w *kvLoad) client(p *pass, origin int, ld *load) {
	m := &kvModel{seed: p.seed, origin: origin}
	keys := kvKeyNames(origin)
	// The boot write is this client's too.
	m.lastVer[m.writeKey(1)] = 1
	rng := rand.New(rand.NewSource(int64(opKey(p.seed, origin, 0))))
	kv := w.kvs[origin]
	var attempted, failed int64
	for nanotime() < p.end && p.ctx.Err() == nil {
		attempted++
		if rng.Float64() < kvWriteShare {
			if err := w.write(p, origin, m, keys, ld); err != nil {
				failed++
			}
			continue
		}
		k := rng.Intn(kvKeys)
		start := nanotime()
		val, ver, err := kv.Read(p.ctx, keys[k])
		done := nanotime()
		found := err == nil
		if err != nil && !errors.Is(err, quorum.ErrNotFound) {
			failed++
			continue
		}
		if cerr := m.checkRead(k, found, ver, val); cerr != nil {
			p.viol.addf("origin %d: %v", origin, cerr)
		}
		if p.in(done) {
			p.done(ld, done)
			p.read.add(done, done-start)
		}
	}
	p.attempted.Add(attempted)
	p.failed.Add(failed)
}

// --- wan-stream and wan-partition ---

type wan struct {
	c         cluster
	partition bool
	inj       *faultinject.Injector

	// The generator's schedule: append seq0+i is due at t0 + i*interval.
	seq0 atomic.Uint64
	t0   atomic.Int64

	commit, weak watch
}

func (w *wan) base() *cluster { return &w.c }

// due is when the open-loop generator was to send seq.
func (w *wan) due(seq uint64) int64 {
	return w.t0.Load() + int64(seq-w.seq0.Load())*int64(wanInterval)
}

// watch turns a predicate's frontier callbacks into per-append latencies
// measured from each append's due time.
type watch struct {
	mu         sync.Mutex
	last       uint64
	ld         *load // set when the generator starts; commit watch only
	heals      []heal
	recoveries []float64
}

// heal is one partition heal awaiting recovery: the commit frontier must
// reach target, the last append sent before the heal.
type heal struct {
	at     int64
	target uint64
}

func (w *wan) boot(p *pass) error {
	c := &w.c
	nw := emunet.NewMemNetwork(emunet.EC2Matrix())
	nw.Seed(p.seed)
	if w.partition {
		w.inj = faultinject.New(nil)
		nw.SetConnHook(w.inj.Hook())
	}
	topo := config.EC2Topology(1)
	if err := c.open(topo, nw, p.traced); err != nil {
		return err
	}
	c.origins = []int{wanOrigin}
	c.wholeWindow = w.partition
	c.key, c.checkSrc = predlib.AllWNodesKey, "MIN($ALLWNODES)"
	c.check = newStreamCheck(p.viol, func(o int, s uint64, b []byte) bool {
		return payloadOK(b, wanPayloadLen, p.seed, o, s)
	})
	c.watchDeliveries()
	node := c.cl.Node(wanOrigin)
	if err := node.RegisterPredicates(predlib.TableIII(topo)); err != nil {
		return err
	}
	w.seq0.Store(^uint64(0)) // no append is timed until the generator starts
	if _, err := node.MonitorStabilityFrontier(c.key, func(f uint64) { w.advance(p, &w.commit, f, true) }); err != nil {
		return err
	}
	if _, err := node.MonitorStabilityFrontier(predlib.OneWNodeKey, func(f uint64) { w.advance(p, &w.weak, f, false) }); err != nil {
		return err
	}
	return c.firstAppends(p, wanPayloadLen)
}

// advance records every generated append that frontier f newly covers.
func (w *wan) advance(p *pass, wt *watch, f uint64, commit bool) {
	now := nanotime()
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if f <= wt.last {
		return
	}
	seq0 := w.seq0.Load()
	for s := max(wt.last+1, seq0); s <= f; s++ {
		due := w.due(s)
		if p.in(now) {
			if commit {
				p.done(wt.ld, now)
				p.commit.add(now, now-due)
			} else {
				p.weak.add(now, now-due)
			}
		}
		if commit && p.tracer != nil && sampled(wanOrigin, s) {
			p.tracer.offer(sampledOp{origin: wanOrigin, seq: s, start: due, done: now})
		}
	}
	wt.last = f
	w.noteRecoveries(wt, now)
}

// noteRecoveries completes every pending heal the frontier now covers.
// Caller holds wt.mu.
func (w *wan) noteRecoveries(wt *watch, now int64) {
	kept := wt.heals[:0]
	for _, h := range wt.heals {
		if wt.last >= h.target {
			wt.recoveries = append(wt.recoveries, float64(now-h.at)/1e9)
		} else {
			kept = append(kept, h)
		}
	}
	wt.heals = kept
}

func (w *wan) drive(p *pass) *load {
	var wg sync.WaitGroup
	if w.partition {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.partitions(p)
		}()
	}
	ld := newLoad(p)
	w.commit.mu.Lock()
	w.commit.ld = newLoad(p)
	w.commit.mu.Unlock()
	w.generate(p, ld)
	wg.Wait()
	node := w.c.cl.Node(wanOrigin)
	if err := node.WaitFor(p.ctx, w.c.last[wanOrigin].Load(), w.c.key); err != nil {
		p.failed.Add(1)
	}
	w.commit.mu.Lock()
	ld.completed = w.commit.ld.completed
	ld.recoveries = append([]float64(nil), w.commit.recoveries...)
	if len(w.commit.heals) > 0 {
		p.viol.addf("%d partition heals never recovered", len(w.commit.heals))
	}
	w.commit.mu.Unlock()
	return ld
}

// generate is the open-loop generator: one append every wanInterval from
// boot until the window ends, each timed from when it was due.
func (w *wan) generate(p *pass, ld *load) {
	node := w.c.cl.Node(wanOrigin)
	buf := make([]byte, wanPayloadLen)
	seq := w.c.last[wanOrigin].Load() + 1
	t0 := nanotime()
	w.t0.Store(t0)
	w.seq0.Store(seq)
	var attempted, failed int64
	for i := int64(0); ; i++ {
		due := t0 + i*int64(wanInterval)
		if due >= p.end || p.ctx.Err() != nil {
			break
		}
		if d := due - nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		fillPayload(buf, p.seed, wanOrigin, seq)
		start := nanotime()
		got, err := node.Send(buf)
		attempted++
		if err != nil {
			failed++
			break
		}
		if p.in(start) {
			ld.lag.add(start - due)
			if p.traced {
				ld.send.add(nanotime() - start)
			}
		}
		if got != seq {
			p.viol.addf("origin %d: Send assigned seq %d, want %d", wanOrigin, got, seq)
		}
		w.c.last[wanOrigin].Store(got)
		seq = got + 1
	}
	p.attempted.Add(attempted)
	p.failed.Add(failed)
}

// partitions isolates partVictim for partOutage every partPeriod inside the
// window, at a phase drawn from the seed, for as many cycles as leave
// partTail after the heal.
func (w *wan) partitions(p *pass) {
	rng := rand.New(rand.NewSource(p.seed))
	phase := partOutage/2 + time.Duration(rng.Int63n(int64(partOutage)))
	n := w.c.cl.Topology().N()
	victim := []int{partVictim}
	for cut := p.start + int64(phase); cut+int64(partOutage+partTail) <= p.end; cut += int64(partPeriod) {
		if !sleepUntil(p.ctx, cut) {
			return
		}
		w.inj.Partition(victim, n)
		if !sleepUntil(p.ctx, cut+int64(partOutage)) {
			w.inj.HealPartition(victim, n)
			return
		}
		w.commit.mu.Lock()
		w.commit.heals = append(w.commit.heals, heal{at: nanotime(), target: w.c.last[wanOrigin].Load()})
		w.noteRecoveries(&w.commit, nanotime())
		w.commit.mu.Unlock()
		w.inj.HealPartition(victim, n)
	}
}

// sleepUntil sleeps until the wall-clock instant t (UnixNano); it returns
// false if ctx ends first.
func sleepUntil(ctx context.Context, t int64) bool {
	d := time.Duration(t - nanotime())
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runClients runs one closed-loop client goroutine per origin and merges
// what they measured.
func runClients(p *pass, origins []int, client func(p *pass, origin int, ld *load)) *load {
	loads := make([]*load, len(origins))
	var wg sync.WaitGroup
	for i, o := range origins {
		loads[i] = newLoad(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(p, o, loads[i])
		}()
	}
	wg.Wait()
	return mergeLoads(loads)
}

func mergeLoads(loads []*load) *load {
	out := &load{completed: make([]int64, len(loads[0].completed))}
	for _, l := range loads {
		for i, c := range l.completed {
			out.completed[i] += c
		}
		out.send.merge(&l.send)
		out.lag.merge(&l.lag)
		out.recoveries = append(out.recoveries, l.recoveries...)
	}
	return out
}
