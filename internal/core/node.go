// Package core implements the Stabilizer node: the paper's primary
// contribution. A node glues the aggressive streaming data plane
// (internal/transport) to the asynchronous control plane
// (internal/frontier) and exposes the paper's interfaces (§III-D):
//
//   - Send            — sequence and stream a message to every peer
//   - WaitFor         — one-time stability frontier update trigger
//   - MonitorStabilityFrontier — stability frontier update monitor
//   - RegisterPredicate / ChangePredicate — DSL predicate management
//   - ReportStability — application-defined stability reports
//
// Each node owns one outbound stream (primary-site model: only the owner
// updates its data) and mirrors the streams of every other node. Stability
// reports are monotonic and coalesced, so control traffic never blocks the
// data flow (§III-A control/data separation).
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/config"
	"stabilizer/internal/dsl"
	"stabilizer/internal/emunet"
	"stabilizer/internal/frontier"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/transport"
	"stabilizer/internal/wire"
)

// ReclaimPredicateKey is the reserved predicate used internally to reclaim
// send-buffer space once a message has been received everywhere (§III-B).
const ReclaimPredicateKey = "__stabilizer_reclaim"

// DefaultStabilizeInterval is the recommended control-plane tick for
// deferred stabilization (Config.StabilizeInterval): long enough to batch a
// burst of ACK updates into one dirty-set drain, short enough that frontier
// visibility lags ground truth imperceptibly next to WAN RTTs.
const DefaultStabilizeInterval = time.Millisecond

// Errors returned by Node methods.
var (
	ErrClosed      = errors.New("core: node closed")
	ErrReservedKey = errors.New("core: predicate key is reserved")
)

// Message is one delivered data-plane message.
type Message struct {
	// Origin is the 1-based index of the node that sent the message.
	Origin int
	// Seq is the origin-assigned sequence number.
	Seq uint64
	// Payload is the application data. The slice is owned by the
	// receiver and may be retained.
	Payload []byte
	// SentAt is the origin's send timestamp.
	SentAt time.Time
}

// DeliverFunc is a data-plane upcall. Upcalls for one origin arrive in
// FIFO order; upcalls for different origins may be concurrent.
type DeliverFunc func(m Message)

// AppMessage is an out-of-band application request or response (used by
// the quorum protocol's read path, among others).
type AppMessage struct {
	From       int
	ID         uint64
	Method     uint16
	IsResponse bool
	Payload    []byte
}

// AppFunc handles application messages.
type AppFunc func(m AppMessage)

// Persister, when configured, is invoked after delivery; a nil error makes
// the node report the "persisted" stability level for the message.
type Persister interface {
	Persist(m Message) error
}

// Config parameterizes a Node.
type Config struct {
	// Topology is the WAN deployment; required.
	Topology *config.Topology
	// Network is the fabric the node dials through; required.
	Network emunet.Network
	// HeartbeatEvery and PeerTimeout tune failure detection; zero values
	// pick transport defaults.
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Persister optionally persists delivered messages (see Persister).
	Persister Persister
	// Checkpoint resumes a restarted primary (§III-E); nil starts fresh.
	Checkpoint *Checkpoint
	// DisableAutoReclaim keeps the send buffer forever (useful in tests
	// and ablations). By default the node reclaims buffer space once a
	// message is received everywhere.
	DisableAutoReclaim bool
	// Epoch identifies this process incarnation for reconnect handling.
	Epoch uint64
	// Metrics receives the node's instrumentation (stabilizer_core_*,
	// stabilizer_stability_latency_seconds, and the transport and
	// frontier families). Nil creates a private registry, so metrics are
	// always collected; pass one registry per node — families are
	// node-scoped and would collide if shared.
	Metrics *metrics.Registry
	// Batch tunes the transport's data-plane batching (RTT-adaptive batch
	// byte budgets per link); zero values pick the transport defaults.
	Batch transport.BatchConfig
	// Flow bounds the send log with admission control (byte/entry caps and
	// high/low watermarks); the zero value keeps the log unbounded.
	Flow transport.FlowConfig
	// LogStripes shards send-log appends across that many producer
	// stripes (per-stripe mutex, one shared atomic sequence) so
	// concurrent senders stop contending on a single lock. 0 picks
	// transport.DefaultLogStripes(); 1 keeps the classic single-stripe
	// log. Ordering, flow control, and truncation semantics are
	// identical at every setting.
	LogStripes int
	// Stall configures degraded-mode stall detection and blame attribution
	// (see StallConfig); the zero value disables the monitor.
	Stall StallConfig
	// DialTimeout bounds each transport connect attempt, handshake
	// included; zero picks the transport default (2s).
	DialTimeout time.Duration
	// Trace configures the per-operation lifecycle flight recorder
	// (sampling rate and ring size); the zero value disables tracing and
	// keeps every hot path allocation-free.
	Trace optrace.Config
	// StabilizeInterval defers predicate stabilization onto a periodic
	// control-plane tick: ACK ingestion only marks the affected predicates
	// dirty, and a background drain every StabilizeInterval re-evaluates
	// them, releases waiters and fires monitors. Batching takes frontier
	// evaluation off the append/ACK hot path at the cost of frontier
	// visibility lagging ground truth by at most one interval.
	// DefaultStabilizeInterval (1ms) is a good starting point; the zero
	// value keeps the legacy inline mode (stabilize synchronously on every
	// ACK advance).
	StabilizeInterval time.Duration
	// Adaptive, when set, starts a closed-loop consistency controller at
	// Open: the ladder's strongest rung is registered under Spec.Key and
	// the controller steps it down (and back up) against the stability
	// SLO. Equivalent to calling StartAdaptive right after Open.
	Adaptive *AdaptiveSpec
}

// AdaptiveSpec wires an SLO-driven predicate controller into a node: the
// ladder's rung 0 predicate is registered under Key at Open and an
// adaptive.Controller steps the active predicate down the ladder when the
// stability SLO burns (or the frontier stalls) and back up, with
// hysteresis, when it recovers.
type AdaptiveSpec struct {
	// Key is the predicate key the controller owns.
	Key string
	// Ladder orders the rungs, strongest first (adaptive.NewLadder /
	// adaptive.ParseLadder).
	Ladder adaptive.Ladder
	// Config is the controller tuning (SLO target, windows, hysteresis).
	Config adaptive.Config
}

// Checkpoint captures the durable control-plane state of a node so a
// restarted primary resumes sequence numbering and frontier tracking where
// it left off (§III-E).
type Checkpoint struct {
	// NextSeq is the next sequence number to assign.
	NextSeq uint64 `json:"nextSeq"`
	// SelfAcks is the ACK recorder snapshot for the local origin's
	// stream, keyed by stability-type id.
	SelfAcks map[uint16][]uint64 `json:"selfAcks"`
}

// builtinTypes are the well-known stability rows every table materializes,
// so the completeness rule (UpdateAll) covers them from the first message.
var builtinTypes = [...]uint16{frontier.TypeReceived, frontier.TypePersisted, frontier.TypeDelivered}

// Node is one Stabilizer WAN node.
type Node struct {
	topo     *config.Topology
	types    *frontier.Types
	tables   []*frontier.Table // index origin-1
	registry *frontier.Registry
	log      *transport.SendLog
	tr       *transport.Transport
	env      *topoEnv

	persister Persister

	metrics   *coreMetrics
	sendTimes sendTimes
	stall     *stallState
	trace     *optrace.Recorder // nil when tracing is disabled
	slow      slowOp

	// recv[p] is the open receive batch from origin p (index 0 unused):
	// HandleData records high-water marks in it and FlushData turns them
	// into stability rows and ACKs. Only the transport's receive path for
	// p touches it, under that peer's delivery mutex.
	recv []recvBatch

	// deliverFns is copy-on-write: OnDeliver publishes a fresh slice under
	// mu, so the receive path reads it with one atomic load.
	deliverFns atomic.Pointer[[]DeliverFunc]

	mu            sync.Mutex
	appFns        []AppFunc
	peerDownFns   []peerHook
	peerUpFns     []peerHook
	nextPeerHook  int
	customByName  map[string]uint16
	reclaimCancel func()
	adaptiveCtrls map[string]*adaptive.Controller

	closed atomic.Bool
	nowFn  func() time.Time
}

// Open starts a single Stabilizer node and connects it to its peers. It is
// a thin wrapper over OpenCluster booting exactly Topology.Self; processes
// hosting several WAN nodes should call OpenCluster directly so all of them
// share one node-labeled metrics registry.
func Open(cfg Config) (*Node, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	self := cfg.Topology.Self
	cl, err := OpenCluster(ClusterConfig{
		Topology:           cfg.Topology,
		Network:            cfg.Network,
		Nodes:              []int{self},
		Metrics:            cfg.Metrics,
		HeartbeatEvery:     cfg.HeartbeatEvery,
		PeerTimeout:        cfg.PeerTimeout,
		Batch:              cfg.Batch,
		Flow:               cfg.Flow,
		Stall:              cfg.Stall,
		Trace:              cfg.Trace,
		DialTimeout:        cfg.DialTimeout,
		DisableAutoReclaim: cfg.DisableAutoReclaim,
		StabilizeInterval:  cfg.StabilizeInterval,
		Adaptive:           cfg.Adaptive,
		Configure: func(id int, c *Config) {
			// Per-node state only a single-node caller can supply.
			c.Persister = cfg.Persister
			c.Checkpoint = cfg.Checkpoint
			c.Epoch = cfg.Epoch
		},
	})
	if err != nil {
		return nil, err
	}
	return cl.Node(self), nil
}

// openNode boots one node. cfg.Metrics, when set, is the registry shared by
// the process: openNode derives this node's group view from it, so every
// family the node touches carries a node label.
func openNode(cfg Config) (*Node, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	topo := cfg.Topology.Clone()
	n := topo.N()

	types := frontier.NewTypes()
	tables := make([]*frontier.Table, n)
	for i := range tables {
		tables[i] = frontier.NewTable(n)
	}
	env := &topoEnv{topo: topo, types: types}
	selfTable := tables[topo.Self-1]
	registry := frontier.NewRegistry(env, selfTable)

	firstSeq := uint64(1)
	if cfg.Checkpoint != nil {
		firstSeq = cfg.Checkpoint.NextSeq
		selfTable.Restore(cfg.Checkpoint.SelfAcks)
	}
	stripes := cfg.LogStripes
	if stripes == 0 {
		stripes = transport.DefaultLogStripes()
	}
	flow := cfg.Flow
	if flow.Mode == transport.FlowSpill && flow.SpillDir != "" {
		// Many nodes of one cluster commonly share a Config (and thus a
		// SpillDir); give each its own segment namespace so restarting
		// node i recovers exactly node i's backlog.
		flow.SpillDir = filepath.Join(flow.SpillDir, fmt.Sprintf("node%d", topo.Self))
	}
	log, err := transport.NewSendLogTiered(firstSeq, flow, stripes)
	if err != nil {
		return nil, fmt.Errorf("core: node %d send log: %w", topo.Self, err)
	}

	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}
	// Everything this node instruments — core, frontier, transport, stall
	// families — goes through the node-labeled view, so any number of
	// in-process nodes can share one registry and one scrape.
	mreg = mreg.NodeGroup(strconv.Itoa(topo.Self))

	node := &Node{
		topo:          topo,
		types:         types,
		tables:        tables,
		registry:      registry,
		log:           log,
		env:           env,
		persister:     cfg.Persister,
		metrics:       newCoreMetrics(mreg, log),
		customByName:  make(map[string]uint16),
		adaptiveCtrls: make(map[string]*adaptive.Controller),
		trace:         optrace.New(topo.Self, cfg.Trace),
		recv:          make([]recvBatch, n+1),
		nowFn:         time.Now,
	}
	registry.EnableMetrics(mreg)
	if node.trace != nil {
		node.metrics.initStageMetrics()
	}
	// Turn frontier advances into the headline stability-latency samples:
	// each sequence crossing a predicate's frontier is timed from its Send.
	registry.OnAdvance(func(key string, old, new uint64) {
		// Stabilize is a cumulative watermark, recorded for every
		// predicate (the reclaim pseudo-predicate included) whenever the
		// recorder is live — coalesced control-plane rate, not data rate.
		if rec := node.trace; rec != nil {
			rec.Record(optrace.StageStabilize, node.topo.Self, new, 0,
				rec.Label(key), node.nowFn().UnixNano())
		}
		if key == ReclaimPredicateKey {
			node.metrics.reclaimSeq.Set(int64(new))
			return
		}
		h := node.metrics.stabLatency.With(key)
		now := node.nowFn().UnixNano()
		node.sendTimes.observeRange(old, new, now, func(seq uint64, lat int64) {
			h.Observe(lat)
			if node.trace.Sampled(node.topo.Self, seq) {
				node.slow.update(seq, lat, key)
			}
		})
	})
	// Materialize the well-known stability rows so the completeness rule
	// (UpdateAll on Send) covers them from the first message.
	head := log.Head()
	for _, typ := range builtinTypes {
		selfTable.EnsureType(typ, topo.Self, head)
	}

	tcfg := transport.Config{
		Self:           topo.Self,
		N:              n,
		Network:        cfg.Network,
		Handler:        (*trHandler)(node),
		Log:            log,
		HeartbeatEvery: cfg.HeartbeatEvery,
		PeerTimeout:    cfg.PeerTimeout,
		Epoch:          cfg.Epoch,
		Metrics:        mreg,
		Batch:          cfg.Batch,
		DialTimeout:    cfg.DialTimeout,
		Trace:          node.trace,
	}
	self := topo.Nodes[topo.Self-1]
	tcfg.TopoTags.AZ, tcfg.TopoTags.Region = self.AZ, self.Region
	tcfg.PeerTags = make(map[int]transport.TopoTag, n)
	for i, tn := range topo.Nodes {
		tcfg.PeerTags[i+1] = transport.TopoTag{AZ: tn.AZ, Region: tn.Region}
	}
	tr, err := transport.New(tcfg)
	if err != nil {
		return nil, err
	}
	node.tr = tr
	node.initStallState(cfg.Stall, mreg)

	if !cfg.DisableAutoReclaim && n > 1 {
		if err := registry.Register(ReclaimPredicateKey, "MIN($ALLWNODES)"); err != nil {
			return nil, fmt.Errorf("core: install reclaim predicate: %w", err)
		}
		cancel, err := registry.Monitor(ReclaimPredicateKey, func(f uint64) {
			log.TruncateThrough(f)
		})
		if err != nil {
			return nil, fmt.Errorf("core: monitor reclaim predicate: %w", err)
		}
		node.reclaimCancel = cancel
	}

	// Deferred mode starts after every predicate install above so the first
	// tick sees a fully indexed registry; with the zero interval this is a
	// no-op and stabilization stays inline.
	registry.StartDeferred(cfg.StabilizeInterval)

	if err := tr.Start(); err != nil {
		registry.Close()
		return nil, err
	}
	if cfg.Adaptive != nil {
		if _, err := node.StartAdaptive(cfg.Adaptive.Key, cfg.Adaptive.Ladder, cfg.Adaptive.Config); err != nil {
			node.Close()
			return nil, fmt.Errorf("core: start adaptive controller: %w", err)
		}
	}
	return node, nil
}

// Close shuts the node down.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	// Stop the adaptive controllers first: they drive ChangePredicate into
	// the registry this teardown is about to close.
	n.mu.Lock()
	ctrls := make([]*adaptive.Controller, 0, len(n.adaptiveCtrls))
	for _, c := range n.adaptiveCtrls {
		ctrls = append(ctrls, c)
	}
	n.mu.Unlock()
	for _, c := range ctrls {
		c.Close()
	}
	n.stopStallMonitor()
	if n.reclaimCancel != nil {
		n.reclaimCancel()
	}
	// Stop the deferred stabilization tick (final drain included) before
	// tearing down the log it may still truncate through the reclaim
	// monitor.
	n.registry.Close()
	n.log.Close()
	return n.tr.Close()
}

// Self returns the local node's 1-based index.
func (n *Node) Self() int { return n.topo.Self }

// Topology returns a copy of the node's topology.
func (n *Node) Topology() *config.Topology { return n.topo.Clone() }

// --- data plane ---

// Send assigns the next sequence number to payload and streams it to every
// peer asynchronously. It returns as soon as the message is buffered: the
// semantics of a bare Send is local stability only — callers wanting a
// stronger guarantee follow up with WaitFor on a predicate matching their
// consistency model (paper §V-A).
//
// The payload is copied; callers may reuse the slice.
func (n *Node) Send(payload []byte) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return n.sendOwned(buf)
}

// SendNoCopy is Send without the defensive copy, for callers that promise
// not to mutate payload afterwards (bulk paths such as file backup).
func (n *Node) SendNoCopy(payload []byte) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	return n.sendOwned(payload)
}

// SendCtx is Send with cancellation: when Config.Flow blocks the append at
// the send-log cap, a done ctx aborts the wait with ctx.Err(). In fail-fast
// mode it returns transport.ErrBackpressure immediately instead.
func (n *Node) SendCtx(ctx context.Context, payload []byte) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return n.sendOwnedCtx(ctx, buf)
}

// SendNoCopyCtx combines SendNoCopy and SendCtx: no defensive copy, and a
// done ctx aborts a backpressure-blocked append with ctx.Err().
func (n *Node) SendNoCopyCtx(ctx context.Context, payload []byte) (uint64, error) {
	if n.closed.Load() {
		return 0, ErrClosed
	}
	return n.sendOwnedCtx(ctx, payload)
}

func (n *Node) sendOwned(payload []byte) (uint64, error) {
	return n.sendOwnedCtx(nil, payload)
}

func (n *Node) sendOwnedCtx(ctx context.Context, payload []byte) (uint64, error) {
	sentAt := n.nowFn().UnixNano()
	seq, err := n.log.AppendCtx(ctx, payload, sentAt)
	if err != nil {
		if errors.Is(err, transport.ErrLogClosed) {
			return 0, ErrClosed
		}
		// ErrBackpressure (fail-fast mode) and context errors (cancelled
		// blocking append) pass through so callers can shed or retry.
		return 0, err
	}
	n.sendTimes.record(seq, sentAt)
	if rec := n.trace; rec != nil && rec.Sampled(n.topo.Self, seq) {
		rec.Record(optrace.StageAppend, n.topo.Self, seq, 0, 0, sentAt)
	}
	n.metrics.sends.Inc()
	n.metrics.sendBytes.Add(int64(len(payload)))
	// Completeness rule (§III-C): every stability property holds at the
	// originating node the moment the message exists.
	advanced := n.selfTable().UpdateAll(n.topo.Self, seq)
	n.tr.NotifyData()
	if advanced {
		n.registry.NoteNodeUpdate(n.topo.Self)
	}
	return seq, nil
}

// OnDeliver registers a data-plane upcall for messages from remote origins.
func (n *Node) OnDeliver(fn DeliverFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var fns []DeliverFunc
	if p := n.deliverFns.Load(); p != nil {
		fns = *p
	}
	fns = append(fns[:len(fns):len(fns)], fn) // always a fresh array
	n.deliverFns.Store(&fns)
}

// OnApp registers a handler for out-of-band application messages.
func (n *Node) OnApp(fn AppFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.appFns = append(n.appFns, fn)
}

// peerHook is one OnPeerDown/OnPeerUp registration; the id makes it
// detachable via the returned cancel.
type peerHook struct {
	id int
	fn func(peer int)
}

// detachPeerHook removes the hook with the given id from *list (which is
// either peerDownFns or peerUpFns). Caller must NOT hold n.mu.
func (n *Node) detachPeerHook(list *[]peerHook, id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hooks := (*list)[:0]
	for _, h := range *list {
		if h.id != id {
			hooks = append(hooks, h)
		}
	}
	*list = hooks
}

// OnPeerDown registers a callback fired when a peer is suspected failed.
// The paper's recovery recipe (§III-E): the application inspects which
// predicates depend on the dead node (PredicateDependsOn) and adjusts them
// with ChangePredicate. The returned cancel detaches the callback
// (idempotent); a nil fn is ignored and gets a no-op cancel.
func (n *Node) OnPeerDown(fn func(peer int)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	n.mu.Lock()
	id := n.nextPeerHook
	n.nextPeerHook++
	n.peerDownFns = append(n.peerDownFns, peerHook{id: id, fn: fn})
	n.mu.Unlock()
	return func() { n.detachPeerHook(&n.peerDownFns, id) }
}

// OnPeerUp registers a callback fired when a peer is (re)heard from. The
// returned cancel detaches it, mirroring OnPeerDown.
func (n *Node) OnPeerUp(fn func(peer int)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	n.mu.Lock()
	id := n.nextPeerHook
	n.nextPeerHook++
	n.peerUpFns = append(n.peerUpFns, peerHook{id: id, fn: fn})
	n.mu.Unlock()
	return func() { n.detachPeerHook(&n.peerUpFns, id) }
}

// SendApp sends an out-of-band application message to one peer.
func (n *Node) SendApp(to int, id uint64, method uint16, isResponse bool, payload []byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return n.tr.SendApp(to, &wire.App{
		ID:         id,
		Method:     method,
		IsResponse: isResponse,
		From:       uint16(n.topo.Self),
		Payload:    buf,
	})
}

// --- control plane ---

// RegisterStabilityType registers an application-defined stability level
// ("verified", "countersigned", ...) usable as a '.suffix' in predicates
// and with ReportStability.
func (n *Node) RegisterStabilityType(name string) error {
	id, err := n.types.Register(name)
	if err != nil {
		return err
	}
	// Completeness: the local origin trivially satisfies the new level
	// for everything it has sent so far.
	n.selfTable().EnsureType(id, n.topo.Self, n.log.Head())
	n.mu.Lock()
	n.customByName[name] = id
	n.mu.Unlock()
	return nil
}

// ReportStability records that this node has reached the named stability
// level for origin's messages up to seq, and broadcasts the (monotonic)
// report to every peer.
func (n *Node) ReportStability(origin int, typeName string, seq uint64) error {
	if n.closed.Load() {
		return ErrClosed
	}
	typ, err := n.types.Lookup(typeName)
	if err != nil {
		return err
	}
	if origin < 1 || origin > n.topo.N() {
		return fmt.Errorf("core: origin %d out of range", origin)
	}
	advanced := n.tables[origin-1].Update(n.topo.Self, typ, seq)
	n.tr.QueueAck(wire.Ack{
		Origin: uint16(origin),
		By:     uint16(n.topo.Self),
		Type:   typ,
		Seq:    seq,
	})
	if advanced && origin == n.topo.Self {
		n.registry.NoteCellUpdate(n.topo.Self, typ)
	}
	return nil
}

// RegisterPredicate compiles a DSL predicate and installs it under key
// (paper register_predicate). The predicate evaluates the stability of the
// local node's outbound stream.
func (n *Node) RegisterPredicate(key, source string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Register(key, source)
}

// RegisterPredicates installs a batch of predicates atomically: every
// source must compile and every key must be new (and none reserved), or
// nothing is registered at all. Keys are validated in sorted order, so the
// first error reported is deterministic regardless of map iteration.
func (n *Node) RegisterPredicates(preds map[string]string) error {
	if _, ok := preds[ReclaimPredicateKey]; ok {
		return fmt.Errorf("%w: %q", ErrReservedKey, ReclaimPredicateKey)
	}
	return n.registry.RegisterBatch(preds)
}

// ChangePredicate swaps the predicate under key at runtime (paper
// change_predicate, exercised by the dynamic reconfiguration experiment).
func (n *Node) ChangePredicate(key, source string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Change(key, source)
}

// ChangeReclaimPredicate swaps the reserved reclaim predicate at runtime —
// the degraded-mode escape hatch: when a stalled peer pins the reclaim
// frontier and admission control has capped the send log, falling back to a
// weaker predicate (e.g. a majority KTH_MIN) lets reclaim advance and
// appends resume. Caveat: entries truncated under the weaker rule are gone
// from the retransmission buffer, so a peer excluded by the fallback that
// later heals will observe a gap in this node's stream and must recover out
// of band (snapshot/state transfer). Returns an error when auto-reclaim is
// disabled (no reclaim predicate is registered).
func (n *Node) ChangeReclaimPredicate(source string) error {
	if n.closed.Load() {
		return ErrClosed
	}
	return n.registry.Change(ReclaimPredicateKey, source)
}

// RemovePredicate deletes the predicate under key.
func (n *Node) RemovePredicate(key string) error {
	if key == ReclaimPredicateKey {
		return fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	return n.registry.Remove(key)
}

// Predicates lists the application-registered predicate keys.
func (n *Node) Predicates() []string {
	keys := n.registry.Keys()
	out := keys[:0]
	for _, k := range keys {
		if k != ReclaimPredicateKey {
			out = append(out, k)
		}
	}
	return out
}

// PredicateSource returns the DSL source registered under key.
func (n *Node) PredicateSource(key string) (string, error) {
	return n.registry.Source(key)
}

// PredicateDependsOn lists the WAN nodes the predicate under key reads.
func (n *Node) PredicateDependsOn(key string) ([]int, error) {
	return n.registry.DependsOn(key)
}

// WaitFor blocks until the stability frontier of the named predicate
// reaches seq (paper waitfor).
func (n *Node) WaitFor(ctx context.Context, seq uint64, key string) error {
	return n.registry.WaitFor(ctx, seq, key)
}

// MonitorStabilityFrontier registers fn to run with the newest frontier
// each time the named predicate advances (paper
// monitor_stability_frontier). Intermediate values may be skipped; an
// upcall with sequence s implies the stability of every message ≤ s.
func (n *Node) MonitorStabilityFrontier(key string, fn func(seq uint64)) (cancel func(), err error) {
	return n.registry.Monitor(key, frontier.MonitorFunc(fn))
}

// StabilityFrontier returns the last computed frontier of the named
// predicate (paper get_stability_frontier).
func (n *Node) StabilityFrontier(key string) (uint64, error) {
	return n.registry.Frontier(key)
}

// OnFrontierAdvance registers fn to run after any registered predicate's
// frontier advances, with the predicate key and the old and new frontiers.
// Unlike MonitorStabilityFrontier it covers every predicate (the reserved
// reclaim predicate included) and reports the previous value, which is what
// invariant checkers need to assert monotonicity. Hooks accumulate until
// their returned cancel detaches them, and are safe to add on a live node;
// fn runs on the control-plane recompute path, so keep it short. After
// cancel returns fn is never called again; do not call cancel from inside
// fn. A nil fn is ignored and gets a no-op cancel.
func (n *Node) OnFrontierAdvance(fn func(key string, old, new uint64)) (cancel func()) {
	return n.registry.OnAdvance(fn)
}

// StartAdaptive registers the ladder's strongest rung under key and starts
// a closed-loop controller that steps the active predicate down the ladder
// when the stability SLO burns (or the frontier stalls) and back up, with
// hysteresis, when it recovers. Every rung is validated through the real
// DSL compile path up front, so a broken rung fails here instead of
// mid-incident. If key is already registered, the existing predicate is
// swapped to rung 0. One controller per key; the controller stops at node
// Close (or its own Close), leaving the last installed rung in place.
func (n *Node) StartAdaptive(key string, ladder adaptive.Ladder, cfg adaptive.Config) (*adaptive.Controller, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if key == ReclaimPredicateKey {
		return nil, fmt.Errorf("%w: %q", ErrReservedKey, key)
	}
	if ladder.Len() < 2 {
		return nil, errors.New("core: adaptive ladder is empty or unvalidated; build it with adaptive.NewLadder")
	}
	for _, r := range ladder.Rungs() {
		if _, err := dsl.Compile(r.Source, n.env); err != nil {
			return nil, fmt.Errorf("core: adaptive rung %q: %w", r.Name, err)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.adaptiveCtrls[key]; dup {
		return nil, fmt.Errorf("core: adaptive controller already running for %q", key)
	}
	if n.registry.Has(key) {
		if err := n.registry.Change(key, ladder.Rung(0).Source); err != nil {
			return nil, err
		}
	} else if err := n.registry.Register(key, ladder.Rung(0).Source); err != nil {
		return nil, err
	}
	ctrl, err := adaptive.Start(n, key, ladder, cfg, n.metrics.reg)
	if err != nil {
		return nil, err
	}
	// Swap events go into the flight recorder as stabilize-stage events
	// labeled adaptive:<direction>:<rung>, so a trace of an incident shows
	// when the guarantee changed relative to the op stream around it.
	if rec := n.trace; rec != nil {
		ctrl.OnTransition(func(tr adaptive.Transition) {
			f, _ := n.registry.Frontier(key)
			label := rec.Label("adaptive:" + string(tr.Direction) + ":" + tr.ToRung.Name)
			rec.Record(optrace.StageStabilize, n.topo.Self, f, tr.To, label, n.nowFn().UnixNano())
		})
	}
	n.adaptiveCtrls[key] = ctrl
	return ctrl, nil
}

// AdaptiveController returns the running controller for key, or nil when
// none was started.
func (n *Node) AdaptiveController(key string) *adaptive.Controller {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.adaptiveCtrls[key]
}

// AdaptiveControllers returns every running adaptive controller, sorted by
// predicate key.
func (n *Node) AdaptiveControllers() []*adaptive.Controller {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*adaptive.Controller, 0, len(n.adaptiveCtrls))
	for _, c := range n.adaptiveCtrls {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// RecvLast returns the highest contiguous data sequence received from peer
// over this node's lifetime (volatile: a restarted node starts from 0).
func (n *Node) RecvLast(peer int) uint64 { return n.tr.RecvLast(peer) }

// Eval compiles source against this node's topology and evaluates it once
// against the local origin's ACK recorder, without registering anything.
func (n *Node) Eval(source string) (uint64, error) {
	return n.EvalFor(n.topo.Self, source)
}

// EvalFor evaluates a predicate over another origin's stream: because
// every node receives every node's stability reports, each WAN site can
// independently evaluate the same predicate about the same stream, and
// "all WAN nodes reach the same conclusions eventually" (§III-A). The
// predicate is compiled ad hoc; registered predicates always concern the
// local origin's stream.
func (n *Node) EvalFor(origin int, source string) (uint64, error) {
	if origin < 1 || origin > n.topo.N() {
		return 0, fmt.Errorf("core: origin %d out of range", origin)
	}
	prog, err := dsl.Compile(source, n.env)
	if err != nil {
		return 0, err
	}
	return n.tables[origin-1].EvalLocked(prog), nil
}

// AckValue reads one recorder cell: the highest sequence of origin's
// stream that node has acknowledged at the named stability level.
func (n *Node) AckValue(origin, node int, typeName string) (uint64, error) {
	typ, err := n.types.Lookup(typeName)
	if err != nil {
		return 0, err
	}
	if origin < 1 || origin > n.topo.N() {
		return 0, fmt.Errorf("core: origin %d out of range", origin)
	}
	return n.tables[origin-1].Value(node, typ), nil
}

// Checkpoint exports the control-plane state needed to restart the node as
// the same primary (§III-E).
func (n *Node) Checkpoint() *Checkpoint {
	return &Checkpoint{
		NextSeq:  n.log.NextSeq(),
		SelfAcks: n.selfTable().Snapshot(),
	}
}

// NextSeq returns the sequence number the next Send will be assigned.
func (n *Node) NextSeq() uint64 { return n.log.NextSeq() }

// BufferedBytes reports the bytes currently held in the send buffer —
// memory plus any on-disk spill tier (the total retransmission backlog).
func (n *Node) BufferedBytes() int64 { return n.log.Bytes() }

// MemoryBufferedBytes reports only the in-memory portion of the send
// buffer. Under FlowSpill this is the number the memory cap bounds, while
// BufferedBytes keeps growing with the disk tier.
func (n *Node) MemoryBufferedBytes() int64 { return n.log.MemoryBytes() }

// SpilledBytes reports the bytes parked in the send log's on-disk spill
// tier (0 unless FlowSpill is configured).
func (n *Node) SpilledBytes() int64 { return n.log.SpilledBytes() }

// SpillReadbackBytes reports the cumulative bytes the send log has served
// to peers from its spill tier (0 unless FlowSpill is configured).
func (n *Node) SpillReadbackBytes() int64 { return n.log.SpillReadbackBytes() }

// BytesSent reports total frame bytes written to peers.
func (n *Node) BytesSent() int64 { return n.tr.BytesSent() }

// Stats is a point-in-time snapshot of a node's data- and control-plane
// state, for dashboards and debugging. It is a cheap view over the same
// counters the metrics registry exposes.
type Stats struct {
	// Self is the local node index; N the cluster size.
	Self, N int
	// NextSeq is the next outbound sequence number.
	NextSeq uint64
	// BufferedBytes/BufferedMessages describe the retransmission buffer.
	BufferedBytes    int64
	BufferedMessages int
	// Sends counts messages sequenced locally; Deliveries counts
	// remote-origin messages handed to the application.
	Sends      int64
	Deliveries int64
	// BytesSent/BytesRecv count all frame bytes written to / read from
	// peers; DataFramesSent/DataFramesRecv count data frames
	// (retransmissions and duplicates included).
	BytesSent      int64
	BytesRecv      int64
	DataFramesSent int64
	DataFramesRecv int64
	// ResentFrames counts data frames rewritten after reconnects;
	// Reconnects counts successful re-dials; FailureDetectorTrips counts
	// peers declared suspect.
	ResentFrames         int64
	Reconnects           int64
	FailureDetectorTrips int64
	// RecvLast is the highest contiguous data sequence received per peer.
	RecvLast map[int]uint64
	// Waiters is the number of WaitFor callers currently blocked.
	Waiters int
	// Predicates maps each registered predicate to its current frontier.
	Predicates map[string]uint64
}

// Stats captures a snapshot of the node's state.
func (n *Node) Stats() Stats {
	s := Stats{
		Self:                 n.topo.Self,
		N:                    n.topo.N(),
		NextSeq:              n.log.NextSeq(),
		BufferedBytes:        n.log.Bytes(),
		BufferedMessages:     n.log.Len(),
		Sends:                n.metrics.sends.Value(),
		Deliveries:           n.metrics.deliveries.Value(),
		BytesSent:            n.tr.BytesSent(),
		BytesRecv:            n.tr.BytesRecv(),
		DataFramesSent:       n.tr.DataSent(),
		DataFramesRecv:       n.tr.DataRecv(),
		ResentFrames:         n.tr.Resent(),
		Reconnects:           n.tr.Reconnects(),
		FailureDetectorTrips: n.tr.FailureDetectorTrips(),
		RecvLast:             n.tr.RecvLastAll(),
		Waiters:              n.registry.WaiterCount(),
		Predicates:           make(map[string]uint64),
	}
	for _, key := range n.Predicates() {
		if f, err := n.registry.Frontier(key); err == nil {
			s.Predicates[key] = f
		}
	}
	return s
}

func (n *Node) selfTable() *frontier.Table { return n.tables[n.topo.Self-1] }

// --- transport handler ---

// trHandler adapts Node to transport.Handler without exporting the
// callback methods on Node itself.
type trHandler Node

var _ transport.Handler = (*trHandler)(nil)

// recvBatch is one origin's open receive batch: the clock read at its
// first frame and the high-water marks of its deliveries. delivered == 0
// means no batch is open.
type recvBatch struct {
	start     int64  // Unix nanoseconds at the batch's first frame
	delivered uint64 // highest sequence whose upcalls ran
	persisted uint64 // highest sequence the persister accepted
}

// HandleData implements transport.Handler: deliver one message and record
// its high-water marks. The stability rows and ACKs they imply are
// monotone watermarks, so FlushData reports them once for the batch.
func (h *trHandler) HandleData(from int, d *wire.Data) {
	n := (*Node)(h)
	b := &n.recv[from]
	if b.delivered == 0 {
		b.start = n.nowFn().UnixNano()
	}
	m := Message{
		Origin:  from,
		Seq:     d.Seq,
		Payload: d.Payload,
		SentAt:  time.Unix(0, d.SentUnixNano),
	}
	n.metrics.deliveries.Inc()
	n.metrics.deliveryLag.Observe(b.start - d.SentUnixNano)
	traced := n.trace != nil && n.trace.Sampled(from, d.Seq)
	var handleStart int64
	if traced {
		handleStart = n.nowFn().UnixNano()
	}
	if fns := n.deliverFns.Load(); fns != nil {
		for _, fn := range *fns {
			fn(m)
		}
	}
	if traced {
		// Deliver is stamped after the upcalls and before the batch's
		// flush advances the delivered row, so a trace can never show
		// stabilization racing ahead of the delivery it depends on.
		done := n.nowFn().UnixNano()
		n.trace.Record(optrace.StageDeliver, from, d.Seq, 0, 0, done)
		n.metrics.stageDeliver.Observe(done - handleStart)
	}
	b.delivered = d.Seq
	if n.persister != nil && n.persister.Persist(m) == nil {
		b.persisted = d.Seq
	}
}

// FlushData implements transport.Handler: report the batch's high-water
// marks. "received" is reported here too, after the batch's upcalls, so
// every report trails the truth and none runs ahead of it.
func (h *trHandler) FlushData(from int) {
	n := (*Node)(h)
	b := &n.recv[from]
	if b.delivered == 0 {
		return // flushed already by a sibling connection from the same peer
	}
	hi, persisted := b.delivered, b.persisted
	*b = recvBatch{}
	// Completeness rule (§III-C), applied remotely: learning of message
	// hi implies the ORIGIN trivially holds every stability property for
	// it, so the origin's own row advances in our recorder too — this is
	// what lets every WAN node evaluate predicates about any origin's
	// stream and reach the same conclusions.
	t := n.tables[from-1]
	for _, typ := range builtinTypes {
		t.EnsureType(typ, from, hi)
	}
	t.UpdateAll(from, hi)
	n.reportReceive(t, from, frontier.TypeReceived, hi)
	n.reportReceive(t, from, frontier.TypeDelivered, hi)
	if persisted > 0 {
		n.reportReceive(t, from, frontier.TypePersisted, persisted)
	}
}

// reportReceive records and broadcasts this node's stability level typ for
// origin's stream up to seq.
func (n *Node) reportReceive(t *frontier.Table, origin int, typ uint16, seq uint64) {
	t.Update(n.topo.Self, typ, seq)
	n.tr.QueueAck(wire.Ack{Origin: uint16(origin), By: uint16(n.topo.Self), Type: typ, Seq: seq})
}

// HandleAck implements transport.Handler.
func (h *trHandler) HandleAck(a *wire.Ack) {
	n := (*Node)(h)
	origin := int(a.Origin)
	if origin < 1 || origin > n.topo.N() {
		return
	}
	if rec := n.trace; rec != nil {
		// Recorded before the table update so the ack's timestamp always
		// precedes any Stabilize it enables. Acks are coalesced monotone
		// watermarks, so this runs at control-plane rate.
		now := n.nowFn().UnixNano()
		rec.Record(optrace.StageAck, origin, a.Seq, int(a.By), rec.Label(n.types.Name(a.Type)), now)
		if origin == n.topo.Self && rec.Sampled(origin, a.Seq) {
			if sentAt, ok := n.sendTimes.lookup(a.Seq); ok {
				n.metrics.stageAckReturn.Observe(now - sentAt)
			}
		}
	}
	advanced := n.tables[origin-1].Update(int(a.By), a.Type, a.Seq)
	if advanced && origin == n.topo.Self {
		n.registry.NoteCellUpdate(int(a.By), a.Type)
	}
}

// HandleApp implements transport.Handler.
func (h *trHandler) HandleApp(from int, a *wire.App) {
	n := (*Node)(h)
	n.mu.Lock()
	fns := make([]AppFunc, len(n.appFns))
	copy(fns, n.appFns)
	n.mu.Unlock()
	m := AppMessage{
		From:       from,
		ID:         a.ID,
		Method:     a.Method,
		IsResponse: a.IsResponse,
		Payload:    a.Payload,
	}
	for _, fn := range fns {
		fn(m)
	}
}

// PeerUp implements transport.Handler.
func (h *trHandler) PeerUp(peer int) {
	n := (*Node)(h)
	n.mu.Lock()
	fns := make([]peerHook, len(n.peerUpFns))
	copy(fns, n.peerUpFns)
	n.mu.Unlock()
	for _, hk := range fns {
		hk.fn(peer)
	}
}

// PeerDown implements transport.Handler.
func (h *trHandler) PeerDown(peer int) {
	n := (*Node)(h)
	n.mu.Lock()
	fns := make([]peerHook, len(n.peerDownFns))
	copy(fns, n.peerDownFns)
	n.mu.Unlock()
	for _, hk := range fns {
		hk.fn(peer)
	}
}

// NewDSLEnv builds a dsl.Env from a topology and a stability-type
// registry, for tooling (predcheck, benchmarks) that compiles predicates
// without running a node.
func NewDSLEnv(topo *config.Topology, types *frontier.Types) dsl.Env {
	return &topoEnv{topo: topo, types: types}
}

// --- DSL environment ---

// topoEnv adapts (Topology, Types) to dsl.Env.
type topoEnv struct {
	topo  *config.Topology
	types *frontier.Types
}

var _ dsl.Env = (*topoEnv)(nil)

func (e *topoEnv) N() int           { return e.topo.N() }
func (e *topoEnv) MyNode() int      { return e.topo.Self }
func (e *topoEnv) AllNodes() []int  { return e.topo.AllIndexes() }
func (e *topoEnv) MyAZNodes() []int { return e.topo.MyAZIndexes() }

func (e *topoEnv) AZNodes(name string) ([]int, error) { return e.topo.AZIndexes(name) }

func (e *topoEnv) NodeIndex(name string) (int, error) { return e.topo.IndexOf(name) }

func (e *topoEnv) StabilityType(name string) (uint16, error) { return e.types.Lookup(name) }
