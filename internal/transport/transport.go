package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stabilizer/internal/emunet"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
	"stabilizer/internal/wire"
)

// Handler receives transport events. Callbacks run on transport goroutines:
// data and app callbacks are invoked in FIFO order per peer; implementations
// must be safe for concurrent calls from different peers.
//
// Data arrives in batches: the transport calls HandleData once per fresh
// frame and then FlushData once for the run, so per-message work stays on
// HandleData while monotone bookkeeping (stability rows, ACKs) is paid once
// per batch. A batch is the frames decoded from one peer since the last
// flush; it ends before the reader would block on the network, after
// 64 frames, and when the connection ends.
type Handler interface {
	// HandleData delivers one sequenced data message originated by peer
	// from. Duplicates are filtered by the transport; sequence numbers
	// are strictly increasing per peer. The Data struct is transport-owned
	// scratch valid only for the duration of the call — retain d.Payload
	// (which is freshly allocated per frame) rather than d itself.
	HandleData(from int, d *wire.Data)
	// FlushData ends the batch of HandleData calls for peer from,
	// serialized with HandleData for the same peer. A connection flushes
	// only after delivering at least one frame, but while a superseded
	// connection drains beside its replacement a flush can find its frames
	// already flushed by the other; it must then be a no-op.
	FlushData(from int)
	// HandleAck delivers one monotonic stability report. Like Data, the
	// struct is only valid during the call.
	HandleAck(a *wire.Ack)
	// HandleApp delivers an application request/response message.
	HandleApp(from int, a *wire.App)
	// PeerUp fires when a peer is first heard from, or heard again after
	// a failure.
	PeerUp(peer int)
	// PeerDown fires when a peer has been silent past the failure
	// timeout.
	PeerDown(peer int)
}

// recvBatchFrames caps how many data frames one receive batch holds: a
// long buffered run is flushed every recvBatchFrames frames, so the ACKs for
// its head do not wait for its tail to be decoded and delivered.
const recvBatchFrames = 64

// Config parameterizes a Transport.
type Config struct {
	// Self is the local node's 1-based index.
	Self int
	// N is the number of WAN nodes.
	N int
	// Network is the fabric to dial and listen through.
	Network emunet.Network
	// Handler receives events. Required.
	Handler Handler
	// Log is the shared send log feeding every outgoing link. Required.
	Log *SendLog
	// HeartbeatEvery is the idle heartbeat period (default 500ms).
	HeartbeatEvery time.Duration
	// PeerTimeout is the silence threshold for failure detection
	// (default 4×HeartbeatEvery).
	PeerTimeout time.Duration
	// Epoch identifies this process incarnation.
	Epoch uint64
	// Metrics receives the transport's instrumentation families
	// (stabilizer_transport_*). Nil uses a private registry so the
	// counters still exist for Stats-style snapshots.
	Metrics *metrics.Registry
	// Batch tunes the data-plane batch writer; zero values pick defaults.
	Batch BatchConfig
	// DialTimeout bounds each connect attempt, handshake included, so a
	// black-holed peer cannot hang a link's run loop (default 2s).
	DialTimeout time.Duration
	// TopoTags optionally labels the node-level sendlog/backpressure
	// families with the local availability zone and region so registries
	// aggregating many nodes can roll them up (empty strings omit no
	// labels — the families always carry az/region, possibly blank).
	TopoTags TopoTag
	// PeerTags optionally maps peer index → that peer's zone, enabling
	// the per-{az,region} rollups of the byte/frame families
	// (stabilizer_transport_zone_*). Missing peers roll up under blank
	// labels.
	PeerTags map[int]TopoTag
	// Trace, when non-nil, is the node's lifecycle flight recorder: the
	// transport records BatchEnqueue/WireSend on the outgoing links and
	// WireRecv on accepted connections for sampled operations, and feeds
	// the stabilizer_stage_seconds batch_queue/wire_send/flight segments.
	// Nil keeps every hot path branch-predictable and allocation-free.
	Trace *optrace.Recorder
}

// TopoTag places a node in the WAN topology: its availability zone and
// region.
type TopoTag struct {
	AZ     string
	Region string
}

// BatchConfig tunes how each outgoing link batches data frames. The batch
// byte budget adapts to the link's observed heartbeat RTT,
// bandwidth-delay-product style: budget = RTT × BandwidthBps/8, clamped to
// [MinBytes, MaxBytes], so slow WAN links drain bigger runs per lock
// acquisition and write while fast LAN links stay latency-friendly.
type BatchConfig struct {
	// MaxFrames caps the data frames drained per batch, bounding how long
	// the control outbox (ACKs, heartbeats) waits behind bulk data
	// (default 256).
	MaxFrames int
	// MinBytes is the batch byte budget before any RTT sample exists and
	// the floor thereafter (default 16 KiB).
	MinBytes int
	// MaxBytes caps the adaptive budget (default 1 MiB).
	MaxBytes int
	// BandwidthBps is the assumed per-link bandwidth in bits per second
	// used in the budget rule (default 100 Mbit/s).
	BandwidthBps float64
	// WritevMinBytes is the smallest batch payload handed to the kernel
	// as one vectored write (writev) on TCP connections, with per-entry
	// frame headers and payloads as separate iovecs so payload bytes are
	// never copied. Smaller batches go through the copying buffered
	// writer, which coalesces consecutive little batches into one wire
	// write. 0 picks the 8 KiB default; negative disables vectored writes
	// entirely. Non-TCP connections (in-memory fabrics, fault-injection
	// wrappers) always use the buffered path.
	WritevMinBytes int
}

func (b BatchConfig) normalized() BatchConfig {
	if b.MaxFrames <= 0 {
		b.MaxFrames = 256
	}
	if b.MinBytes <= 0 {
		b.MinBytes = 16 << 10
	}
	if b.MaxBytes <= 0 {
		b.MaxBytes = 1 << 20
	}
	if b.MaxBytes < b.MinBytes {
		b.MaxBytes = b.MinBytes
	}
	if b.BandwidthBps <= 0 {
		b.BandwidthBps = 100e6
	}
	if b.WritevMinBytes == 0 {
		b.WritevMinBytes = 8 << 10
	}
	return b
}

// counterPair fans one count into the per-peer family and that peer's
// {az,region} rollup family. Both legs are resolved at startup, so a hot
// path pays exactly two atomic adds.
type counterPair struct {
	peer *metrics.Counter
	zone *metrics.Counter
}

func (p *counterPair) Inc() { p.peer.Inc(); p.zone.Inc() }

func (p *counterPair) Add(n int64) { p.peer.Add(n); p.zone.Add(n) }

// peerInstruments are the per-peer metric instances, resolved once at
// startup so hot paths touch only atomics. Byte and frame counters are
// pairs feeding the per-peer family plus the peer's zone rollup.
type peerInstruments struct {
	bytesSent counterPair
	bytesRecv counterPair
	dataSent  counterPair
	ackSent   counterPair
	appSent   counterPair
	hbSent    counterPair
	dataRecv  counterPair
	ackRecv   counterPair
	appRecv   counterPair
	hbRecv    counterPair
	resent    *metrics.Counter
	reconn    *metrics.Counter
	fdTrips   *metrics.Counter
	hbRTT     *metrics.Histogram
	up        *metrics.Gauge
}

// Transport connects the local node to every peer: it owns one outgoing
// link per peer (our data, ACKs and app messages flow there) and accepts
// one incoming link per peer (their traffic toward us).
type Transport struct {
	cfg      Config
	listener net.Listener

	links map[int]*link            // keyed by peer index
	peers map[int]*peerInstruments // keyed by peer index
	// linkList is links as a dense slice: the per-message broadcast paths
	// (NotifyData, QueueAck) walk it instead of paying map iteration on
	// every append. Built once at construction, never mutated.
	linkList []*link

	// recvLast[p] is the highest contiguous data sequence received from
	// peer p. It is written under deliverMu[p] and read lock-free by
	// snapshot getters and the reconnect handshake. Index 0 is unused
	// (peers are 1-based).
	recvLast []atomic.Uint64
	// deliverMu[p] serializes the duplicate filter and the data upcall for
	// peer p, so the Handler's per-peer FIFO contract holds even while a
	// superseded connection from the same peer is still draining alongside
	// its replacement. Per-peer, so peers never contend with each other.
	deliverMu []sync.Mutex

	recvMu   sync.Mutex
	incoming map[int]net.Conn  // current accepted conn per peer
	accepted map[net.Conn]bool // every live accepted conn, incl. pre-handshake

	// Liveness is frame-counter based so the receive hot path stays off
	// the clock: heardTick[p] counts frames heard from peer p (bumped
	// with one atomic add per frame), and the failure detector's ticker
	// translates "the counter moved since my last scan" into an arrival
	// timestamp at tick granularity. liveMu serializes only the rare
	// up/down transitions. Index 0 is unused (peers are 1-based).
	liveMu    sync.Mutex
	heardTick []atomic.Int64
	peerUpA   []atomic.Bool

	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	started atomic.Bool

	// Stage-latency segments of stabilizer_stage_seconds, resolved once
	// at startup; nil when tracing is disabled.
	stageBatchQueue *metrics.Histogram
	stageWireSend   *metrics.Histogram
	stageFlight     *metrics.Histogram

	// Process-wide totals, independent of the per-peer metric families so
	// snapshot getters stay exact and O(1).
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	dataSent   atomic.Int64
	dataRecv   atomic.Int64
	resent     atomic.Int64
	reconnects atomic.Int64
	fdTrips    atomic.Int64
}

// New creates a transport. Call Start to begin dialing and accepting.
func New(cfg Config) (*Transport, error) {
	if cfg.Handler == nil {
		return nil, errors.New("transport: Config.Handler is required")
	}
	if cfg.Log == nil {
		return nil, errors.New("transport: Config.Log is required")
	}
	if cfg.Network == nil {
		return nil, errors.New("transport: Config.Network is required")
	}
	if cfg.Self < 1 || cfg.Self > cfg.N {
		return nil, fmt.Errorf("transport: self index %d out of range [1,%d]", cfg.Self, cfg.N)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 4 * cfg.HeartbeatEvery
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	cfg.Batch = cfg.Batch.normalized()
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	t := &Transport{
		cfg:       cfg,
		links:     make(map[int]*link, cfg.N-1),
		peers:     make(map[int]*peerInstruments, cfg.N-1),
		recvLast:  make([]atomic.Uint64, cfg.N+1),
		deliverMu: make([]sync.Mutex, cfg.N+1),
		incoming:  make(map[int]net.Conn, cfg.N-1),
		accepted:  make(map[net.Conn]bool, cfg.N-1),
		heardTick: make([]atomic.Int64, cfg.N+1),
		peerUpA:   make([]atomic.Bool, cfg.N+1),
		stop:      make(chan struct{}),
	}
	m := cfg.Metrics
	bytesSent := m.CounterVec("stabilizer_transport_bytes_sent_total", "Frame bytes written per peer.", "peer")
	bytesRecv := m.CounterVec("stabilizer_transport_bytes_recv_total", "Frame bytes read per peer (post-handshake).", "peer")
	framesSent := m.CounterVec("stabilizer_transport_frames_sent_total", "Frames written per peer and kind.", "peer", "kind")
	framesRecv := m.CounterVec("stabilizer_transport_frames_recv_total", "Frames read per peer and kind.", "peer", "kind")
	resent := m.CounterVec("stabilizer_transport_data_resent_total", "Data frames retransmitted after reconnect, per peer.", "peer")
	reconn := m.CounterVec("stabilizer_transport_reconnects_total", "Successful re-dials after the first connection, per peer.", "peer")
	fdTrips := m.CounterVec("stabilizer_transport_failure_detector_trips_total", "Failure detector suspicions raised per peer.", "peer")
	hbRTT := m.HistogramVec("stabilizer_transport_heartbeat_rtt_seconds", "Heartbeat echo round-trip time per peer.", metrics.LatencyOpts, "peer")
	up := m.GaugeVec("stabilizer_transport_peer_up", "1 while the peer is considered alive.", "peer")

	// Zone rollups of the byte/frame families: the same counts keyed by the
	// destination (or source) peer's {az,region} instead of its index, for
	// dashboards over deployments too large to chart per peer.
	zoneBytesSent := m.CounterVec("stabilizer_transport_zone_bytes_sent_total", "Frame bytes written, rolled up by destination peer zone.", "az", "region")
	zoneBytesRecv := m.CounterVec("stabilizer_transport_zone_bytes_recv_total", "Frame bytes read, rolled up by source peer zone.", "az", "region")
	zoneFramesSent := m.CounterVec("stabilizer_transport_zone_frames_sent_total", "Frames written, rolled up by destination peer zone and kind.", "az", "region", "kind")
	zoneFramesRecv := m.CounterVec("stabilizer_transport_zone_frames_recv_total", "Frames read, rolled up by source peer zone and kind.", "az", "region", "kind")

	// Node-level send-log occupancy and backpressure families, tagged with
	// the local topology so multi-node registries can roll them up by
	// AZ/region. GaugeFuncs read the log directly at exposition time.
	log, az, region := cfg.Log, cfg.TopoTags.AZ, cfg.TopoTags.Region
	m.GaugeFuncVec("stabilizer_transport_sendlog_bytes",
		"Payload bytes buffered in the send log awaiting global reclaim.",
		"az", "region").Set(func() float64 { return float64(log.Bytes()) }, az, region)
	m.GaugeFuncVec("stabilizer_transport_sendlog_entries",
		"Entries buffered in the send log awaiting global reclaim.",
		"az", "region").Set(func() float64 { return float64(log.Len()) }, az, region)
	m.GaugeFuncVec("stabilizer_transport_sendlog_cap_bytes",
		"Configured send-log byte cap (0 = unbounded).",
		"az", "region").Set(func() float64 { return float64(log.Flow().MaxBytes) }, az, region)
	m.GaugeFuncVec("stabilizer_transport_backpressure_waiters",
		"Appends currently blocked on send-log admission control.",
		"az", "region").Set(func() float64 { return float64(log.Waiting()) }, az, region)
	bp := m.CounterVec("stabilizer_transport_backpressure_total",
		"Appends gated by send-log admission control, by outcome.", "outcome")
	log.setBackpressureCounters(bp.With("blocked"), bp.With("shed"))

	// Spill-tier families (zero and inert unless FlowSpill is configured):
	// how much retransmission backlog has been migrated to disk, how much
	// has been streamed back to reconnecting peers, and whether the tier is
	// currently degraded by a disk fault. Same az/region tagging as the
	// sendlog family, for the same rollups.
	m.GaugeFuncVec("stabilizer_sendlog_spilled_bytes",
		"Payload bytes parked in on-disk spill segments awaiting reclaim or read-back.",
		"az", "region").Set(func() float64 { return float64(log.SpilledBytes()) }, az, region)
	m.GaugeFuncVec("stabilizer_sendlog_spilled_segments",
		"Live on-disk spill segment files.",
		"az", "region").Set(func() float64 { return float64(log.SpilledSegments()) }, az, region)
	m.GaugeFuncVec("stabilizer_sendlog_readback_bytes",
		"Cumulative payload bytes served to readers from the spill tier.",
		"az", "region").Set(func() float64 { return float64(log.SpillReadbackBytes()) }, az, region)
	m.GaugeFuncVec("stabilizer_sendlog_spill_degraded",
		"1 while the spill tier cannot write (log degraded to blocking admission).",
		"az", "region").Set(func() float64 {
		if log.SpillDegraded() {
			return 1
		}
		return 0
	}, az, region)
	if cfg.Trace != nil {
		stage := m.HistogramVec(optrace.StageFamily, optrace.StageFamilyHelp, metrics.LatencyOpts, "stage")
		t.stageBatchQueue = stage.With(optrace.SegBatchQueue)
		t.stageWireSend = stage.With(optrace.SegWireSend)
		t.stageFlight = stage.With(optrace.SegFlight)
	}
	for p := 1; p <= cfg.N; p++ {
		if p == cfg.Self {
			continue
		}
		ps := strconv.Itoa(p)
		tag := cfg.PeerTags[p] // zero value → blank zone labels
		az, rg := tag.AZ, tag.Region
		t.peers[p] = &peerInstruments{
			bytesSent: counterPair{bytesSent.With(ps), zoneBytesSent.With(az, rg)},
			bytesRecv: counterPair{bytesRecv.With(ps), zoneBytesRecv.With(az, rg)},
			dataSent:  counterPair{framesSent.With(ps, "data"), zoneFramesSent.With(az, rg, "data")},
			ackSent:   counterPair{framesSent.With(ps, "ack"), zoneFramesSent.With(az, rg, "ack")},
			appSent:   counterPair{framesSent.With(ps, "app"), zoneFramesSent.With(az, rg, "app")},
			hbSent:    counterPair{framesSent.With(ps, "heartbeat"), zoneFramesSent.With(az, rg, "heartbeat")},
			dataRecv:  counterPair{framesRecv.With(ps, "data"), zoneFramesRecv.With(az, rg, "data")},
			ackRecv:   counterPair{framesRecv.With(ps, "ack"), zoneFramesRecv.With(az, rg, "ack")},
			appRecv:   counterPair{framesRecv.With(ps, "app"), zoneFramesRecv.With(az, rg, "app")},
			hbRecv:    counterPair{framesRecv.With(ps, "heartbeat"), zoneFramesRecv.With(az, rg, "heartbeat")},
			resent:    resent.With(ps),
			reconn:    reconn.With(ps),
			fdTrips:   fdTrips.With(ps),
			hbRTT:     hbRTT.With(ps),
			up:        up.With(ps),
		}
		t.links[p] = newLink(t, p)
		t.linkList = append(t.linkList, t.links[p])
	}
	// Feed the send log's spill tier (if configured) the live cursor
	// horizon, so it migrates the truly cold prefix first. No-op for
	// in-memory-only flow modes.
	log.SetSpillHorizon(t.spillHorizon)
	return t, nil
}

// spillHorizon returns the minimum next-to-send sequence across connected
// links — the boundary below which no live peer reads from memory — or 0
// when no link is streaming (everything buffered is cold).
func (t *Transport) spillHorizon() uint64 {
	var min uint64
	for _, l := range t.linkList {
		c := l.sendCursor.Load()
		if c != 0 && (min == 0 || c < min) {
			min = c
		}
	}
	return min
}

// Start opens the listener, the accept loop, the per-peer dial loops, the
// heartbeat ticker and the failure detector.
func (t *Transport) Start() error {
	if t.started.Swap(true) {
		return errors.New("transport: already started")
	}
	l, err := t.cfg.Network.Listen(t.cfg.Self)
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	t.listener = l
	t.wg.Add(1)
	go t.acceptLoop()
	for _, lk := range t.links {
		t.wg.Add(1)
		go lk.run()
	}
	t.wg.Add(2)
	go t.heartbeatLoop()
	go t.failureDetector()
	return nil
}

// Close shuts the transport down and waits for its goroutines.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	if t.listener != nil {
		_ = t.listener.Close()
	}
	for _, lk := range t.links {
		lk.close()
	}
	t.recvMu.Lock()
	for c := range t.accepted {
		_ = c.Close()
	}
	t.recvMu.Unlock()
	t.wg.Wait()
	return nil
}

// NotifyData wakes every outgoing link after new entries were appended to
// the send log. Wakeups are coalesced per link: during a burst of appends
// only the first notification after a link goes idle broadcasts; the rest
// cost one atomic load each.
func (t *Transport) NotifyData() {
	for _, lk := range t.linkList {
		lk.notifyData()
	}
}

// QueueAck coalesces a stability report onto every outgoing link. Only the
// newest sequence per (origin, by, type) is retained — monotonicity makes
// older reports redundant.
func (t *Transport) QueueAck(a wire.Ack) {
	for _, lk := range t.linkList {
		lk.queueAck(a)
	}
}

// QueueAckTo coalesces a stability report onto a single peer's link.
func (t *Transport) QueueAckTo(peer int, a wire.Ack) {
	if lk, ok := t.links[peer]; ok {
		lk.queueAck(a)
	}
}

// SendApp enqueues an application message toward peer.
func (t *Transport) SendApp(peer int, a *wire.App) error {
	lk, ok := t.links[peer]
	if !ok {
		return fmt.Errorf("transport: no link to peer %d", peer)
	}
	return lk.queueApp(a)
}

// BytesSent reports the total frame bytes written on outgoing links.
func (t *Transport) BytesSent() int64 { return t.bytesSent.Load() }

// BytesRecv reports the total frame bytes read on incoming links.
func (t *Transport) BytesRecv() int64 { return t.bytesRecv.Load() }

// DataSent reports the number of data frames written (retransmissions
// included).
func (t *Transport) DataSent() int64 { return t.dataSent.Load() }

// DataRecv reports the number of data frames read (duplicates included).
func (t *Transport) DataRecv() int64 { return t.dataRecv.Load() }

// Resent reports the number of data frames rewritten after reconnects.
func (t *Transport) Resent() int64 { return t.resent.Load() }

// Reconnects reports successful re-dials after each link's first connect.
func (t *Transport) Reconnects() int64 { return t.reconnects.Load() }

// FailureDetectorTrips reports how many times a live peer was declared
// suspect.
func (t *Transport) FailureDetectorTrips() int64 { return t.fdTrips.Load() }

// RecvLast returns the highest contiguous data sequence received from peer.
func (t *Transport) RecvLast(peer int) uint64 {
	if peer < 1 || peer >= len(t.recvLast) {
		return 0
	}
	return t.recvLast[peer].Load()
}

// RecvLastAll returns the highest contiguous data sequence received from
// every peer that has sent data.
func (t *Transport) RecvLastAll() map[int]uint64 {
	out := make(map[int]uint64)
	for p := 1; p < len(t.recvLast); p++ {
		if s := t.recvLast[p].Load(); s > 0 {
			out[p] = s
		}
	}
	return out
}

// peerIns returns peer's resolved instruments (nil for unknown peers).
func (t *Transport) peerIns(peer int) *peerInstruments { return t.peers[peer] }

// --- accept path ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.recvMu.Lock()
		if t.closed.Load() {
			t.recvMu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted[conn] = true
		t.recvMu.Unlock()
		t.wg.Add(1)
		go t.serveIncoming(conn)
	}
}

// countingReader counts bytes flowing through an incoming connection into
// the transport-wide total and, once the handshake identifies the peer, a
// per-peer counter.
type countingReader struct {
	r     io.Reader
	total *atomic.Int64
	peer  atomic.Pointer[counterPair]
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.total.Add(int64(n))
		if c := cr.peer.Load(); c != nil {
			c.Add(int64(n))
		}
	}
	return n, err
}

func (t *Transport) serveIncoming(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.recvMu.Lock()
		delete(t.accepted, conn)
		t.recvMu.Unlock()
		_ = conn.Close()
	}()
	cr := &countingReader{r: conn, total: &t.bytesRecv}
	r := wire.NewReader(cr)
	msg, err := r.Next()
	if err != nil {
		_ = conn.Close()
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || int(hello.From) < 1 || int(hello.From) > t.cfg.N || int(hello.From) == t.cfg.Self {
		_ = conn.Close()
		return
	}
	from := int(hello.From)
	ins := t.peerIns(from)
	cr.peer.Store(&ins.bytesRecv)

	t.recvMu.Lock()
	if old := t.incoming[from]; old != nil {
		_ = old.Close()
	}
	t.incoming[from] = conn
	t.recvMu.Unlock()
	last := t.recvLast[from].Load()

	// scratch is the connection's reusable write buffer: the HelloAck here
	// and every heartbeat echo below are framed into it instead of paying
	// wire.WriteFrame's per-call allocation.
	var scratch []byte
	scratch = wire.AppendFrame(scratch, &wire.HelloAck{From: uint16(t.cfg.Self), LastSeq: last})
	if _, err := conn.Write(scratch); err != nil {
		_ = conn.Close()
		return
	}
	t.heard(from)

	// batched counts the data frames handed to the Handler since its last
	// FlushData; a Next that could block (no whole frame buffered) must
	// not be reached with an unflushed batch, or its ACKs wait on a read.
	batched := 0
	for {
		if batched > 0 && (batched >= recvBatchFrames || !r.HasFrame()) {
			t.flushData(from)
			batched = 0
		}
		msg, err := r.Next()
		if err != nil {
			if batched > 0 {
				t.flushData(from)
			}
			t.recvMu.Lock()
			if t.incoming[from] == conn {
				delete(t.incoming, from)
			}
			t.recvMu.Unlock()
			_ = conn.Close()
			return
		}
		t.heard(from)
		switch m := msg.(type) {
		case *wire.Data:
			t.dataRecv.Add(1)
			ins.dataRecv.Inc()
			// Record the wire arrival before the duplicate filter: a
			// resent frame really did cross the wire again, and the trace
			// should show it.
			if rec := t.cfg.Trace; rec != nil && rec.Sampled(from, m.Seq) {
				now := time.Now().UnixNano()
				rec.Record(optrace.StageWireRecv, from, m.Seq, from, 0, now)
				t.stageFlight.Observe(now - m.SentUnixNano)
			}
			if t.deliverData(from, m) {
				batched++
			}
		case *wire.Ack:
			ins.ackRecv.Inc()
			t.cfg.Handler.HandleAck(m)
		case *wire.App:
			ins.appRecv.Inc()
			t.cfg.Handler.HandleApp(from, m)
		case *wire.Heartbeat:
			// Echo the heartbeat so the dialer can measure round-trip
			// time. Prefer piggybacking the echo on our own outgoing link
			// to the sender while it is draining data — that way the echo
			// rides inside a batch write instead of stealing a wakeup.
			// When that link is idle (or absent), fall back to a direct
			// write on this connection; this goroutine is the
			// connection's only writer after the HelloAck, so the write
			// (and scratch reuse) is race-free.
			ins.hbRecv.Inc()
			if lk := t.links[from]; lk != nil && lk.queueEcho(m.Clock) {
				break
			}
			scratch = wire.AppendFrame(scratch[:0], m)
			if _, err := conn.Write(scratch); err != nil {
				_ = conn.Close()
			}
		case *wire.HeartbeatEcho:
			// Our heartbeat coming back piggybacked on the peer's data
			// stream; route it to the outgoing link's RTT estimator.
			ins.hbRecv.Inc()
			if lk := t.links[from]; lk != nil {
				lk.observeEcho(m.Clock)
			}
		case *wire.Hello, *wire.HelloAck:
			// Unexpected mid-stream; ignore.
		}
	}
}

// deliverData filters duplicates caused by resend-after-reconnect and hands
// fresh frames to the Handler, all under the peer's delivery mutex. The
// mutex is what makes the Handler's per-peer FIFO promise real: during a
// reconnect a superseded connection from the same peer can still be
// draining frames alongside its replacement, and without serialization the
// two goroutines could both pass the filter (for different sequences) and
// race their upcalls out of order. Normal operation has one connection per
// peer, so the lock is uncontended. It reports whether d was fresh.
func (t *Transport) deliverData(from int, d *wire.Data) bool {
	mu := &t.deliverMu[from]
	mu.Lock()
	defer mu.Unlock()
	if d.Seq <= t.recvLast[from].Load() {
		return false
	}
	t.recvLast[from].Store(d.Seq)
	t.cfg.Handler.HandleData(from, d)
	return true
}

// flushData ends a receive batch for peer from, under the same delivery
// mutex as the frames it closes.
func (t *Transport) flushData(from int) {
	mu := &t.deliverMu[from]
	mu.Lock()
	defer mu.Unlock()
	t.cfg.Handler.FlushData(from)
}

// --- liveness ---

// heard notes one frame from peer. The steady-state cost is one atomic add
// plus one atomic load — no clock read, no lock, no map write — because the
// failure detector derives arrival times from counter movement on its own
// ticker. Only the up transition (first frame after down) takes liveMu.
func (t *Transport) heard(peer int) {
	t.heardTick[peer].Add(1)
	if t.peerUpA[peer].Load() {
		return
	}
	t.liveMu.Lock()
	wasUp := t.peerUpA[peer].Swap(true)
	t.liveMu.Unlock()
	if !wasUp {
		if ins := t.peerIns(peer); ins != nil {
			ins.up.Set(1)
		}
		t.cfg.Handler.PeerUp(peer)
	}
}

func (t *Transport) failureDetector() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.PeerTimeout / 2)
	defer tick.Stop()
	// seen/lastMove are the detector's private view: the heard counter's
	// value at the last scan and the scan time at which it last advanced.
	// Detection latency is PeerTimeout plus at most one tick — the slop the
	// half-interval ticker always had.
	seen := make([]int64, len(t.heardTick))
	lastMove := make([]time.Time, len(t.heardTick))
	for {
		select {
		case <-t.stop:
			return
		case now := <-tick.C:
			var downs []int
			t.liveMu.Lock()
			for peer := range t.links {
				if cur := t.heardTick[peer].Load(); cur != seen[peer] {
					seen[peer] = cur
					lastMove[peer] = now
					continue
				}
				if t.peerUpA[peer].Load() && now.Sub(lastMove[peer]) > t.cfg.PeerTimeout {
					t.peerUpA[peer].Store(false)
					downs = append(downs, peer)
				}
			}
			t.liveMu.Unlock()
			for _, p := range downs {
				t.fdTrips.Add(1)
				if ins := t.peerIns(p); ins != nil {
					ins.fdTrips.Inc()
					ins.up.Set(0)
				}
				t.cfg.Handler.PeerDown(p)
			}
		}
	}
}

func (t *Transport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	var clock uint64
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			clock++
			for _, lk := range t.links {
				lk.queueHeartbeat(clock)
			}
		}
	}
}
