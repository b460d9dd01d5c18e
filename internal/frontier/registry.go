package frontier

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"stabilizer/internal/dsl"
	"stabilizer/internal/metrics"
)

// MonitorFunc receives the most recent stability frontier of a predicate
// each time it advances. Because control information is monotonic,
// intermediate values may be skipped: an upcall with frontier 91 implies
// the stability of every earlier message (paper §III-A).
type MonitorFunc func(frontier uint64)

// Registry stores compiled predicates keyed by name and drives their
// re-evaluation as the ACK recorder advances. It implements the paper's
// three control-plane interfaces (§III-D): waitfor,
// monitor_stability_frontier, and register/change_predicate.
//
// Evaluation is incremental and optionally deferred. Every predicate is
// indexed by the recorder-table cells it reads; an ACK update marks dirty
// only the predicates whose operands moved (NoteCellUpdate/NoteNodeUpdate),
// so idle predicates cost nothing. In inline mode (the default) the dirty
// set drains immediately on the update path — the original synchronous
// semantics. StartDeferred moves the drain onto a periodic control-plane
// tick instead, batching ACK ingestion off the data path (deferred update
// stabilization); frontier visibility then lags ground truth by at most one
// tick interval.
type Registry struct {
	env   dsl.Env
	table *Table

	mu    sync.Mutex
	preds map[string]*predicate
	// byCell and byNode invert each predicate's read set: byCell keys the
	// exact (node, type) cells a program loads, byNode the WAN nodes it
	// depends on (for UpdateAll-style whole-node advances). dirty is the
	// set of predicates whose operands moved since the last drain.
	byCell map[dsl.Cell]map[*predicate]struct{}
	byNode map[int]map[*predicate]struct{}
	dirty  map[*predicate]struct{}

	// interval is the stabilization tick period; 0 means inline mode
	// (drain on the update path). stop/wg manage the tick goroutine.
	interval time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup

	// Instrumentation (optional; see EnableMetrics / OnAdvance).
	recomputes   *metrics.Counter
	predEvals    *metrics.Counter
	monitorFires *metrics.Counter
	waiters      *metrics.Gauge
	dirtyPreds   *metrics.Gauge
	frontiers    *metrics.GaugeVec
	tickDur      *metrics.Histogram
	// onAdvance is copy-on-write: OnAdvance and its cancel funcs swap in a
	// fresh slice under mu, so a snapshot taken under mu stays safe to
	// iterate after unlock.
	onAdvance     []advanceHook
	nextAdvanceID int

	// pubMu orders advance deliveries per predicate. The drain path
	// (publish) and the swap path (Change) both fire onAdvance hooks
	// outside mu, so two racing publishes for the same key could hand
	// observers the same frontier twice — or an older value after a newer
	// one. published is the high-water of values already delivered per
	// key; pubMu stays held across the hook calls because the claim and
	// the delivery must be atomic for the per-key stream to stay ordered.
	pubMu     sync.Mutex
	published map[string]uint64
}

// advanceHook is one OnAdvance registration; the id makes it detachable.
type advanceHook struct {
	id int
	fn func(key string, old, new uint64)
}

type predicate struct {
	key      string
	prog     *dsl.Program
	cells    []dsl.Cell
	frontier uint64

	monitors  map[int]MonitorFunc
	nextMonID int
	waiters   waiterHeap
}

// NewRegistry creates a predicate registry evaluating against table and
// resolving predicate sources against env.
func NewRegistry(env dsl.Env, table *Table) *Registry {
	return &Registry{
		env:    env,
		table:  table,
		preds:  make(map[string]*predicate),
		byCell: make(map[dsl.Cell]map[*predicate]struct{}),
		byNode: make(map[int]map[*predicate]struct{}),
		dirty:  make(map[*predicate]struct{}),

		published: make(map[string]uint64),
	}
}

// EnableMetrics publishes the registry's control-plane instrumentation into
// m: recompute passes, per-predicate evaluations, monitor fires, pending
// waiters, dirty-set depth, tick duration and a per-predicate frontier
// gauge. Call before Register; not safe to call concurrently with use.
func (r *Registry) EnableMetrics(m *metrics.Registry) {
	r.recomputes = m.Counter("stabilizer_frontier_recomputes_total",
		"Predicate re-evaluation passes over the ACK recorder.")
	r.predEvals = m.Counter("stabilizer_frontier_pred_evals_total",
		"Individual predicate evaluations against the ACK recorder.")
	r.monitorFires = m.Counter("stabilizer_frontier_monitor_fires_total",
		"Stability-frontier monitor callbacks invoked.")
	r.waiters = m.Gauge("stabilizer_frontier_waiters",
		"WaitFor callers currently blocked on a predicate.")
	r.dirtyPreds = m.Gauge("stabilizer_frontier_dirty_preds",
		"Predicates marked dirty and awaiting the next stabilization drain.")
	r.frontiers = m.GaugeVec("stabilizer_frontier_seq",
		"Last computed stability frontier per predicate.", "predicate")
	r.tickDur = m.Histogram("stabilizer_frontier_tick_duration_seconds",
		"Duration of stabilization drains (dirty-set evaluation passes).",
		metrics.LatencyOpts)
}

// StartDeferred switches the registry into deferred mode: dirty predicates
// are drained by a background tick every interval instead of inline on the
// update path. A non-positive interval is a no-op (inline mode). Call once,
// before concurrent use; pair with Close.
func (r *Registry) StartDeferred(interval time.Duration) {
	if interval <= 0 {
		return
	}
	stop := make(chan struct{})
	r.mu.Lock()
	r.interval = interval
	r.stop = stop
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Flush()
			case <-stop:
				return
			}
		}
	}()
}

// Interval returns the stabilization tick period (0 = inline mode).
func (r *Registry) Interval() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interval
}

// Close stops the deferred tick goroutine (if any), performs a final drain
// so no dirty predicate is left unevaluated, and reverts the registry to
// inline mode so late updates still stabilize. Safe to call when deferred
// mode was never started, and safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	stop := r.stop
	r.stop = nil
	r.interval = 0
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		r.wg.Wait()
	}
	r.Flush()
}

// OnAdvance adds a hook invoked with (key, old, new) after a predicate's
// frontier moves forward — outside the registry lock, before waiters are
// released, so latency samples exist by the time WaitFor returns. The core
// uses it to record stability latency; invariant checkers use it to watch
// monotonicity. Hooks run in registration order and accumulate until their
// cancel func detaches them (cancel is idempotent). Once cancel returns the
// hook is never called again: cancel waits out a delivery in progress, so
// it must not be called from inside a hook. Safe to call on a live
// registry; a nil fn returns a harmless no-op cancel.
func (r *Registry) OnAdvance(fn func(key string, old, new uint64)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextAdvanceID
	r.nextAdvanceID++
	hooks := make([]advanceHook, len(r.onAdvance), len(r.onAdvance)+1)
	copy(hooks, r.onAdvance)
	r.onAdvance = append(hooks, advanceHook{id: id, fn: fn})
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		hooks := make([]advanceHook, 0, len(r.onAdvance))
		for _, h := range r.onAdvance {
			if h.id != id {
				hooks = append(hooks, h)
			}
		}
		r.onAdvance = hooks
		r.mu.Unlock()
		// Wait out a delivery already in flight with the old list.
		r.pubMu.Lock()
		r.pubMu.Unlock()
	}
}

// setFrontierGauge mirrors a predicate's frontier into its gauge.
func (r *Registry) setFrontierGauge(key string, f uint64) {
	if r.frontiers != nil {
		r.frontiers.With(key).Set(int64(f))
	}
}

// addWaiters shifts the pending-waiter gauge by delta.
func (r *Registry) addWaiters(delta int) {
	if r.waiters != nil && delta != 0 {
		r.waiters.Add(int64(delta))
	}
}

// WaiterCount returns the number of WaitFor callers currently blocked.
func (r *Registry) WaiterCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.preds {
		n += p.waiters.Len()
	}
	return n
}

// DirtyCount returns the number of predicates awaiting the next drain.
func (r *Registry) DirtyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.dirty)
}

// indexLocked adds p to the inverted cell and node indexes. Caller holds mu.
func (r *Registry) indexLocked(p *predicate) {
	for _, c := range p.cells {
		m := r.byCell[c]
		if m == nil {
			m = make(map[*predicate]struct{})
			r.byCell[c] = m
		}
		m[p] = struct{}{}
	}
	for _, n := range p.prog.DependsOn() {
		m := r.byNode[n]
		if m == nil {
			m = make(map[*predicate]struct{})
			r.byNode[n] = m
		}
		m[p] = struct{}{}
	}
}

// unindexLocked removes p from the inverted indexes and the dirty set.
// Caller holds mu.
func (r *Registry) unindexLocked(p *predicate) {
	for _, c := range p.cells {
		if m := r.byCell[c]; m != nil {
			delete(m, p)
			if len(m) == 0 {
				delete(r.byCell, c)
			}
		}
	}
	for _, n := range p.prog.DependsOn() {
		if m := r.byNode[n]; m != nil {
			delete(m, p)
			if len(m) == 0 {
				delete(r.byNode, n)
			}
		}
	}
	delete(r.dirty, p)
}

// Register compiles source and installs it under key. Registering an
// existing key fails; use Change to swap a predicate at runtime.
func (r *Registry) Register(key, source string) error {
	prog, err := dsl.Compile(source, r.env)
	if err != nil {
		return fmt.Errorf("register predicate %q: %w", key, err)
	}
	r.mu.Lock()
	if _, dup := r.preds[key]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredExists, key)
	}
	p := &predicate{
		key:      key,
		prog:     prog,
		cells:    prog.Cells(),
		frontier: r.table.EvalLocked(prog),
		monitors: make(map[int]MonitorFunc),
	}
	r.preds[key] = p
	r.indexLocked(p)
	f := p.frontier
	r.mu.Unlock()
	r.setFrontierGauge(key, f)
	return nil
}

// RegisterBatch compiles and installs a set of predicates atomically:
// either every source compiles and every key is new, and all of them are
// registered in one step, or nothing is registered at all. Keys are
// validated in sorted order so the first error reported is deterministic.
func (r *Registry) RegisterBatch(preds map[string]string) error {
	keys := make([]string, 0, len(preds))
	for k := range preds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Compile everything before taking the lock: compilation is the slow,
	// fallible part and needs no registry state.
	progs := make(map[string]*dsl.Program, len(preds))
	for _, k := range keys {
		prog, err := dsl.Compile(preds[k], r.env)
		if err != nil {
			return fmt.Errorf("register predicate %q: %w", k, err)
		}
		progs[k] = prog
	}
	r.mu.Lock()
	for _, k := range keys {
		if _, dup := r.preds[k]; dup {
			r.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrPredExists, k)
		}
	}
	type installed struct {
		key string
		f   uint64
	}
	out := make([]installed, 0, len(keys))
	for _, k := range keys {
		prog := progs[k]
		p := &predicate{
			key:      k,
			prog:     prog,
			cells:    prog.Cells(),
			frontier: r.table.EvalLocked(prog),
			monitors: make(map[int]MonitorFunc),
		}
		r.preds[k] = p
		r.indexLocked(p)
		out = append(out, installed{key: k, f: p.frontier})
	}
	r.mu.Unlock()
	for _, in := range out {
		r.setFrontierGauge(in.key, in.f)
	}
	return nil
}

// Change swaps the predicate under key for a newly compiled source, at
// runtime (paper §III-D / §VI-D dynamic reconfiguration). The frontier is
// re-evaluated immediately — even in deferred mode, so callers that swap to
// a weaker predicate observe the effect without waiting a tick; note that
// switching to a stronger predicate can move the frontier backwards — the
// paper leaves handling that gap to the application, and so do we. Pending
// waiters stay queued and are judged against the new predicate.
func (r *Registry) Change(key, source string) error {
	prog, err := dsl.Compile(source, r.env)
	if err != nil {
		return fmt.Errorf("change predicate %q: %w", key, err)
	}
	r.mu.Lock()
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	old := p.frontier
	r.unindexLocked(p)
	p.prog = prog
	p.cells = prog.Cells()
	r.indexLocked(p)
	p.frontier = r.table.EvalLocked(prog)
	newF := p.frontier
	released := p.releaseWaitersLocked()
	// A swap to a weaker predicate can advance the frontier immediately;
	// monitors must hear about it just like a drain advance, or state
	// keyed to the frontier (send-log reclaim, most importantly) would wait
	// for an ACK that may never come — e.g. the degraded-mode fallback that
	// swaps reclaim to a majority predicate precisely because the full set
	// has stopped acking.
	var fns []MonitorFunc
	if newF > old && len(p.monitors) > 0 {
		fns = make([]MonitorFunc, 0, len(p.monitors))
		for _, fn := range p.monitors {
			fns = append(fns, fn)
		}
	}
	r.mu.Unlock()
	if newF > old {
		r.publishAdvance(key, old, newF)
	} else {
		r.setFrontierGauge(key, newF)
	}
	r.addWaiters(-len(released))
	releaseAll(released)
	for _, fn := range fns {
		fn(newF)
	}
	if len(fns) > 0 && r.monitorFires != nil {
		r.monitorFires.Add(int64(len(fns)))
	}
	return nil
}

// Remove deletes the predicate under key. Pending waiters are released
// with no error — callers that need stricter semantics should not remove
// predicates with active waiters.
func (r *Registry) Remove(key string) error {
	r.mu.Lock()
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	delete(r.preds, key)
	r.unindexLocked(p)
	released := make([]chan struct{}, 0, p.waiters.Len())
	for _, w := range p.waiters {
		w.idx = -1
		released = append(released, w.done)
	}
	p.waiters = nil
	r.mu.Unlock()
	if r.frontiers != nil {
		r.frontiers.Delete(key)
	}
	// A later Register under the same key starts a fresh event stream.
	r.pubMu.Lock()
	delete(r.published, key)
	r.pubMu.Unlock()
	r.addWaiters(-len(released))
	releaseAll(released)
	return nil
}

// Has reports whether key is registered.
func (r *Registry) Has(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.preds[key]
	return ok
}

// Keys returns the registered predicate keys, sorted.
func (r *Registry) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.preds))
	for k := range r.preds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Source returns the DSL source of the predicate under key.
func (r *Registry) Source(key string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.prog.Source(), nil
}

// DependsOn returns the WAN nodes the predicate under key reads.
func (r *Registry) DependsOn(key string) ([]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.prog.DependsOn(), nil
}

// Cells returns the recorder-table cells the predicate under key reads,
// in first-load order. Stall blame attribution compares each dependent
// peer's cell value against the stalled frontier.
func (r *Registry) Cells(key string) ([]dsl.Cell, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.prog.Cells(), nil
}

// Frontier returns the last computed stability frontier of key.
func (r *Registry) Frontier(key string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	return p.frontier, nil
}

// WaitFor blocks until the stability frontier of key reaches seq, the
// context is cancelled, or the predicate is removed.
func (r *Registry) WaitFor(ctx context.Context, seq uint64, key string) error {
	r.mu.Lock()
	p, ok := r.preds[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	if p.frontier >= seq {
		r.mu.Unlock()
		return nil
	}
	w := &waiter{seq: seq, done: make(chan struct{})}
	heap.Push(&p.waiters, w)
	r.mu.Unlock()
	r.addWaiters(1)

	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		r.detachWaiter(p, w)
		// The frontier may have advanced concurrently with cancellation;
		// prefer success if the wait actually completed.
		select {
		case <-w.done:
			return nil
		default:
		}
		return fmt.Errorf("%w: predicate %q seq %d: %v", ErrWaitCancelled, key, seq, ctx.Err())
	}
}

// detachWaiter removes a cancelled waiter from its predicate's heap in
// O(log n). The predicate object stays valid across Change (which mutates
// in place); after Remove or release the waiter's idx is already -1 and
// this is a no-op.
func (r *Registry) detachWaiter(p *predicate, w *waiter) {
	r.mu.Lock()
	if w.idx >= 0 {
		heap.Remove(&p.waiters, w.idx)
		r.mu.Unlock()
		r.addWaiters(-1)
		return
	}
	r.mu.Unlock()
}

// Monitor registers fn to run each time key's frontier advances, and
// returns a cancel function. fn runs on the stabilization drain path; keep
// it short or hand off to a goroutine.
func (r *Registry) Monitor(key string, fn MonitorFunc) (cancel func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.preds[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPredUnknown, key)
	}
	id := p.nextMonID
	p.nextMonID++
	p.monitors[id] = fn
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if p2, ok := r.preds[key]; ok {
			delete(p2.monitors, id)
		}
	}, nil
}

// NoteCellUpdate records that recorder cell (node, typ) advanced: every
// predicate reading that cell is marked dirty. In inline mode the dirty set
// drains immediately; in deferred mode it waits for the next tick.
func (r *Registry) NoteCellUpdate(node int, typ uint16) {
	r.mu.Lock()
	for p := range r.byCell[dsl.Cell{Node: node, Type: typ}] {
		r.dirty[p] = struct{}{}
	}
	r.noteFlushLocked()
}

// NoteNodeUpdate records that every stability counter of node advanced
// (Table.UpdateAll — the origin's own counters move on sequence
// assignment): every predicate depending on that node is marked dirty.
func (r *Registry) NoteNodeUpdate(node int) {
	r.mu.Lock()
	for p := range r.byNode[node] {
		r.dirty[p] = struct{}{}
	}
	r.noteFlushLocked()
}

// noteFlushLocked finishes a Note*: publishes the dirty gauge and, in
// inline mode, drains immediately. Caller holds mu; released on return.
func (r *Registry) noteFlushLocked() {
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(int64(len(r.dirty)))
	}
	if r.interval != 0 || len(r.dirty) == 0 {
		r.mu.Unlock()
		return
	}
	work := r.drainLocked()
	r.mu.Unlock()
	r.publish(work)
}

// Recompute re-evaluates every registered predicate against the current
// ACK recorder state, regardless of dirtiness — the full pass older callers
// and crash-recovery paths rely on (e.g. after Table.Restore, which bypasses
// the Note* hooks).
func (r *Registry) Recompute() {
	r.mu.Lock()
	for _, p := range r.preds {
		r.dirty[p] = struct{}{}
	}
	work := r.drainLocked()
	r.mu.Unlock()
	r.publish(work)
}

// Flush drains the dirty set now: every dirty predicate is re-evaluated,
// satisfied waiters released and monitors fired. The deferred tick calls
// this once per interval; tests call it to force determinism.
func (r *Registry) Flush() {
	r.mu.Lock()
	work := r.drainLocked()
	r.mu.Unlock()
	r.publish(work)
}

type firing struct {
	fns      []MonitorFunc
	frontier uint64
}

type advance struct {
	key      string
	old, new uint64
}

// flushWork is everything a drain produced under mu that must be published
// outside it: gauge moves and advance hooks first, then waiter releases,
// then monitor fires — so latency observers run before WaitFor returns.
type flushWork struct {
	advances []advance
	released []chan struct{}
	firings  []firing
	evals    int
	took     time.Duration
}

// drainLocked evaluates and clears the dirty set. Caller holds mu.
func (r *Registry) drainLocked() flushWork {
	var work flushWork
	if len(r.dirty) == 0 {
		return work
	}
	var start time.Time
	if r.tickDur != nil {
		start = time.Now()
	}
	for p := range r.dirty {
		delete(r.dirty, p)
		work.evals++
		f := r.table.EvalLocked(p.prog)
		if f <= p.frontier {
			continue
		}
		work.advances = append(work.advances, advance{key: p.key, old: p.frontier, new: f})
		p.frontier = f
		work.released = append(work.released, p.releaseWaitersLocked()...)
		if len(p.monitors) > 0 {
			fns := make([]MonitorFunc, 0, len(p.monitors))
			for _, fn := range p.monitors {
				fns = append(fns, fn)
			}
			work.firings = append(work.firings, firing{fns: fns, frontier: f})
		}
	}
	if r.tickDur != nil {
		work.took = time.Since(start)
	}
	return work
}

// publish applies a drain's effects outside the registry lock.
func (r *Registry) publish(work flushWork) {
	if work.evals == 0 {
		return
	}
	if r.recomputes != nil {
		r.recomputes.Inc()
	}
	if r.predEvals != nil {
		r.predEvals.Add(int64(work.evals))
	}
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(0)
	}
	if r.tickDur != nil {
		r.tickDur.Observe(int64(work.took))
	}
	// The advance hook runs before waiters are released so observers (the
	// core's stability-latency samples) are recorded by the time a WaitFor
	// caller resumes.
	for _, a := range work.advances {
		r.publishAdvance(a.key, a.old, a.new)
	}
	r.addWaiters(-len(work.released))
	releaseAll(work.released)
	for _, f := range work.firings {
		for _, fn := range f.fns {
			fn(f.frontier)
		}
		if r.monitorFires != nil {
			r.monitorFires.Add(int64(len(f.fns)))
		}
	}
}

// publishAdvance delivers one frontier advance to the gauge and the
// onAdvance hooks, in strictly increasing per-key order. Both publish
// paths — drain and swap — run outside mu, so without this guard two
// concurrent publishes could deliver the same value twice or out of
// order. Advances at or below the published high-water are dropped:
// after a swap to a stronger predicate legally retreats the frontier,
// the re-climb back to ground already covered stays silent, so latency
// observers never sample the same sequence twice and the per-key event
// stream stays monotonic. Hooks must not re-enter the registry's
// publish paths (they already must not: they run under drains).
func (r *Registry) publishAdvance(key string, old, newF uint64) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	if last, seen := r.published[key]; seen {
		if newF <= last {
			return
		}
		old = last
	}
	r.published[key] = newF
	r.setFrontierGauge(key, newF)
	// Read the hooks under pubMu, not at drain time: a cancel swaps the
	// list and then waits on pubMu, so once it returns no delivery can
	// still hold the canceled hook.
	r.mu.Lock()
	hooks := r.onAdvance
	r.mu.Unlock()
	for _, h := range hooks {
		h.fn(key, old, newF)
	}
}

// releaseWaitersLocked pops and returns the done channels of waiters
// satisfied by the current frontier, in ascending seq order. Caller holds
// the registry mutex.
func (p *predicate) releaseWaitersLocked() []chan struct{} {
	if p.waiters.Len() == 0 || p.waiters[0].seq > p.frontier {
		return nil
	}
	var released []chan struct{}
	for p.waiters.Len() > 0 && p.waiters[0].seq <= p.frontier {
		released = append(released, heap.Pop(&p.waiters).(*waiter).done)
	}
	return released
}

func releaseAll(chans []chan struct{}) {
	for _, c := range chans {
		close(c)
	}
}
