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
// Evaluation is incremental and coalescing. Every predicate is indexed by
// the recorder-table cells it reads; an ACK update marks dirty only the
// predicates whose operands moved (NoteCellUpdate/NoteNodeUpdate), so idle
// predicates cost nothing. At most one goroutine drains at a time: an
// updater that finds no drain running drains the dirty set itself until it
// is empty, while one that finds a drain running only marks its predicates
// and returns — the running drain picks them up in its next pass. Updates
// therefore stabilize immediately when the control plane is idle and batch
// under load, and every publication (drain or swap) reaches hooks and
// monitors from that single drain, in per-key strictly increasing order.
type Registry struct {
	env   dsl.Env
	table *Table

	mu    sync.Mutex
	preds map[string]*predicate
	// byCell and byNode invert each predicate's read set: byCell keys the
	// exact (node, type) cells a program loads, byNode the WAN nodes it
	// depends on (for UpdateAll-style whole-node advances). dirty is the
	// set of predicates whose operands moved since the last drain pass.
	byCell map[dsl.Cell]map[*predicate]struct{}
	byNode map[int]map[*predicate]struct{}
	dirty  map[*predicate]struct{}
	// draining is set while a goroutine holds the drain role; pending is
	// the swap work (Change) queued for that drain's next pass.
	draining bool
	pending  flushWork

	// Instrumentation (optional; see EnableMetrics / OnAdvance).
	recomputes   *metrics.Counter
	predEvals    *metrics.Counter
	monitorFires *metrics.Counter
	waiters      *metrics.Gauge
	dirtyPreds   *metrics.Gauge
	frontiers    *metrics.GaugeVec
	drainDur     *metrics.Histogram
	// onAdvance is copy-on-write: OnAdvance and its cancel funcs swap in a
	// fresh slice under mu, so a snapshot taken under mu stays safe to
	// iterate after unlock.
	onAdvance     []advanceHook
	nextAdvanceID int
	// pubMu is held across each hook delivery so an OnAdvance cancel can
	// wait out a delivery that still holds the old hook list.
	pubMu sync.Mutex
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
	// published is the high-water of frontiers delivered to hooks and
	// monitors. Only the drain-role holder touches it.
	published uint64
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
	}
}

// EnableMetrics publishes the registry's control-plane instrumentation into
// m: recompute passes, per-predicate evaluations, monitor fires, pending
// waiters, dirty-set depth, drain duration and a per-predicate frontier
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
		"Predicates marked dirty and awaiting the running drain's next pass.")
	r.frontiers = m.GaugeVec("stabilizer_frontier_seq",
		"Last computed stability frontier per predicate.", "predicate")
	r.drainDur = m.Histogram("stabilizer_frontier_tick_duration_seconds",
		"Drain duration: time to evaluate one pass over the dirty set.",
		metrics.LatencyOpts)
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
	p := newPredicate(key, prog, r.table.EvalLocked(prog))
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
		p := newPredicate(k, prog, r.table.EvalLocked(prog))
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
// re-evaluated immediately; note that switching to a stronger predicate can
// move the frontier backwards — the paper leaves handling that gap to the
// application, and so do we. Hooks and monitors stay silent until the new
// frontier passes the highest value they already saw. Pending waiters stay
// queued and are judged against the new predicate.
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
	// A swap to a weaker predicate can advance the frontier immediately;
	// monitors must hear about it just like a drain advance, or state
	// keyed to the frontier (send-log reclaim, most importantly) would wait
	// for an ACK that may never come — e.g. the degraded-mode fallback that
	// swaps reclaim to a majority predicate precisely because the full set
	// has stopped acking. The swap's effects queue behind any drain pass
	// already collected, so they publish in order with it.
	if p.frontier != old {
		r.pending.advances = append(r.pending.advances, p.advanceLocked())
		r.pending.released = append(r.pending.released, p.releaseWaitersLocked()...)
	}
	r.drainAndUnlock()
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
// returns a cancel function. Calls arrive one at a time, with strictly
// increasing frontiers. fn runs on the drain, which every other update
// waits behind: keep it short, and never block it on a later frontier
// (hand such work off to a goroutine).
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
	// Delete from the captured predicate: after Remove and a fresh Register
	// under key, a lookup by key would find the new predicate, whose
	// monitor ids restart at zero.
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(p.monitors, id)
	}, nil
}

// NoteCellUpdate records that recorder cell (node, typ) advanced: every
// predicate reading that cell is marked dirty, and drained at once unless a
// drain already running will pick it up.
func (r *Registry) NoteCellUpdate(node int, typ uint16) {
	r.mu.Lock()
	for p := range r.byCell[dsl.Cell{Node: node, Type: typ}] {
		r.dirty[p] = struct{}{}
	}
	r.drainAndUnlock()
}

// NoteNodeUpdate records that every stability counter of node advanced
// (Table.UpdateAll — the origin's own counters move on sequence
// assignment): every predicate depending on that node is marked dirty.
func (r *Registry) NoteNodeUpdate(node int) {
	r.mu.Lock()
	for p := range r.byNode[node] {
		r.dirty[p] = struct{}{}
	}
	r.drainAndUnlock()
}

// Recompute re-evaluates every registered predicate against the current
// ACK recorder state, regardless of dirtiness — for a caller that moved the
// table behind the Note* hooks (Table.Restore bypasses them).
func (r *Registry) Recompute() {
	r.mu.Lock()
	for _, p := range r.preds {
		r.dirty[p] = struct{}{}
	}
	r.drainAndUnlock()
}

// drainAndUnlock is the one drain path. If another goroutine holds the
// drain role it returns at once: the marks and pending swaps are already in
// place for that drain's next pass, which it collects under mu before it
// may give the role up. Otherwise the caller takes the role and drains
// until a pass finds nothing left. Caller holds mu; released on return.
func (r *Registry) drainAndUnlock() {
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(int64(len(r.dirty)))
	}
	if r.draining {
		r.mu.Unlock()
		return
	}
	r.draining = true
	// Give the role up even if a hook or monitor panics, so a recovered
	// panic does not leave every later update only marking dirty.
	defer func() {
		r.draining = false
		r.mu.Unlock()
	}()
	r.drainHeldLocked()
}

// drainHeldLocked runs drain passes for the holder of the drain role until
// one finds no work. Caller holds mu; it is released during each publish
// and held again on return, also when a callback panics.
func (r *Registry) drainHeldLocked() {
	for {
		work := r.collectLocked()
		if work.evals == 0 && len(work.advances) == 0 && len(work.released) == 0 {
			return
		}
		r.publishUnlocked(work)
	}
}

// publishUnlocked releases mu around publish and retakes it on the way
// out, panic included. Caller holds mu.
func (r *Registry) publishUnlocked(work flushWork) {
	r.mu.Unlock()
	defer r.mu.Lock()
	r.publish(work)
}

// advance is one frontier change to publish: p's gauge moves to f, and if
// f passes p.published, hooks and the monitors snapshotted with it fire.
type advance struct {
	p   *predicate
	f   uint64
	fns []MonitorFunc
}

// advanceLocked snapshots p's current frontier and monitors for
// publication. Caller holds mu.
func (p *predicate) advanceLocked() advance {
	a := advance{p: p, f: p.frontier}
	if len(p.monitors) > 0 {
		a.fns = make([]MonitorFunc, 0, len(p.monitors))
		for _, fn := range p.monitors {
			a.fns = append(a.fns, fn)
		}
	}
	return a
}

// flushWork is everything a drain pass produced under mu that must be
// published outside it: gauge moves and advance hooks first, then waiter
// releases, then monitor fires — so latency observers run before WaitFor
// returns.
type flushWork struct {
	advances []advance
	released []chan struct{}
	evals    int
	took     time.Duration
}

// collectLocked takes the pending swap work and evaluates and clears the
// dirty set. Caller holds mu.
func (r *Registry) collectLocked() flushWork {
	work := r.pending
	r.pending = flushWork{}
	if len(r.dirty) == 0 {
		return work
	}
	var start time.Time
	if r.drainDur != nil {
		start = time.Now()
	}
	for p := range r.dirty {
		delete(r.dirty, p)
		work.evals++
		f := r.table.EvalLocked(p.prog)
		if f <= p.frontier {
			continue
		}
		p.frontier = f
		work.advances = append(work.advances, p.advanceLocked())
		work.released = append(work.released, p.releaseWaitersLocked()...)
	}
	if r.dirtyPreds != nil {
		r.dirtyPreds.Set(0)
	}
	if r.drainDur != nil {
		work.took = time.Since(start)
	}
	return work
}

// publish applies a drain pass's effects outside the registry lock. Only
// the drain-role holder calls it, so passes publish one at a time and in
// collection order.
func (r *Registry) publish(work flushWork) {
	if work.evals > 0 {
		if r.recomputes != nil {
			r.recomputes.Inc()
		}
		if r.predEvals != nil {
			r.predEvals.Add(int64(work.evals))
		}
		if r.drainDur != nil {
			r.drainDur.Observe(int64(work.took))
		}
	}
	// The advance hook runs before waiters are released so observers (the
	// core's stability-latency samples) are recorded by the time a WaitFor
	// caller resumes. An advance at or below the published high-water — the
	// re-climb after a swap to a stronger predicate retreated the frontier —
	// moves only the gauge, so latency observers never sample the same
	// sequence twice and every per-key stream stays strictly increasing.
	fire := work.advances[:0]
	for _, a := range work.advances {
		r.setFrontierGauge(a.p.key, a.f)
		if a.f <= a.p.published {
			continue
		}
		old := a.p.published
		a.p.published = a.f
		r.publishAdvance(a.p.key, old, a.f)
		fire = append(fire, a)
	}
	r.addWaiters(-len(work.released))
	releaseAll(work.released)
	for _, a := range fire {
		for _, fn := range a.fns {
			fn(a.f)
		}
		if r.monitorFires != nil {
			r.monitorFires.Add(int64(len(a.fns)))
		}
	}
}

// publishAdvance delivers one frontier advance to the onAdvance hooks.
// Hooks must not re-enter the registry's OnAdvance cancel (they run under
// pubMu).
func (r *Registry) publishAdvance(key string, old, newF uint64) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
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

// newPredicate builds an unindexed predicate whose frontier starts at f.
func newPredicate(key string, prog *dsl.Program, f uint64) *predicate {
	return &predicate{
		key:       key,
		prog:      prog,
		cells:     prog.Cells(),
		frontier:  f,
		published: f,
		monitors:  make(map[int]MonitorFunc),
	}
}

func releaseAll(chans []chan struct{}) {
	for _, c := range chans {
		close(c)
	}
}
