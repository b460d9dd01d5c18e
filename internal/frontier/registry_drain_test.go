package frontier

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stabilizer/internal/metrics"
)

// holdDrain takes reg's drain role the way a drain running on another
// goroutine holds it: from then on updates only mark predicates dirty and
// swaps only queue their effects, until the returned flush runs the held
// drain's passes.
func holdDrain(reg *Registry) (flush func()) {
	reg.mu.Lock()
	reg.draining = true
	reg.mu.Unlock()
	return func() {
		reg.mu.Lock()
		reg.drainHeldLocked()
		reg.mu.Unlock()
	}
}

func TestDeferredMarksDirtyUntilFlush(t *testing.T) {
	reg, table, _ := newTestRegistry(2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	// With the drain role held, drains happen only when we ask.
	flush := holdDrain(reg)

	table.Update(1, TypeReceived, 5)
	table.Update(2, TypeReceived, 5)
	reg.NoteCellUpdate(1, TypeReceived)
	reg.NoteCellUpdate(2, TypeReceived)
	if f, _ := reg.Frontier("p"); f != 0 {
		t.Fatalf("frontier advanced before the drain: %d", f)
	}
	if d := reg.DirtyCount(); d != 1 {
		t.Fatalf("dirty count = %d, want 1 (same predicate marked twice)", d)
	}
	flush()
	if f, _ := reg.Frontier("p"); f != 5 {
		t.Fatalf("frontier after drain = %d, want 5", f)
	}
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("dirty count after drain = %d, want 0", d)
	}
}

func TestIncrementalDirtiesOnlyReaders(t *testing.T) {
	reg, table, _ := newTestRegistry(2)
	if err := reg.Register("recv", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("deliv", "MIN($ALLWNODES.delivered)"); err != nil {
		t.Fatal(err)
	}
	flush := holdDrain(reg)

	// A cell nobody reads dirties nothing.
	reg.NoteCellUpdate(1, TypePersisted)
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("unread cell dirtied %d predicates", d)
	}
	// A received cell dirties only the predicate reading received.
	table.Update(1, TypeReceived, 2)
	reg.NoteCellUpdate(1, TypeReceived)
	if d := reg.DirtyCount(); d != 1 {
		t.Fatalf("received cell dirtied %d predicates, want 1", d)
	}
	// A whole-node advance (UpdateAll) dirties every predicate that
	// depends on the node, whatever type it reads.
	reg.NoteNodeUpdate(1)
	if d := reg.DirtyCount(); d != 2 {
		t.Fatalf("node update dirtied %d predicates, want 2", d)
	}
	flush()
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("dirty count after drain = %d", d)
	}

	// Change swaps the index along with the program: the old read set no
	// longer dirties the predicate, the new one does.
	if err := reg.Change("deliv", "MIN($ALLWNODES.persisted)"); err != nil {
		t.Fatal(err)
	}
	reg.NoteCellUpdate(1, TypeDelivered)
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("stale index: delivered cell dirtied %d predicates after Change", d)
	}
	reg.NoteCellUpdate(1, TypePersisted)
	if d := reg.DirtyCount(); d != 1 {
		t.Fatalf("persisted cell dirtied %d predicates, want 1", d)
	}
	// Remove detaches from the index entirely.
	flush()
	if err := reg.Remove("recv"); err != nil {
		t.Fatal(err)
	}
	reg.NoteCellUpdate(1, TypeReceived)
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("removed predicate still indexed: dirty = %d", d)
	}
}

// assertSettled is the lost-wakeup check: once every updater has returned,
// no predicate may be left marked, and every frontier must equal a fresh
// evaluation of its program over the table.
func assertSettled(t *testing.T, reg *Registry, table *Table) {
	t.Helper()
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("%d predicates left dirty after every updater returned", d)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for key, p := range reg.preds {
		if want := table.EvalLocked(p.prog); p.frontier != want {
			t.Fatalf("frontier(%q) = %d, fresh evaluation %d: an update was lost", key, p.frontier, want)
		}
	}
}

// TestMonitorDeliveryMonotonePerKey drives many goroutines advancing
// recorder cells at once and requires every monitor and every OnAdvance
// hook to see strictly increasing frontiers per key: one drain publishes at
// a time, so a drain can never deliver an older frontier after a newer one.
func TestMonitorDeliveryMonotonePerKey(t *testing.T) {
	const (
		n       = 4
		perNode = 3 // updater goroutines per node
		maxSeq  = 2000
	)
	reg, table, _ := newTestRegistry(n)
	srcs := map[string]string{
		"min":  "MIN($ALLWNODES)",
		"max":  "MAX($ALLWNODES)",
		"kth2": "KTH_MIN(2, $ALLWNODES)",
		"pair": "MIN($1, $2)",
	}
	if err := reg.RegisterBatch(srcs); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	last := make(map[string]uint64)
	var bad []string
	record := func(channel, key string, f uint64) {
		mu.Lock()
		defer mu.Unlock()
		id := channel + "/" + key
		if f <= last[id] && len(bad) < 10 {
			bad = append(bad, fmt.Sprintf("%s: %d after %d", id, f, last[id]))
		}
		last[id] = max(last[id], f)
	}
	for key := range srcs {
		if _, err := reg.Monitor(key, func(f uint64) { record("monitor", key, f) }); err != nil {
			t.Fatal(err)
		}
	}
	defer reg.OnAdvance(func(key string, _, f uint64) { record("hook", key, f) })()

	var wg sync.WaitGroup
	for node := 1; node <= n; node++ {
		for g := 0; g < perNode; g++ {
			wg.Add(1)
			go func(node, g int) {
				defer wg.Done()
				for s := uint64(g + 1); s <= maxSeq; s += perNode {
					table.Update(node, TypeReceived, s)
					reg.NoteCellUpdate(node, TypeReceived)
				}
			}(node, g)
		}
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("out-of-order deliveries: %v", bad)
	}
	assertSettled(t, reg, table)
	for key := range srcs {
		for _, ch := range []string{"monitor", "hook"} {
			if got := last[ch+"/"+key]; got != maxSeq {
				t.Fatalf("%s/%s last saw %d, want %d", ch, key, got, maxSeq)
			}
		}
	}
}

// TestDrainCoalescesBehindBlockedMonitor holds a drain inside a monitor
// callback: updates on other goroutines must then return at once, having
// only marked their predicates, and the held drain must absorb all of them
// in exactly one more pass once the callback returns.
func TestDrainCoalescesBehindBlockedMonitor(t *testing.T) {
	const n, updaters = 4, 32
	reg, table, _ := newTestRegistry(n)
	reg.EnableMetrics(metrics.NewRegistry())
	srcs := map[string]string{"gate": "MAX($1)", "all": "MIN($ALLWNODES)"}
	for node := 2; node <= n; node++ {
		srcs[fmt.Sprintf("n%d", node)] = fmt.Sprintf("MAX($%d)", node)
	}
	if err := reg.RegisterBatch(srcs); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if _, err := reg.Monitor("gate", func(uint64) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}); err != nil {
		t.Fatal(err)
	}

	// The first update drains on its own goroutine and blocks in the
	// gate's monitor, holding the drain role.
	held := make(chan struct{})
	go func() {
		defer close(held)
		table.Update(1, TypeReceived, 1)
		reg.NoteCellUpdate(1, TypeReceived)
	}()
	<-entered
	passes, evals := reg.recomputes.Value(), reg.predEvals.Value()
	if passes != 1 {
		t.Fatalf("%d drain passes before the callback blocked, want 1", passes)
	}

	var wg sync.WaitGroup
	for i := 0; i < updaters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := 2 + i%(n-1)
			table.Update(node, TypeReceived, uint64(i+1))
			reg.NoteCellUpdate(node, TypeReceived)
		}(i)
	}
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("updaters blocked behind the running drain instead of marking and returning")
	}
	if got := reg.recomputes.Value(); got != passes {
		t.Fatalf("updaters drained while another drain was running: %d passes, want %d", got, passes)
	}
	marked := reg.DirtyCount()
	if want := n; marked != want { // n2..n4 and all
		t.Fatalf("%d predicates marked behind the held drain, want %d", marked, want)
	}
	for node := 2; node <= n; node++ {
		if f, _ := reg.Frontier(fmt.Sprintf("n%d", node)); f != 0 {
			t.Fatalf("n%d advanced to %d before the held drain's next pass", node, f)
		}
	}

	close(release)
	<-held
	if got := reg.recomputes.Value(); got != passes+1 {
		t.Fatalf("held drain took %d more passes to absorb the marks, want 1", got-passes)
	}
	if got := reg.predEvals.Value(); got != evals+int64(marked) {
		t.Fatalf("absorbing pass evaluated %d predicates, want %d", got-evals, marked)
	}
	assertSettled(t, reg, table)
}

// TestMonitorCancelAfterReRegister: a cancel func kept from before Remove
// must not detach a monitor of the predicate later registered under the
// same key, even though monitor ids restart at zero.
func TestMonitorCancelAfterReRegister(t *testing.T) {
	reg, table, _ := newTestRegistry(1)
	if err := reg.Register("k", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	staleCancel, err := reg.Monitor("k", func(uint64) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("k", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	var fired []uint64
	if _, err := reg.Monitor("k", func(f uint64) { fired = append(fired, f) }); err != nil {
		t.Fatal(err)
	}
	staleCancel()
	table.Update(1, TypeReceived, 3)
	reg.NoteCellUpdate(1, TypeReceived)
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("new monitor saw %v, want [3]: the stale cancel detached it", fired)
	}
}

// TestDrainRoleSurvivesCallbackPanic: a monitor that panics unwinds the
// drain holding the role; once the caller recovers, the role must be free
// and the lock released, so the next update drains and advances at once.
func TestDrainRoleSurvivesCallbackPanic(t *testing.T) {
	reg, table, _ := newTestRegistry(1)
	if err := reg.Register("k", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Monitor("k", func(f uint64) {
		if f == 1 {
			panic("monitor failed")
		}
	}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("monitor panic did not reach the updater")
			}
		}()
		table.Update(1, TypeReceived, 1)
		reg.NoteCellUpdate(1, TypeReceived)
	}()
	table.Update(1, TypeReceived, 2)
	reg.NoteCellUpdate(1, TypeReceived)
	if f, _ := reg.Frontier("k"); f != 2 {
		t.Fatalf("frontier after a recovered monitor panic = %d, want 2: the drain role stayed held", f)
	}
	if d := reg.DirtyCount(); d != 0 {
		t.Fatalf("dirty count = %d, want 0", d)
	}
}

// TestReleaseOrderSeqSorted is the white-box heap contract: waiters come
// off releaseWaitersLocked in ascending seq order, never past the
// frontier, and the survivors keep a consistent heap index.
func TestReleaseOrderSeqSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := &predicate{}
	seqOf := make(map[chan struct{}]uint64)
	const waiters, cut = 1000, 100
	for i := 0; i < waiters; i++ {
		w := &waiter{seq: uint64(rng.Intn(2*cut)) + 1, done: make(chan struct{})}
		heap.Push(&p.waiters, w)
		seqOf[w.done] = w.seq
	}
	// Detach a random subset first, like concurrent cancellations would.
	for i := 0; i < 100; i++ {
		heap.Remove(&p.waiters, rng.Intn(p.waiters.Len()))
	}
	p.frontier = cut
	released := p.releaseWaitersLocked()
	prev := uint64(0)
	for _, c := range released {
		s := seqOf[c]
		if s < prev {
			t.Fatalf("release order not seq-sorted: %d after %d", s, prev)
		}
		if s > cut {
			t.Fatalf("phantom release: seq %d > frontier %d", s, cut)
		}
		prev = s
	}
	for i, w := range p.waiters {
		if w.idx != i {
			t.Fatalf("heap index corrupt: waiters[%d].idx = %d", i, w.idx)
		}
		if w.seq <= cut {
			t.Fatalf("waiter seq %d <= frontier %d left unreleased", w.seq, cut)
		}
	}
}

// TestMassCancelBoundedTime is the en-masse cancellation regression: with
// the heap's O(log n) detach, cancelling massCancelWaiters parked waiters
// finishes in seconds; the old linear scan under the registry lock made
// this wave quadratic.
func TestMassCancelBoundedTime(t *testing.T) {
	reg, _, _ := newTestRegistry(2)
	if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, massCancelWaiters)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = reg.WaitFor(ctx, uint64(i+1), "p")
		}(i)
	}
	parkBy := time.Now().Add(60 * time.Second)
	for reg.WaiterCount() != massCancelWaiters {
		if time.Now().After(parkBy) {
			t.Fatalf("only %d/%d waiters parked", reg.WaiterCount(), massCancelWaiters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	if n := reg.WaiterCount(); n != 0 {
		t.Fatalf("%d waiters left attached after cancellation", n)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrWaitCancelled) {
			t.Fatalf("waiter %d: err = %v, want ErrWaitCancelled", i, err)
		}
	}
	// Generous tripwire: the O(n²) scan took minutes at this size; the
	// heap finishes in well under a second of detach work (wall clock is
	// dominated by waking the goroutines).
	if limit := 20 * time.Second; elapsed > limit {
		t.Fatalf("mass cancel took %v, want < %v", elapsed, limit)
	}
	t.Logf("cancelled %d waiters in %v", massCancelWaiters, elapsed)
}

// TestConcurrentWaitCancelChangeProperty drives randomized concurrent
// WaitFor / cancellation / Change / table-update / Remove interleavings
// and asserts the release property: a waiter that resumed successfully
// before Remove had seq <= the final frontier (no phantom release), every
// waiter with seq <= frontier is released once the dust settles
// (completeness), and cancellations never strand heap entries.
func TestConcurrentWaitCancelChangeProperty(t *testing.T) {
	const (
		n       = 3
		waiters = 300
		maxSeq  = 200 // every node's counter ends here, so F = maxSeq
	)
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(int64(1000 + round)))
		reg, table, _ := newTestRegistry(n)
		if err := reg.Register("p", "MIN($ALLWNODES)"); err != nil {
			t.Fatal(err)
		}

		// Inputs (written before spawning, read-only afterwards) live apart
		// from outcomes (written only by waiter i, read after wg.Wait()) so
		// the main goroutine can inspect inputs while waiters still run.
		seqs := make([]uint64, waiters)
		cancels := make([]bool, waiters)
		type wres struct {
			preRemove bool // returned before Remove started
			err       error
		}
		results := make([]wres, waiters)
		var removed atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			seq := uint64(rng.Intn(2*maxSeq)) + 1
			doCancel := rng.Intn(5) == 0
			seqs[i] = seq
			cancels[i] = doCancel
			delay := time.Duration(rng.Intn(2000)) * time.Microsecond
			wg.Add(1)
			go func(i int, seq uint64, doCancel bool, delay time.Duration) {
				defer wg.Done()
				ctx := context.Background()
				if doCancel {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				err := reg.WaitFor(ctx, seq, "p")
				results[i].preRemove = !removed.Load()
				results[i].err = err
			}(i, seq, doCancel, delay)
		}

		var updWg sync.WaitGroup
		for node := 1; node <= n; node++ {
			updWg.Add(1)
			go func(node int) {
				defer updWg.Done()
				for s := uint64(1); s <= maxSeq; s++ {
					table.Update(node, TypeReceived, s)
					reg.NoteCellUpdate(node, TypeReceived)
				}
			}(node)
		}
		// Swap between semantically equivalent predicates while updates
		// and waits are in flight: the frontier stays monotonic, but the
		// swap path (unindex/reindex, immediate re-eval, waiter re-judge)
		// races everything else.
		updWg.Add(1)
		go func() {
			defer updWg.Done()
			srcs := []string{"KTH_MIN(1, $ALLWNODES)", "MIN($ALLWNODES)"}
			for i := 0; i < 20; i++ {
				if err := reg.Change("p", srcs[i%2]); err != nil {
					t.Errorf("change: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		updWg.Wait()
		reg.Recompute()
		frontier, err := reg.Frontier("p")
		if err != nil {
			t.Fatal(err)
		}
		if frontier != maxSeq {
			t.Fatalf("round %d: final frontier = %d, want %d", round, frontier, maxSeq)
		}

		// Completeness: once quiesced, exactly the non-cancelled waiters
		// beyond the frontier are still parked.
		wantParked := 0
		for i := range seqs {
			if !cancels[i] && seqs[i] > frontier {
				wantParked++
			}
		}
		settleBy := time.Now().Add(30 * time.Second)
		for reg.WaiterCount() != wantParked {
			if time.Now().After(settleBy) {
				t.Fatalf("round %d: %d waiters parked after quiesce, want %d",
					round, reg.WaiterCount(), wantParked)
			}
			time.Sleep(time.Millisecond)
		}

		removed.Store(true)
		if err := reg.Remove("p"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		for i, r := range results {
			if r.err == nil && r.preRemove && seqs[i] > frontier {
				t.Fatalf("round %d: waiter %d released with seq %d > frontier %d",
					round, i, seqs[i], frontier)
			}
			if r.err != nil {
				if !errors.Is(r.err, ErrWaitCancelled) {
					t.Fatalf("round %d: waiter %d unexpected error %v", round, i, r.err)
				}
				if !cancels[i] {
					t.Fatalf("round %d: waiter %d cancelled without a cancel", round, i)
				}
			}
		}
		if n := reg.WaiterCount(); n != 0 {
			t.Fatalf("round %d: %d waiters left after Remove", round, n)
		}
	}
}
