package main

import (
	"time"

	"stabilizer/internal/core"
	"stabilizer/internal/optrace"
)

// Tracing settings for the traced pass. The recorder keeps every 32nd
// operation's point events; the ring is large enough that an operation's
// events survive until its commit is seen even at the saturating rate.
const (
	traceSampleEvery = 32
	traceRingSize    = 1 << 14
	// traceGap spaces the timeline queries: each one scans every node's
	// ring, so querying every sampled operation would swamp the run.
	traceGap = 20 * time.Millisecond
	// ackType is the stability type both commit predicates read (the DSL
	// default), so the ack that completes a commit is one of this type.
	ackType = "received"
	// residualTolerance is the reconciliation bound: the median of
	// |commit − Σ stages| / commit over decomposed operations.
	residualTolerance = 0.05
	// minDecomposed is the fewest decomposed operations a traced pass
	// accepts, and minDecomposedShare the smallest share of the queried
	// operations that must decompose, not counting evicted ones.
	minDecomposed      = 20
	minDecomposedShare = 0.9
)

// Stage names of the commit critical path, in causal order. Each is the
// difference of two timeline timestamps, so the stages of one operation
// sum to (commit seen by the benchmark) − (append), exactly.
var stageNames = []string{
	"transport.batch_queue", // append → drained into the critical peer's batch
	"transport.wire_send",   // drained → written to the peer's connection
	"transport.flight",      // written → read by the peer
	"transport.deliver",     // read → applied with delivery upcalls run
	"transport.ack_return",  // applied → the peer's covering ack ingested at the origin
	"frontier.wait",         // that ack → the origin's stabilize event
	"frontier.release",      // stabilize event → WaitFor return or monitor callback
}

// sampledOp is one committed operation offered for decomposition. start is
// when the benchmark started the operation (the Send call, or the due time
// of an open-loop append); done is when it saw the commit.
type sampledOp struct {
	origin      int
	seq         uint64
	start, done int64
}

// tracer decomposes sampled operations into stages from the merged
// timelines Cluster.TraceOp returns.
type tracer struct {
	// cl and key are the current round's cluster and commit predicate
	// key (as Stabilize events label it); set before run starts.
	cl     *core.Cluster
	key    string
	offers chan sampledOp

	stages    [7]samples
	residuals samples
	queried   int
	decomp    int
	// evicted counts queried operations whose Append event the origin's
	// ring had already overwritten: it records Append for every sampled
	// operation inside Send, so a missing one can only mean the operation
	// outlived the ring (an append held up by an outage).
	evicted int
}

func newTracer() *tracer {
	t := &tracer{
		// One slot: an offer made while a query runs is dropped, so a
		// queried operation is never older than one query plus traceGap.
		offers:    make(chan sampledOp, 1),
		residuals: newSamples(4096),
	}
	for i := range t.stages {
		t.stages[i] = newSamples(4096)
	}
	return t
}

// sampled reports whether the recorders keep op's point events.
func sampled(origin int, seq uint64) bool {
	return optrace.SampledAt(traceSampleEvery, origin, seq)
}

// offer hands a committed sampled operation to the tracer without blocking.
func (t *tracer) offer(op sampledOp) {
	select {
	case t.offers <- op:
	default:
	}
}

// run decomposes offered operations until stop closes. An offer left
// over from the previous round's cluster is dropped first.
func (t *tracer) run(stop <-chan struct{}) {
	select {
	case <-t.offers:
	default:
	}
	for {
		select {
		case <-stop:
			return
		case op := <-t.offers:
			t.queried++
			st, ok, evicted := t.decompose(op)
			if evicted {
				t.evicted++
			}
			if ok {
				t.decomp++
				var sum int64
				for i, d := range st {
					t.stages[i].add(d)
					sum += d
				}
				commit := op.done - op.start
				if commit > 0 {
					r := commit - sum
					if r < 0 {
						r = -r
					}
					t.residuals.add(r * 1e6 / commit) // parts per million
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(traceGap):
			}
		}
	}
}

// decompose splits one operation's commit path into stageNames. The
// critical peer is the one whose covering ack arrived last before the
// stabilize event: that ack completed the predicate.
func (t *tracer) decompose(op sampledOp) (st [7]int64, ok, evicted bool) {
	tl, err := t.cl.TraceOp(op.origin, op.seq)
	if err != nil {
		return st, false, false
	}
	const none = int64(-1)
	appendTS, stabTS := none, none
	firstAck := map[int]int64{}
	for _, ev := range tl.Events {
		switch {
		case ev.Node != op.origin:
		case ev.Stage == optrace.StageAppend:
			appendTS = ev.TS
		case ev.Stage == optrace.StageStabilize && ev.Label == t.key:
			if stabTS == none || ev.TS < stabTS {
				stabTS = ev.TS
			}
		case ev.Stage == optrace.StageAck && ev.Label == ackType && ev.Peer != op.origin:
			if ts, ok := firstAck[ev.Peer]; !ok || ev.TS < ts {
				firstAck[ev.Peer] = ev.TS
			}
		}
	}
	if appendTS == none || stabTS == none {
		return st, false, appendTS == none
	}
	peer, ackTS := 0, none
	for p, ts := range firstAck {
		if ts <= stabTS && ts > ackTS {
			peer, ackTS = p, ts
		}
	}
	if peer == 0 {
		return st, false, false
	}
	recvTS, deliverTS := none, none
	for _, ev := range tl.Events {
		if ev.Node != peer {
			continue
		}
		switch ev.Stage {
		case optrace.StageWireRecv:
			if recvTS == none || ev.TS < recvTS {
				recvTS = ev.TS
			}
		case optrace.StageDeliver:
			deliverTS = ev.TS
		}
	}
	if recvTS == none || deliverTS == none {
		return st, false, false
	}
	// The write that carried the op is the last one before the peer read
	// it, and its batch the last drained before that write: earlier
	// attempts died with a severed connection and were resent.
	sendTS, enqTS := none, none
	for _, ev := range tl.Events {
		if ev.Node == op.origin && ev.Peer == peer && ev.Stage == optrace.StageWireSend && ev.TS <= recvTS && ev.TS > sendTS {
			sendTS = ev.TS
		}
	}
	for _, ev := range tl.Events {
		if ev.Node == op.origin && ev.Peer == peer && ev.Stage == optrace.StageBatchEnqueue && ev.TS <= sendTS && ev.TS > enqTS {
			enqTS = ev.TS
		}
	}
	if sendTS == none || enqTS == none {
		return st, false, false
	}
	st = [7]int64{
		enqTS - appendTS,
		sendTS - enqTS,
		recvTS - sendTS,
		deliverTS - recvTS,
		ackTS - deliverTS,
		stabTS - ackTS,
		op.done - stabTS,
	}
	return st, true, false
}
