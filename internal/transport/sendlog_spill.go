package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"stabilizer/internal/storage/segment"
)

// The spill tier turns the bounded in-memory send log into the hot tail of
// a two-tier log: [diskOldest, memBase) lives in epoch-numbered segment
// files on disk, [memBase, next) in memory. The spiller goroutine migrates
// the cold merged prefix downward when the admission watermark latches;
// readers cross the disk→memory boundary transparently inside the same
// batched drain calls the links already use. Sequences stay gapless across
// the boundary: a segment is registered (and its entries dropped from
// memory) only after its file is fsynced, and successive segments are
// contiguous by construction.

// defaultSpillSegmentBytes bounds each segment file's payload when the
// caller does not choose (4 MiB: large enough to amortize open/sync, small
// enough that truncation reclaims disk promptly).
const defaultSpillSegmentBytes = 4 << 20

// spillRecordOverhead is the per-record body prefix: sequence and
// sent-timestamp, both big-endian.
const spillRecordOverhead = 16

const (
	spillSegPrefix = "spill-"
	spillSegSuffix = ".seg"
)

// spillSegment is one sealed, fsynced segment file holding the contiguous
// sequence range [first, last].
type spillSegment struct {
	path  string
	first uint64
	last  uint64
	bytes int64 // payload bytes written (dead prefixes included until delete)
}

// spillState is the disk tier of a FlowSpill SendLog. Lock order: l.mu may
// be held when taking sp.mu, never the reverse — disk reads run under sp.mu
// alone so they cannot stall appends, and the truncate/registration paths
// that need both take l.mu first.
type spillState struct {
	dir      string
	segBytes int64

	mu    sync.Mutex
	segs  []spillSegment // ascending, contiguous ranges
	trunc uint64         // highest reclaimed sequence (mirror of l.reclaimed)
	epoch uint64         // number for the next segment file

	// Cached sequential reader: the common case is one lagging peer
	// draining the tier in order, so keep its position (and a one-entry
	// peek, letting TryNext probe the same sequence TryNextBatch then
	// consumes) instead of reopening per call.
	rd     *segment.Reader
	rdSeg  int    // index into segs of rd's file
	rdNext uint64 // next sequence rd will yield
	peek   LogEntry
	peekOK bool

	spilled  atomic.Int64 // payload bytes across live segments
	segCount atomic.Int64
	readback atomic.Int64 // cumulative payload bytes served from disk
	degraded atomic.Bool  // spill writes currently failing

	faultMu sync.Mutex
	fault   error

	horizon atomic.Pointer[func() uint64]

	// The segment the spiller is writing outside l.mu, guarded by mu:
	// its path and last sequence ("" when no write is in flight), whether
	// its file exists yet, and whether a truncate reclaimed its whole
	// range. A truncate that dooms it deletes the file itself — or keeps
	// it from being created — so a full reclaim leaves no file behind.
	wPath    string
	wLast    uint64
	wCreated bool
	wDoomed  bool

	kick      chan struct{} // buffered(1): wake the spiller
	done      chan struct{} // closed when the spiller exits
	closeOnce sync.Once

	// Spiller-goroutine-only scratch.
	batch  []LogEntry
	encBuf []byte
}

func newSpillState(flow FlowConfig) (*spillState, error) {
	if err := os.MkdirAll(flow.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: spill dir: %w", err)
	}
	segBytes := flow.SpillSegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSpillSegmentBytes
	}
	sp := &spillState{
		dir:      flow.SpillDir,
		segBytes: segBytes,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if err := sp.recover(); err != nil {
		return nil, err
	}
	return sp, nil
}

// recover rebuilds the segment chain from the files left by a previous
// incarnation: segments are replayed in epoch order and kept while they form
// one contiguous, CRC-intact sequence chain. A torn tail truncates that
// segment's range (crash mid-spill); everything after the first break is
// unreachable through a gapless stream and is deleted.
func (sp *spillState) recover() error {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return fmt.Errorf("transport: spill recover: %w", err)
	}
	type segFile struct {
		epoch uint64
		path  string
	}
	var files []segFile
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, spillSegPrefix) || !strings.HasSuffix(name, spillSegSuffix) {
			continue
		}
		epStr := strings.TrimSuffix(strings.TrimPrefix(name, spillSegPrefix), spillSegSuffix)
		ep, err := strconv.ParseUint(epStr, 10, 64)
		if err != nil {
			continue // not ours
		}
		files = append(files, segFile{epoch: ep, path: filepath.Join(sp.dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].epoch < files[j].epoch })

	broken := false
	for _, f := range files {
		if f.epoch >= sp.epoch {
			sp.epoch = f.epoch + 1
		}
		if broken {
			_ = os.Remove(f.path)
			continue
		}
		seg, intact, ok := scanSpillFile(f.path)
		if !ok {
			// Empty or unreadable from the first record: nothing usable,
			// and anything after it cannot chain.
			broken = true
			_ = os.Remove(f.path)
			continue
		}
		if n := len(sp.segs); n > 0 && seg.first != sp.segs[n-1].last+1 {
			broken = true // chain gap: later epochs are unreachable
			_ = os.Remove(f.path)
			continue
		}
		sp.segs = append(sp.segs, seg)
		sp.spilled.Add(seg.bytes)
		if !intact {
			broken = true // torn tail: this segment ends the chain
		}
	}
	sp.segCount.Store(int64(len(sp.segs)))
	return nil
}

// scanSpillFile replays one segment file, returning its contiguous intact
// range. intact is false when the file ends in a torn or corrupt record
// (the returned range still covers the intact prefix); ok is false when no
// record is usable.
func scanSpillFile(path string) (seg spillSegment, intact, ok bool) {
	seg.path = path
	r, err := segment.OpenReader(path)
	if err != nil {
		return seg, false, false
	}
	defer r.Close()
	intact = true
	for {
		body, err := r.Next()
		if err != nil {
			return seg, intact, ok // clean EOF keeps intact=true
		}
		e, decOK := decodeSpillRecord(body)
		if !decOK || (ok && e.Seq != seg.last+1) {
			// Undecodable or discontiguous record: treat as a torn tail.
			return seg, false, ok
		}
		if !ok {
			seg.first = e.Seq
			ok = true
		}
		seg.last = e.Seq
		seg.bytes += int64(len(e.Payload))
	}
}

func encodeSpillRecord(buf []byte, e LogEntry) []byte {
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.SentUnixNano))
	buf = append(buf, e.Payload...)
	return buf
}

func decodeSpillRecord(body []byte) (LogEntry, bool) {
	if len(body) < spillRecordOverhead {
		return LogEntry{}, false
	}
	return LogEntry{
		Seq:          binary.BigEndian.Uint64(body[:8]),
		SentUnixNano: int64(binary.BigEndian.Uint64(body[8:16])),
		Payload:      body[16:],
	}, true
}

func (sp *spillState) setFault(cause error) {
	sp.faultMu.Lock()
	sp.fault = cause
	sp.faultMu.Unlock()
}

func (sp *spillState) loadFault() error {
	sp.faultMu.Lock()
	defer sp.faultMu.Unlock()
	return sp.fault
}

// oldest returns the oldest live on-disk sequence (reclaimed prefixes of
// the first segment excluded). ok is false when the disk tier is empty.
func (sp *spillState) oldest() (uint64, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.oldestLocked()
}

func (sp *spillState) oldestLocked() (uint64, bool) {
	if len(sp.segs) == 0 {
		return 0, false
	}
	first := sp.segs[0].first
	if sp.trunc+1 > first {
		first = sp.trunc + 1
	}
	return first, true
}

// nextSegPathLocked reserves the next epoch number. Caller holds sp.mu.
func (sp *spillState) nextSegPathLocked() string {
	p := filepath.Join(sp.dir, fmt.Sprintf("%s%08d%s", spillSegPrefix, sp.epoch, spillSegSuffix))
	sp.epoch++
	return p
}

// discardAllLocked drops every recovered segment (used when a checkpoint
// makes the recovered chain unsequenceable). Called before the log is
// shared, so no locking.
func (sp *spillState) discardAllLocked() {
	for _, s := range sp.segs {
		_ = os.Remove(s.path)
	}
	sp.segs = nil
	sp.spilled.Store(0)
	sp.segCount.Store(0)
}

// truncate reclaims every on-disk sequence <= seq: whole segments below the
// watermark are deleted; a segment straddling it keeps its file until its
// last sequence is reclaimed (readers skip the dead prefix via trunc).
// Caller holds l.mu.
func (sp *spillState) truncate(seq uint64) {
	sp.mu.Lock()
	if seq > sp.trunc {
		sp.trunc = seq
	}
	removed := 0
	var victims []string
	for removed < len(sp.segs) && sp.segs[removed].last <= seq {
		sp.spilled.Add(-sp.segs[removed].bytes)
		victims = append(victims, sp.segs[removed].path)
		removed++
	}
	if removed > 0 {
		sp.segs = sp.segs[:copy(sp.segs, sp.segs[removed:])]
		sp.segCount.Store(int64(len(sp.segs)))
		if sp.rd != nil {
			if sp.rdSeg < removed {
				_ = sp.rd.Close()
				sp.rd = nil
			} else {
				sp.rdSeg -= removed
			}
		}
	}
	if sp.peekOK && sp.peek.Seq <= seq {
		sp.peekOK = false
	}
	if sp.wPath != "" && !sp.wDoomed && sp.wLast <= seq {
		// The in-flight segment is stillborn. The spiller still owns its
		// open file, but unlinking it under the writer is harmless.
		sp.wDoomed = true
		if sp.wCreated {
			victims = append(victims, sp.wPath)
		}
	}
	sp.mu.Unlock()
	for _, p := range victims {
		_ = os.Remove(p)
	}
}

// readOne returns the entry at seq from the disk tier. resume is the
// sequence the caller should retry from when the requested one is gone:
// the oldest retained sequence if seq fell below it, or memBase when the
// whole remaining range below memBase has been reclaimed. ok=false with
// resume==seq means the tier is wedged (an unreadable sealed segment) and
// the caller should stall rather than skip.
func (sp *spillState) readOne(seq, memBase uint64) (e LogEntry, ok bool, resume uint64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	oldest, any := sp.oldestLocked()
	if !any {
		return LogEntry{}, false, memBase // nothing on disk: all reclaimed
	}
	if seq < oldest {
		seq = oldest
	}
	if seq >= memBase {
		return LogEntry{}, false, seq
	}
	if top := sp.segs[len(sp.segs)-1].last; seq > top {
		// Beyond the spilled range but below memBase: reclaimed after
		// spilling (see tier invariants in DESIGN.md par.15).
		return LogEntry{}, false, memBase
	}
	ent, got := sp.nextLocked(seq)
	if !got {
		return LogEntry{}, false, seq // wedged
	}
	sp.readback.Add(int64(len(ent.Payload)))
	return ent, true, seq
}

// readBatch appends entries [seq, memBase) from the disk tier to dst,
// bounded by the caller's frame and byte budgets. start is the dst length
// at the top of the caller's whole batch (for the oversize first-frame
// rule). Returns the extended dst, the next sequence to read, and ok=false
// when the tier is wedged.
func (sp *spillState) readBatch(seq, memBase uint64, dst []LogEntry, start, maxFrames int, budget *int) ([]LogEntry, uint64, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	oldest, any := sp.oldestLocked()
	if !any {
		return dst, memBase, true
	}
	if seq < oldest {
		seq = oldest
	}
	top := sp.segs[len(sp.segs)-1].last
	for len(dst)-start < maxFrames && seq < memBase {
		if seq > top {
			return dst, memBase, true // reclaimed gap between tiers
		}
		e, got := sp.nextLocked(seq)
		if !got {
			return dst, seq, false // wedged: stall, never gap
		}
		if len(dst) > start && len(e.Payload) > *budget {
			return dst, seq, true
		}
		dst = append(dst, e)
		*budget -= len(e.Payload)
		sp.readback.Add(int64(len(e.Payload)))
		seq++
	}
	return dst, seq, true
}

// nextLocked returns the entry at seq using the cached sequential reader,
// repositioning it when the request is not the next in line. Caller holds
// sp.mu and has established first <= seq <= top.
func (sp *spillState) nextLocked(seq uint64) (LogEntry, bool) {
	if sp.peekOK && sp.peek.Seq == seq {
		return sp.peek, true
	}
	if sp.rd == nil || sp.rdNext > seq || sp.rdSeg >= len(sp.segs) || seq > sp.segs[sp.rdSeg].last && sp.rdNext != sp.segs[sp.rdSeg].last+1 {
		// Reposition: binary-search the segment holding seq and start a
		// fresh reader at its head (records below seq are skipped).
		idx := sort.Search(len(sp.segs), func(i int) bool { return sp.segs[i].last >= seq })
		if idx == len(sp.segs) || sp.segs[idx].first > seq {
			return LogEntry{}, false
		}
		if !sp.openSegLocked(idx) {
			return LogEntry{}, false
		}
	}
	for {
		if sp.rdNext > sp.segs[sp.rdSeg].last {
			// Cross into the next segment (contiguous by construction).
			if sp.rdSeg+1 >= len(sp.segs) {
				return LogEntry{}, false
			}
			if !sp.openSegLocked(sp.rdSeg + 1) {
				return LogEntry{}, false
			}
		}
		body, err := sp.rd.Next()
		if err == io.EOF || err != nil {
			// A sealed segment ended before its recorded range: disk
			// corruption after the seal. Wedge rather than fabricate a
			// gap; the stall monitor surfaces the blame.
			sp.dropReaderLocked()
			return LogEntry{}, false
		}
		e, ok := decodeSpillRecord(body)
		if !ok || e.Seq != sp.rdNext {
			sp.dropReaderLocked()
			return LogEntry{}, false
		}
		// The segment reader hands out a fresh allocation per record, so
		// the payload (a sub-slice of it) is safe to retain and share.
		sp.rdNext++
		if e.Seq == seq {
			sp.peek, sp.peekOK = e, true
			return e, true
		}
		// e.Seq < seq: skipping the dead or already-consumed prefix.
	}
}

func (sp *spillState) openSegLocked(idx int) bool {
	if sp.rd != nil {
		_ = sp.rd.Close()
		sp.rd = nil
	}
	rd, err := segment.OpenReader(sp.segs[idx].path)
	if err != nil {
		return false
	}
	sp.rd, sp.rdSeg, sp.rdNext = rd, idx, sp.segs[idx].first
	sp.peekOK = false
	return true
}

func (sp *spillState) dropReaderLocked() {
	if sp.rd != nil {
		_ = sp.rd.Close()
		sp.rd = nil
	}
	sp.peekOK = false
}

// kickSpill wakes the spiller without blocking (coalescing with a pending
// wakeup). Safe under l.mu.
func (l *SendLog) kickSpill() {
	select {
	case l.spill.kick <- struct{}{}:
	default:
	}
}

// spiller is the background migration goroutine: each wakeup drains the
// cold merged prefix into segment files until the admission latch clears.
func (l *SendLog) spiller() {
	sp := l.spill
	defer func() {
		sp.mu.Lock()
		sp.dropReaderLocked()
		sp.mu.Unlock()
		close(sp.done)
	}()
	for range sp.kick {
		for l.spillOnce() {
		}
	}
}

// spillOnce migrates one segment's worth of the cold prefix to disk.
// Returns true when it spilled and more work may remain.
func (l *SendLog) spillOnce() bool {
	sp := l.spill
	if sp.loadFault() != nil {
		sp.degraded.Store(true)
		return false // disk faulted: FlowBlock semantics until cleared
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.mergeLocked()
	if !l.overLocked() {
		l.mu.Unlock()
		return false
	}
	live := len(l.entries) - l.off
	if live == 0 {
		l.mu.Unlock()
		return false
	}
	fc := &l.flow
	var needBytes int64
	if fc.MaxBytes > 0 {
		needBytes = l.bytes.Load() - fc.lowBytes()
	}
	needEntries := 0
	if fc.MaxEntries > 0 {
		needEntries = int(l.next.Load()-l.base) - fc.lowEntries()
	}
	// Cold-prefix bias: prefer not to spill past the horizon (what live
	// links still need from memory) — but never let the bias starve the
	// watermark; bounded memory wins over read locality.
	limit := ^uint64(0)
	if fnp := sp.horizon.Load(); fnp != nil && *fnp != nil {
		if h := (*fnp)(); h > l.base {
			limit = h
		}
	}
	count := 0
	var bytes int64
	for count < live {
		e := &l.entries[l.off+count]
		if count > 0 && e.Seq >= limit {
			break
		}
		bytes += int64(len(e.Payload))
		count++
		if bytes >= sp.segBytes {
			break
		}
		if bytes >= needBytes && count >= needEntries {
			break
		}
	}
	sp.batch = append(sp.batch[:0], l.entries[l.off:l.off+count]...)
	first := l.base
	last := first + uint64(count) - 1
	sp.mu.Lock()
	path := sp.nextSegPathLocked()
	sp.wPath, sp.wLast, sp.wCreated, sp.wDoomed = path, last, false, false
	sp.mu.Unlock()
	l.mu.Unlock()

	// Write and seal the segment outside every lock: appends, truncation
	// and reads all proceed while the cold copy streams to disk (the
	// entries are still in memory and still visible).
	err := writeSpillSegment(path, sp, sp.batch)
	if err != nil && !errors.Is(err, errSpillStillborn) {
		sp.endWrite()
		_ = os.Remove(path)
		sp.degraded.Store(true)
		return false
	}
	sp.degraded.Store(false)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		sp.endWrite()
		_ = os.Remove(path)
		return false
	}
	if l.base > last {
		// The whole range was reclaimed while we wrote: the segment was
		// stillborn, and the truncate that reclaimed it removed its file.
		l.mu.Unlock()
		sp.endWrite()
		return true
	}
	sp.mu.Lock()
	sp.wPath = ""
	sp.segs = append(sp.segs, spillSegment{path: path, first: first, last: last, bytes: bytes})
	sp.spilled.Add(bytes)
	sp.segCount.Store(int64(len(sp.segs)))
	if l.reclaimed > sp.trunc {
		sp.trunc = l.reclaimed // a concurrent truncate may have eaten a prefix
	}
	sp.mu.Unlock()
	// Only now — with the segment durable and registered — do the entries
	// leave memory, so no reader ever finds a hole between the tiers.
	drop := int(last - l.base + 1)
	dead := l.entries[l.off : l.off+drop]
	var freed int64
	for i := range dead {
		freed += int64(len(dead[i].Payload))
	}
	l.bytes.Add(-freed)
	clear(dead)
	l.off += drop
	l.base = last + 1
	if l.off >= len(l.entries)-l.off && l.off >= compactThreshold {
		n := copy(l.entries, l.entries[l.off:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
		l.off = 0
	}
	l.releaseSpaceLocked()
	l.mu.Unlock()
	clear(sp.batch) // release payload references from the scratch buffer
	return true
}

// errSpillStillborn reports a segment write abandoned before its file was
// created, because a truncate had already reclaimed its whole range.
var errSpillStillborn = errors.New("transport: spill segment reclaimed before write")

// endWrite clears the in-flight segment once the spiller is done with it.
func (sp *spillState) endWrite() {
	sp.mu.Lock()
	sp.wPath = ""
	sp.mu.Unlock()
}

func writeSpillSegment(path string, sp *spillState, batch []LogEntry) error {
	// Create the file under sp.mu, so a truncate either sees it and
	// deletes it or dooms the write before the file exists.
	sp.mu.Lock()
	if sp.wDoomed {
		sp.mu.Unlock()
		return errSpillStillborn
	}
	w, err := segment.OpenWriter(path, false)
	sp.wCreated = err == nil
	sp.mu.Unlock()
	if err != nil {
		return err
	}
	if f := sp.loadFault(); f != nil {
		w.SetWriteFault(f)
	}
	for i := range batch {
		sp.encBuf = encodeSpillRecord(sp.encBuf, batch[i])
		if err := w.Append(sp.encBuf); err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Sync(); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}
