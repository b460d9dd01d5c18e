package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	smetrics "stabilizer/internal/metrics"
)

// hist is a log-linear histogram of non-negative nanosecond durations:
// 128 linear sub-buckets per power of two, each keeping its count and the
// sum of its samples. A quantile is the mean of the measured samples in
// the bucket holding its rank, so it is within 0.4 % of the exact value
// while the memory stays fixed however many samples arrive. It is not
// safe for concurrent use; each writer owns one and merges.
type hist struct {
	counts [histBuckets]int64
	sums   [histBuckets]int64
	n      int64
}

const (
	histSubBits = 7
	histBuckets = 31 << histSubBits // values up to 2^37 ns (137 s)
)

func histIndex(v int64) int {
	if v < 2<<histSubBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	i := (e+1)<<histSubBits + int(v>>e) - 1<<histSubBits
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	i := histIndex(v)
	h.counts[i]++
	h.sums[i] += v
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
		h.sums[i] += o.sums[i]
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return float64(h.sums[i]) / float64(c)
		}
	}
	return 0
}

// sliced summarises a latency stream per slice of the measured window.
// When a sample lands in a later slice, the finished slice's median and
// p99 are kept and its histogram cleared, so memory stays fixed; the
// reported figure is then the median over slices, which a burst of host
// noise shorter than half the window cannot move. Safe for concurrent use.
type sliced struct {
	mu    sync.Mutex
	start int64
	width int64
	idx   int
	cur   hist
	n     int64
	p50   []float64
	p99   []float64
}

func newSliced(start, width int64) *sliced { return &sliced{start: start, width: width} }

// add records latency v of an operation that completed at t (inside the
// window). A sample racing in just behind a slice boundary joins the
// newer slice.
func (s *sliced) add(t, v int64) {
	i := int((t - s.start) / s.width)
	s.mu.Lock()
	if i > s.idx {
		s.flushLocked()
		s.idx = i
	}
	s.cur.add(v)
	s.n++
	s.mu.Unlock()
}

func (s *sliced) flushLocked() {
	if s.cur.n > 0 {
		s.p50 = append(s.p50, s.cur.quantile(0.50))
		s.p99 = append(s.p99, s.cur.quantile(0.99))
		s.cur = hist{}
	}
}

// finish closes the last slice; call once the window's samples are in.
func (s *sliced) finish() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

// samples keeps up to a fixed number of signed values (stage durations can
// be negative when two layers race) for exact quantiles.
type samples struct{ v []int64 }

func newSamples(capacity int) samples { return samples{v: make([]int64, 0, capacity)} }

func (s *samples) add(x int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, x)
	}
}

// quantile returns the nearest-rank q-quantile (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	sorted := append([]int64(nil), s.v...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func nanotime() int64 { return time.Now().UnixNano() }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapInuse reads the runtime's HeapInuse (live plus unused bytes of
// in-use heap spans) without stopping the world.
func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// sampleHeapPeak samples HeapInuse every interval until stop closes and
// sends the largest value seen on the returned channel.
func sampleHeapPeak(stop <-chan struct{}, every time.Duration) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		peak := heapInuse(s)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				if v := heapInuse(s); v > peak {
					peak = v
				}
				out <- peak
				return
			case <-t.C:
				if v := heapInuse(s); v > peak {
					peak = v
				}
			}
		}
	}()
	return out
}

// counterNames are the program's own counters the per-layer ratios use,
// summed over every node and label.
var counterNames = []string{
	"stabilizer_transport_bytes_sent_total",
	"stabilizer_transport_frames_sent_total",
	"stabilizer_transport_data_resent_total",
	"stabilizer_transport_reconnects_total",
	"stabilizer_frontier_pred_evals_total",
	"stabilizer_frontier_recomputes_total",
}

// counterTotals sums each of counterNames across the registry.
func counterTotals(reg *smetrics.Registry) map[string]float64 {
	want := make(map[string]bool, len(counterNames))
	for _, n := range counterNames {
		want[n] = true
	}
	out := make(map[string]float64, len(counterNames))
	for _, fs := range reg.Snapshot() {
		if !want[fs.Name] {
			continue
		}
		for _, m := range fs.Metrics {
			out[fs.Name] += m.Value
		}
	}
	return out
}
