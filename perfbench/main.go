// Command perfbench is the repository's end-to-end benchmark: the time from
// an append until it is stable under the predicate a user chose, measured
// through core.OpenCluster and the public app APIs as a user calls them,
// with every node on the zero-value ClusterConfig.
//
//	perfbench --workload lan-saturate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the workload untraced and prints the end-to-end
// metrics. With --trace 1 it runs the workload twice on the same seed,
// untraced and then with the flight recorder on, and prints the per-layer
// breakdown of sampled operations plus the tracing overhead. Every run
// checks the program's outputs (see check.go) and exits 1 on any
// violation. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

const (
	// rounds is how many times a pass boots a fresh cluster and measures
	// it for an equal share of --seconds. The boots time set-up, which is
	// bimodal (a dial may wait out one reconnect backoff), so the median
	// of an odd number is reported. wan-partition measures one long
	// round instead, so its outages recur on one cluster as they would
	// in a long-lived deployment (a fresh cluster's first reconnect
	// depends on how many dials its boot retried); it still times
	// set-up over `rounds` boots, closing all but the last.
	rounds = 5
	// sliceWidth cuts each round's window into slices; latency quantiles
	// and throughput are the median over all slices of a pass, so host
	// noise that comes and goes cannot swing them.
	sliceWidth = time.Second
	// warmup runs the load before each round's window opens, so
	// connections, batch budgets and caches settle first.
	warmup = time.Second
	// drainTimeout bounds how long operations may take to complete after
	// the window closes before they count as timeouts.
	drainTimeout = 20 * time.Second
	// bootTimeout bounds one cluster boot.
	bootTimeout = 30 * time.Second
	// deadline is the whole run's budget; past it the run fails.
	deadline = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced breakdown instead of the end-to-end metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, recorded with the result")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloadWhy[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	printProvenance(o)
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printProvenance records where the result came from, so baselines are
// only ever compared on the same machine.
func printProvenance(o options) {
	fmt.Printf("# provenance: workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), o.commit)
	fmt.Printf("# why: %s\n", workloadWhy[o.workload])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number; n is the count of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// round is what one cluster measured in its window.
type round struct {
	seconds            float64
	slice              float64 // slice width in seconds
	setup              float64
	ld                 *load
	commit, weak, read *sliced
	cpu                float64
	heapPeak           uint64
	counters           map[string]float64 // deltas over the window
}

// passResult is everything one pass measured.
type passResult struct {
	setups     []float64 // every boot's set-up time
	rounds     []*round
	tracer     *tracer
	attempted  int64
	failed     int64
	violations []string
	nViol      int64
}

// median is the median over rounds of f.
func (r *passResult) median(f func(*round) float64) float64 {
	xs := make([]float64, len(r.rounds))
	for i, rd := range r.rounds {
		xs[i] = f(rd)
	}
	return medianOf(xs)
}

// sliceMedian is the median over every slice of every round of f's values.
func (r *passResult) sliceMedian(f func(*round) []float64) float64 {
	var xs []float64
	for _, rd := range r.rounds {
		xs = append(xs, f(rd)...)
	}
	return medianOf(xs)
}

// opsPerSec is the median over slices of operations completed per second.
func (r *passResult) opsPerSec() float64 {
	return r.sliceMedian(func(rd *round) []float64 {
		rates := make([]float64, len(rd.ld.completed))
		for i, c := range rd.ld.completed {
			rates[i] = float64(c) / rd.slice
		}
		return rates
	})
}

// latencyMs is the median over slices of one latency quantile, in ms,
// with the number of samples behind it.
func (r *passResult) latencyMs(which func(*round) *sliced, p99 bool) (float64, int64) {
	var n int64
	v := r.sliceMedian(func(rd *round) []float64 {
		s := which(rd)
		n += s.n
		if p99 {
			return s.p99
		}
		return s.p50
	})
	return ms(v), n
}

// completed counts the operations completed inside every round's window.
func (r *passResult) completed() int64 {
	var n int64
	for _, rd := range r.rounds {
		n += rd.ld.total()
	}
	return n
}

func run(o options) (*output, error) {
	if !o.trace {
		r, err := runPass(o, false)
		if err != nil {
			return nil, err
		}
		list := endToEnd(o.workload, r)
		printMetrics(list)
		return finish(list, gatedEndToEnd, r), nil
	}
	plain, err := runPass(o, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(o, true)
	if err != nil {
		return nil, err
	}
	list, err := perLayer(plain, traced)
	printMetrics(list)
	if err != nil {
		return nil, err
	}
	return finish(list, nil, plain, traced), nil
}

// gatedEndToEnd are the end-to-end metrics every workload reports; they
// are the ones BENCHMARK.json bounds. The workload-specific ones are
// printed beside them.
var gatedEndToEnd = []string{"setup_s", "ops_per_s", "commit_p50_ms", "commit_p99_ms", "heap_peak_mib"}

// finish builds the result line. keep, when set, limits which metrics go
// into it.
func finish(list []metric, keep []string, passes ...*passResult) *output {
	out := &output{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range passes {
		out.Attempted += r.attempted
		out.Failed += r.failed + r.nViol
		if r.nViol > 0 {
			out.Correct = false
			for _, v := range r.violations {
				fmt.Printf("# VIOLATION: %s\n", v)
			}
		}
	}
	want := map[string]bool{}
	for _, k := range keep {
		want[k] = true
	}
	for _, m := range list {
		if keep == nil || want[m.name] {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return out
}

func printMetrics(list []metric) {
	for _, m := range list {
		fmt.Printf("%-32s %16.6f %-7s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

// runPass runs the workload's rounds one after another and checks every
// output.
func runPass(o options, traced bool) (*passResult, error) {
	p := &pass{seed: o.seed, traced: traced, viol: &violations{}}
	res := &passResult{}
	if traced {
		p.tracer = newTracer()
		res.tracer = p.tracer
	}
	n := rounds
	if o.workload == "wan-partition" {
		n = 1
	}
	for i := n; i < rounds; i++ {
		w, setup, err := bootTimed(o, p)
		if err != nil {
			return nil, err
		}
		w.base().close()
		res.setups = append(res.setups, setup)
	}
	for i := 0; i < n; i++ {
		rd, err := runRound(o, p, n)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		res.rounds = append(res.rounds, rd)
		res.setups = append(res.setups, rd.setup)
	}
	res.attempted = p.attempted.Load()
	res.failed = p.failed.Load()
	res.nViol = p.viol.n.Load()
	res.violations = p.viol.list()
	return res, nil
}

// bootTimed boots a fresh cluster of the workload and returns it with
// its set-up time in seconds.
func bootTimed(o options, p *pass) (workload, float64, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	p.ctx = ctx
	t0 := time.Now()
	err = w.boot(p)
	setup := time.Since(t0).Seconds()
	if err != nil {
		w.base().close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	p.attempted.Add(int64(len(w.base().origins)))
	return w, setup, nil
}

// runRound boots a cluster, runs the warmup and the measured window,
// waits for every operation, checks the outputs and closes the cluster.
func runRound(o options, p *pass, n int) (*round, error) {
	rd := &round{seconds: o.seconds / float64(n)}
	w, setup, err := bootTimed(o, p)
	if err != nil {
		return nil, err
	}
	rd.setup = setup
	c := w.base()
	defer c.close()

	p.start = nanotime() + int64(warmup)
	p.end = p.start + int64(rd.seconds*1e9)
	p.nSlices = max(1, int(rd.seconds*1e9)/int(sliceWidth))
	if c.wholeWindow {
		p.nSlices = 1
	}
	p.slice = (p.end - p.start) / int64(p.nSlices)
	rd.slice = float64(p.slice) / 1e9
	p.commit, p.weak, p.read = newSliced(p.start, p.slice), newSliced(p.start, p.slice), newSliced(p.start, p.slice)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, p.end).Add(drainTimeout))
	defer cancel()
	p.ctx = ctx

	var tracerWG sync.WaitGroup
	stopTracer := make(chan struct{})
	if p.tracer != nil {
		p.tracer.cl, p.tracer.key = c.cl, c.key
		tracerWG.Add(1)
		go func() {
			defer tracerWG.Done()
			p.tracer.run(stopTracer)
		}()
	}
	loads := make(chan *load, 1)
	go func() { loads <- w.drive(p) }()

	sleepUntil(ctx, p.start)
	reg := c.cl.Metrics()
	c0, cpu0 := counterTotals(reg), cpuSeconds()
	stopHeap := make(chan struct{})
	peak := sampleHeapPeak(stopHeap, 10*time.Millisecond)
	sleepUntil(ctx, p.end)
	rd.cpu = cpuSeconds() - cpu0
	c1 := counterTotals(reg)
	close(stopHeap)
	rd.heapPeak = <-peak
	rd.counters = map[string]float64{}
	for k, v := range c1 {
		rd.counters[k] = v - c0[k]
	}

	rd.ld = <-loads
	for _, s := range []*sliced{p.commit, p.weak, p.read} {
		s.finish()
	}
	rd.commit, rd.weak, rd.read = p.commit, p.weak, p.read
	close(stopTracer)
	tracerWG.Wait()
	c.settle(p)
	return rd, nil
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// endToEnd lists the user-visible metrics of an untraced pass. Set-up is
// the median over boots, heap peak and CPU over rounds, throughput and
// latencies over slices.
func endToEnd(workload string, r *passResult) []metric {
	commit := func(rd *round) *sliced { return rd.commit }
	weak := func(rd *round) *sliced { return rd.weak }
	read := func(rd *round) *sliced { return rd.read }
	completed := r.completed()
	lat := func(name string, which func(*round) *sliced, p99 bool) metric {
		v, n := r.latencyMs(which, p99)
		return metric{name, "ms", v, n}
	}
	out := []metric{
		{"setup_s", "s", medianOf(r.setups), int64(len(r.setups))},
		{"ops_per_s", "ops/s", r.opsPerSec(), completed},
		lat("commit_p50_ms", commit, false),
		lat("commit_p99_ms", commit, true),
		{"heap_peak_mib", "MiB", r.median(func(rd *round) float64 { return float64(rd.heapPeak) / (1 << 20) }), int64(len(r.rounds))},
	}
	if strings.HasPrefix(workload, "wan-") {
		out = append(out, lat("weak_p50_ms", weak, false), lat("weak_p99_ms", weak, true))
	}
	if workload == "lan-quorum" {
		out = append(out, lat("read_p50_ms", read, false), lat("read_p99_ms", read, true))
	}
	failed := float64(r.failed+r.nViol) / float64(max(r.attempted, 1))
	out = append(out, metric{"failed_frac", "ratio", failed, r.attempted})
	if strings.HasPrefix(workload, "lan-") {
		cpu := r.median(func(rd *round) float64 { return rd.cpu * 1e6 / float64(max(rd.ld.total(), 1)) })
		out = append(out, metric{"cpu_us_per_op", "us", cpu, completed})
	}
	if workload == "wan-partition" {
		var rec []float64
		for _, rd := range r.rounds {
			rec = append(rec, rd.ld.recoveries...)
		}
		out = append(out, metric{"recovery_s", "s", medianOf(rec), int64(len(rec))})
	}
	var lag hist
	for _, rd := range r.rounds {
		lag.merge(&rd.ld.lag)
	}
	if lag.n > 0 {
		out = append(out, metric{"loadgen.lag_p99_ms", "ms", ms(lag.quantile(0.99)), lag.n})
	}
	return out
}

// perLayer lists the traced pass's breakdown: stage quantiles over every
// decomposed operation of every round, and counter ratios over the rounds'
// windows. It fails when the stages do not reconcile with the commit
// latencies the benchmark measured.
func perLayer(plain, traced *passResult) ([]metric, error) {
	t := traced.tracer
	var send, lag hist
	completed := traced.completed()
	cnt := map[string]float64{}
	for _, rd := range traced.rounds {
		send.merge(&rd.ld.send)
		lag.merge(&rd.ld.lag)
		for k, v := range rd.counters {
			cnt[k] += v
		}
	}
	ops := float64(max(completed, 1))
	var out []metric
	// core.send is the Node.Send call; lan-quorum appends inside
	// KV.Write, where no caller can time Send alone, so it reads 0 there.
	out = append(out,
		metric{"core.send_p50_us", "us", us(send.quantile(0.50)), send.n},
		metric{"core.send_p99_us", "us", us(send.quantile(0.99)), send.n},
	)
	n := int64(t.decomp)
	for i, name := range stageNames {
		out = append(out,
			metric{name + "_p50_us", "us", us(t.stages[i].quantile(0.50)), n},
			metric{name + "_p99_us", "us", us(t.stages[i].quantile(0.99)), n},
		)
	}
	out = append(out,
		metric{"transport.bytes_per_op", "B", cnt["stabilizer_transport_bytes_sent_total"] / ops, completed},
		metric{"transport.frames_per_op", "count", cnt["stabilizer_transport_frames_sent_total"] / ops, completed},
		metric{"transport.resent_per_op", "count", cnt["stabilizer_transport_data_resent_total"] / ops, completed},
		metric{"transport.reconnects", "count", cnt["stabilizer_transport_reconnects_total"], int64(len(traced.rounds))},
		metric{"frontier.pred_evals_per_op", "count", cnt["stabilizer_frontier_pred_evals_total"] / ops, completed},
		metric{"frontier.recomputes_per_op", "count", cnt["stabilizer_frontier_recomputes_total"] / ops, completed},
		// Closed-loop clients are never late, so the lag reads 0 there.
		metric{"loadgen.lag_p99_ms", "ms", ms(lag.quantile(0.99)), lag.n},
	)
	// Overhead: the larger of the throughput loss and the median commit
	// latency gain, traced against untraced, on the same seed.
	commit := func(rd *round) *sliced { return rd.commit }
	tracedP50, _ := traced.latencyMs(commit, false)
	plainP50, _ := plain.latencyMs(commit, false)
	opsLoss := 1 - traced.opsPerSec()/plain.opsPerSec()
	p50Gain := tracedP50/plainP50 - 1
	residual := t.residuals.quantile(0.5) / 1e6
	out = append(out,
		metric{"trace.overhead_pct", "%", 100 * max(opsLoss, p50Gain), 2},
		metric{"trace.residual_pct", "%", 100 * residual, n},
	)
	fmt.Printf("# trace: %d of %d queried operations decomposed, %d evicted from the rings; overhead: ops/s %+.2f%%, commit p50 %+.2f%%\n",
		t.decomp, t.queried, t.evicted, -100*opsLoss, 100*p50Gain)
	switch {
	case t.decomp < minDecomposed:
		return out, fmt.Errorf("trace: only %d operations decomposed, need %d", t.decomp, minDecomposed)
	case float64(t.decomp) < minDecomposedShare*float64(t.queried-t.evicted):
		return out, fmt.Errorf("trace: %d of %d queried operations still in the rings decomposed, need %.0f%%",
			t.decomp, t.queried-t.evicted, 100*minDecomposedShare)
	case residual > residualTolerance:
		return out, fmt.Errorf("trace: median |commit - sum of stages| is %.2f%% of commit, tolerance %.0f%%",
			100*residual, 100*residualTolerance)
	}
	return out, nil
}
