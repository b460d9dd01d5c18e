// Command stabilizer-bench regenerates the paper's evaluation tables and
// figures (§VI) on the emulated WAN.
//
// Usage:
//
//	stabilizer-bench -experiment all
//	stabilizer-bench -experiment fig6 -timescale 10
//	stabilizer-bench -experiment fig7 -short
//	stabilizer-bench -metrics-addr :9090 -trace-sample 64
//	                       # /metrics plus /debug/trace (per-op flight
//	                       # recorder: ?origin=N&seq=M, ?op=latest-slow)
//	stabilizer-bench -experiment fig6 \
//	    -adaptive-ladder 'all=MIN($ALLWNODES);one=KTH_MAX(1, $ALLWNODES)' \
//	    -adaptive-target 500ms
//	                       # closed-loop consistency controller on every node
//
// Experiments: table1 table2 table3 micro fig3 fig4 fig5 fig6 fig7 fig8
// ablation all.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"stabilizer/internal/adaptive"
	"stabilizer/internal/bench"
	"stabilizer/internal/core"
	"stabilizer/internal/metrics"
	"stabilizer/internal/optrace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stabilizer-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment  = flag.String("experiment", "all", "which experiment to run (table1 table2 table3 micro fig3 fig4 fig5 fig6 fig7 fig8 ablation all)")
		timescale   = flag.Float64("timescale", 1, "divide emulated latencies by this factor (1 = faithful wall-clock)")
		fabric      = flag.String("fabric", "mem", "network fabric: mem or tcp")
		short       = flag.Bool("short", false, "shrink workloads for a quick pass")
		metricsAddr = flag.String("metrics-addr", "", "serve every experiment node's /metrics on this address (e.g. :9090)")
		pprofOn     = flag.Bool("pprof", false, "also mount /debug/pprof on the metrics address")
		traceSample = flag.Int("trace-sample", 0, "flight-record 1 in N operations and mount /debug/trace on the metrics address (0 = off, the faithful-measurement default)")
		logStripes  = flag.Int("log-stripes", 0, "send-log producer stripes per node (0 = min(8, GOMAXPROCS), 1 = classic single-stripe log)")
		writevMin   = flag.Int("writev-min-bytes", 0, "smallest batch payload sent as one vectored write on TCP fabrics (0 = 8 KiB default, negative disables writev)")

		adaptLadder = flag.String("adaptive-ladder", "", "run the closed-loop consistency controller on every experiment node: 'name=SOURCE;name=SOURCE' strongest rung first (empty = off)")
		adaptKey    = flag.String("adaptive-key", "adaptive", "predicate key the adaptive controller drives")
		adaptTarget = flag.Duration("adaptive-target", 2*time.Second, "adaptive SLO: this fraction of appends should stabilize within the target")
		adaptObj    = flag.Float64("adaptive-objective", 0.99, "adaptive SLO good fraction in (0,1)")
	)
	flag.Parse()

	var adaptiveSpec *core.AdaptiveSpec
	if *adaptLadder != "" {
		ladder, err := adaptive.ParseLadder(*adaptLadder)
		if err != nil {
			return fmt.Errorf("-adaptive-ladder: %w", err)
		}
		adaptiveSpec = &core.AdaptiveSpec{
			Key:    *adaptKey,
			Ladder: ladder,
			Config: adaptive.Config{Target: *adaptTarget, Objective: *adaptObj},
		}
	}

	opts := bench.Options{
		Out:        os.Stdout,
		TimeScale:  *timescale,
		Fabric:     *fabric,
		Short:      *short,
		LogStripes: *logStripes,
		Trace:      optrace.Config{SampleEvery: *traceSample},
		Adaptive:   adaptiveSpec,
	}
	opts.Batch.WritevMinBytes = *writevMin
	if *metricsAddr != "" {
		var sopts []metrics.ServeOption
		if *pprofOn {
			sopts = append(sopts, metrics.WithPprof())
		}
		reg := metrics.NewRegistry()
		opts.Metrics = reg
		extra := map[string]http.Handler{}
		served := "/metrics"
		if *traceSample > 0 {
			opts.TraceTarget = &bench.TraceTarget{}
			extra["/debug/trace"] = optrace.NewHTTPHandler(opts.TraceTarget)
			served += " and /debug/trace"
		}
		srv, err := metrics.Serve(*metricsAddr, reg, extra, sopts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving %s on %s\n", served, srv.Addr)
	} else if *pprofOn {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}

	type exp struct {
		name string
		run  func() error
	}
	experiments := []exp{
		{"table1", func() error { _, err := bench.Table1(opts); return err }},
		{"table2", func() error { _, err := bench.Table2(opts); return err }},
		{"table3", func() error { _, err := bench.Table3(opts); return err }},
		{"micro", func() error { _, err := bench.MicroDSL(opts); return err }},
		{"fig3", func() error { _, err := bench.Fig3(opts); return err }},
		{"fig4", func() error { _, err := bench.Fig4(opts); return err }},
		{"fig5", func() error { _, err := bench.Fig5(opts); return err }},
		{"fig6", func() error { _, err := bench.Fig6(opts); return err }},
		{"fig7", func() error { _, err := bench.Fig7(opts); return err }},
		{"fig8", func() error { _, err := bench.Fig8(opts); return err }},
		{"ablation", func() error {
			if _, err := bench.AblationDSL(opts); err != nil {
				return err
			}
			if _, err := bench.AblationControlPlane(opts); err != nil {
				return err
			}
			_, err := bench.AblationBatching(opts)
			return err
		}},
	}

	ran := false
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("=== %s done in %v ===\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}
