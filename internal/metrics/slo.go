package metrics

import (
	"fmt"
	"sync"
	"time"
)

// SLOConfig describes a latency service-level objective over one histogram:
// "Objective of observations complete within Threshold". The monitor
// evaluates it with the multiwindow burn-rate method (a short and a long
// lookback must both burn error budget faster than Burn× the sustainable
// rate before an alert fires), which is the in-process equivalent of the
// Prometheus rules shipped in examples/alerts/stability-slo.rules.yml.
type SLOConfig struct {
	// Name identifies the SLO in alerts (e.g. the predicate key).
	Name string
	// Threshold is the latency goal in the histogram's base units
	// (nanoseconds for LatencyOpts histograms). Observations at or below
	// it count as good. Exact when it lands on a power-of-two bucket
	// boundary; otherwise the straddling bucket counts as bad
	// (conservative).
	Threshold int64
	// Objective is the target good fraction in (0,1), e.g. 0.999.
	Objective float64
	// ShortWindow and LongWindow are the two burn lookbacks. The long
	// window decides that real budget is being spent; the short window
	// makes the alert resolve quickly once the burn stops. Defaults:
	// 1m and 10m.
	ShortWindow, LongWindow time.Duration
	// Burn is the burn-rate threshold: an alert needs both windows to
	// consume budget at ≥ Burn× the rate that would exactly exhaust it
	// over the SLO period, with at least 48 events in the long window
	// (sloMinEvents). Default 10.
	Burn float64
	// CheckEvery is the sampling interval. Default ShortWindow/4.
	CheckEvery time.Duration
	// OnAlert is called on every transition (firing and resolving).
	// Called from the monitor goroutine (or from Tick when the caller
	// drives the clock); keep it fast or hand off.
	OnAlert func(BurnAlert)
	// Source, when set, re-resolves the observed histogram before every
	// sample. Use it when the histogram identity can change under the
	// monitor — e.g. a HistogramVec child re-bound after a Delete, whose
	// replacement is a fresh instance the original pointer no longer
	// sees. A nil return keeps the previous histogram.
	Source func() *Histogram
}

func (c SLOConfig) normalized() (SLOConfig, error) {
	if c.Threshold <= 0 {
		return c, fmt.Errorf("metrics: SLO %q: Threshold must be > 0", c.Name)
	}
	if !(c.Objective > 0 && c.Objective < 1) {
		return c, fmt.Errorf("metrics: SLO %q: Objective must be in (0,1)", c.Name)
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 10 * time.Minute
	}
	if c.LongWindow < c.ShortWindow {
		return c, fmt.Errorf("metrics: SLO %q: LongWindow < ShortWindow", c.Name)
	}
	if c.Burn <= 0 {
		c.Burn = 10
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = c.ShortWindow / 4
	}
	return c, nil
}

// BurnAlert is one alert transition from an SLOMonitor.
type BurnAlert struct {
	// Name echoes SLOConfig.Name.
	Name string
	// Firing is true when the alert starts and false when it resolves.
	Firing bool
	// ShortBurn and LongBurn are the burn rates that triggered the
	// transition (multiples of the sustainable budget-spend rate).
	ShortBurn, LongBurn float64
	// At is the evaluation time of the transition.
	At time.Time
}

// sloMinEvents is the evidence floor: an alert cannot fire while its long
// window holds fewer events. Without it a handful of slow samples — the
// first messages of a node whose peer links are still dialing — read as a
// full-scale burn (5 bad of 14 is burn 3.6 at a 0.9 objective; 7 of 33 on
// a loaded box). The floor sits on the long window, which decides that
// budget is being spent and always holds at least the short window's
// events; flooring the short window as well would keep a sustained burn
// at a low event rate from ever firing.
const sloMinEvents = 48

// sloSample is one (time, total, good) reading of the target histogram.
type sloSample struct {
	at    time.Time
	total int64
	good  int64
}

// SLOMonitor watches a Histogram and fires multiwindow burn-rate alerts
// against an SLOConfig. It samples counts rather than recomputing
// quantiles, so a check costs a few atomic loads regardless of traffic.
type SLOMonitor struct {
	cfg  SLOConfig
	hist *Histogram

	mu      sync.Mutex
	samples []sloSample // ring, oldest first, bounded by LongWindow
	firing  bool

	stop chan struct{}
	done chan struct{}
}

// NewSLOMonitor starts a monitor over h. Close it to stop the background
// sampler. h may be nil when cfg.Source is set (the source resolves it).
func NewSLOMonitor(h *Histogram, cfg SLOConfig) (*SLOMonitor, error) {
	m, err := NewSLOMonitorPaused(h, cfg)
	if err != nil {
		return nil, err
	}
	m.done = make(chan struct{})
	go m.run()
	return m, nil
}

// NewSLOMonitorPaused constructs a monitor without starting the background
// sampler: the caller drives it by invoking Tick on its own clock. The
// adaptive consistency controller uses this form so SLO evaluation and
// ladder decisions share one deterministic tick.
func NewSLOMonitorPaused(h *Histogram, cfg SLOConfig) (*SLOMonitor, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if h == nil && cfg.Source == nil {
		return nil, fmt.Errorf("metrics: SLO %q: nil histogram and no Source", cfg.Name)
	}
	return &SLOMonitor{cfg: cfg, hist: h, stop: make(chan struct{})}, nil
}

func (m *SLOMonitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.Tick(now)
		}
	}
}

// Close stops the monitor. It does not emit a resolving alert; callers that
// care should treat Close as end-of-signal. Safe to call more than once and
// concurrently with Tick.
func (m *SLOMonitor) Close() {
	m.mu.Lock()
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	done := m.done
	m.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Firing reports whether the alert is currently active.
func (m *SLOMonitor) Firing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firing
}

// Tick takes one sample at now and evaluates both windows, firing OnAlert
// on a transition. The background sampler calls it every CheckEvery;
// paused monitors (NewSLOMonitorPaused) and tests drive it directly with
// their own clock. Returns the burn rates the evaluation produced.
func (m *SLOMonitor) Tick(now time.Time) (shortBurn, longBurn float64) {
	m.mu.Lock()
	select {
	case <-m.stop:
		// Closed concurrently with a pending tick: drop the sample so no
		// alert transition fires after Close returns.
		m.mu.Unlock()
		return 0, 0
	default:
	}
	if m.cfg.Source != nil {
		if h := m.cfg.Source(); h != nil {
			m.hist = h
		}
	}
	total := m.hist.Count()
	good := m.hist.CountLe(m.cfg.Threshold)

	// A histogram re-bind (vec child deleted and re-created) or any other
	// counter reset shows up as the running totals moving backwards. The
	// old baselines are meaningless against the new counters, so restart
	// the sample history rather than reporting a bogus burn.
	if n := len(m.samples); n > 0 {
		last := m.samples[n-1]
		if total < last.total || good < last.good {
			m.samples = m.samples[:0]
		}
	}

	m.samples = append(m.samples, sloSample{at: now, total: total, good: good})
	// Drop samples older than the long window, but keep one sample at or
	// beyond the horizon so the long window always has a baseline.
	horizon := now.Add(-m.cfg.LongWindow)
	cut := 0
	for cut < len(m.samples)-1 && m.samples[cut+1].at.Before(horizon) {
		cut++
	}
	if cut > 0 {
		m.samples = append(m.samples[:0], m.samples[cut:]...)
	}

	shortBurn, _ = m.burnRate(now, m.cfg.ShortWindow)
	longBurn, longEvents := m.burnRate(now, m.cfg.LongWindow)
	shouldFire := shortBurn >= m.cfg.Burn && longBurn >= m.cfg.Burn && longEvents >= sloMinEvents
	transition := shouldFire != m.firing
	m.firing = shouldFire
	cb := m.cfg.OnAlert
	m.mu.Unlock()

	if transition && cb != nil {
		cb(BurnAlert{
			Name:      m.cfg.Name,
			Firing:    shouldFire,
			ShortBurn: shortBurn,
			LongBurn:  longBurn,
			At:        now,
		})
	}
	return shortBurn, longBurn
}

// burnRate computes the budget burn multiple over the trailing window,
// (bad events / total events) / (1 - objective), and the number of events
// it rests on. The burn is 0 when the window saw no traffic (no traffic
// spends no budget). The bad count is clamped into [0, total] so a
// mid-window counter glitch can never produce a burn above the all-bad
// rate or below zero.
func (m *SLOMonitor) burnRate(now time.Time, window time.Duration) (burn float64, events int64) {
	if len(m.samples) == 0 {
		return 0, 0
	}
	horizon := now.Add(-window)
	// Baseline: the newest sample at or before the horizon, else the
	// oldest we have.
	base := m.samples[0]
	for _, s := range m.samples {
		if s.at.After(horizon) {
			break
		}
		base = s
	}
	cur := m.samples[len(m.samples)-1]
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0, 0
	}
	dBad := dTotal - (cur.good - base.good)
	if dBad < 0 {
		dBad = 0
	}
	if dBad > dTotal {
		dBad = dTotal
	}
	errRate := float64(dBad) / float64(dTotal)
	return errRate / (1 - m.cfg.Objective), dTotal
}
