package engine

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be non-negative; negative deltas
// are ignored to keep the counter monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two latency buckets; bucket i holds
// observations v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i). 64 buckets
// cover every non-negative int64 nanosecond value.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram: observations (nanoseconds)
// land in power-of-two buckets, from which quantiles are estimated at the
// arithmetic midpoint of the holding bucket, clamped to the observed min and
// max. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// bucketOf maps a nanosecond observation to its bucket index.
func bucketOf(ns int64) int {
	i := 0
	for v := ns; v > 0; v >>= 1 {
		i++
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds src's observations into h exactly: the log buckets are
// additive, so merged quantile estimates are as good as if every observation
// had landed in h directly. src is left unchanged.
//
// Edge cases are part of the contract (the shard router's fleet-wide
// /statsz and leaload's per-worker tallies lean on them): merging an empty
// src is a no-op, merging into an empty h copies src exactly (including
// min/max, so a single-bucket src round-trips its quantiles unchanged), and
// merging h into itself is a no-op rather than a silent double-count.
func (h *Histogram) Merge(src *Histogram) {
	if src == h {
		return
	}
	// Two-phase locking keeps the merge deadlock-free without a lock order:
	// snapshot src under its own lock only, then fold under h's lock only —
	// the two locks are never held together.
	buckets, count, sum, mn, mx := src.capture()
	if count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, n := range buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.count += count
	h.sum += sum
}

// capture snapshots the histogram's state under its lock.
func (h *Histogram) capture() (buckets [histBuckets]int64, count, sum, mn, mx int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count, h.sum, h.min, h.max
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-th quantile (q in [0,1]) in nanoseconds: the
// observation rank is located in the cumulative bucket counts and the
// bucket's midpoint returned, clamped to the observed min/max. Zero
// observations yield 0.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count-1))
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum > rank {
			// Bucket i holds values in [2^(i-1), 2^i); estimate with the
			// arithmetic midpoint of the bucket range.
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			hi := int64(1)<<i - 1
			est := lo + (hi-lo)/2
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// HistogramSnapshot is a Histogram's state at one instant, quantiles
// precomputed, as published by /statsz.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MinNS int64 `json:"min_ns"`
	MaxNS int64 `json:"max_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// Snapshot captures the histogram with p50/p95/p99 estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: h.count,
		SumNS: h.sum,
		MinNS: h.min,
		MaxNS: h.max,
		P50NS: h.quantileLocked(0.50),
		P95NS: h.quantileLocked(0.95),
		P99NS: h.quantileLocked(0.99),
	}
}

// Registry is an in-process metrics registry: named counters, gauges and
// histograms, created on first use and exposable as a text page (/metrics)
// or a JSON snapshot (/statsz). All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// WriteTextLabels renders the registry like WriteText with a fixed label set
// appended to every metric name, `name{shard="0"} value` style; label keys
// are sorted. A sharded deployment writes each engine's registry with its
// shard index so one /metrics page keeps the per-shard series apart.
func (r *Registry) WriteTextLabels(w io.Writer, labels map[string]string) error {
	if len(labels) == 0 {
		return r.WriteText(w)
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return r.writeText(w, b.String())
}

// WriteText renders every metric in a flat, sorted, line-oriented text
// exposition: "name value" for counters and gauges, and per-histogram
// "name_count", "name_sum_ns" and "name_p50_ns"/"_p95_ns"/"_p99_ns" lines.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeText(w, "")
}

// writeText renders the metrics with suffix (a rendered label set or empty)
// between each metric name and its value. Rendering happens outside the
// registry lock — renderLines holds it only while walking the maps — so a
// slow writer never blocks metric updates.
func (r *Registry) writeText(w io.Writer, suffix string) error {
	lines := r.renderLines(suffix)
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// renderLines formats every metric as an unsorted exposition line, under the
// registry lock.
func (r *Registry) renderLines(suffix string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s%s %d", name, suffix, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s%s %d", name, suffix, g.Value()))
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		lines = append(lines,
			fmt.Sprintf("%s_count%s %d", name, suffix, s.Count),
			fmt.Sprintf("%s_sum_ns%s %d", name, suffix, s.SumNS),
			fmt.Sprintf("%s_p50_ns%s %d", name, suffix, s.P50NS),
			fmt.Sprintf("%s_p95_ns%s %d", name, suffix, s.P95NS),
			fmt.Sprintf("%s_p99_ns%s %d", name, suffix, s.P99NS),
		)
	}
	return lines
}
