package engine

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1ms..100ms uniform: the quantiles must land in order and inside range.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	if s.MinNS != int64(time.Millisecond) || s.MaxNS != int64(100*time.Millisecond) {
		t.Errorf("min/max %d/%d, want 1ms/100ms in ns", s.MinNS, s.MaxNS)
	}
	if !(s.MinNS <= s.P50NS && s.P50NS <= s.P95NS && s.P95NS <= s.P99NS && s.P99NS <= s.MaxNS) {
		t.Errorf("quantiles out of order: min %d p50 %d p95 %d p99 %d max %d",
			s.MinNS, s.P50NS, s.P95NS, s.P99NS, s.MaxNS)
	}
	// Log-bucketed estimate: p50 of a 1..100ms uniform must land well below
	// p99's bucket (within a factor of two of the true 50ms).
	if s.P50NS > int64(100*time.Millisecond) || s.P50NS < int64(25*time.Millisecond) {
		t.Errorf("p50 estimate %s implausible for uniform 1..100ms", time.Duration(s.P50NS))
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := (&Histogram{}).Snapshot()
	if s.Count != 0 || s.P50NS != 0 || s.MaxNS != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

func TestRegistryWriteText(t *testing.T) {
	m := NewRegistry()
	m.Counter("zzz_total").Add(3)
	m.Counter("aaa_total").Inc()
	m.Gauge("depth").Set(7)
	m.Histogram("lat").Observe(2 * time.Millisecond)
	var sb strings.Builder
	m.WriteText(&sb)
	text := sb.String()

	for _, want := range []string{"aaa_total 1", "zzz_total 3", "depth 7", "lat_count 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, "aaa_total") > strings.Index(text, "zzz_total") {
		t.Error("exposition not sorted by metric name")
	}
	if m.Counter("aaa_total") != m.Counter("aaa_total") {
		t.Error("Counter not idempotent per name")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("c").Inc()
				m.Gauge("g").Add(1)
				m.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c").Value(); got != 8000 {
		t.Errorf("counter %d, want 8000", got)
	}
	if got := m.Histogram("h").Snapshot().Count; got != 8000 {
		t.Errorf("histogram count %d, want 8000", got)
	}
}

func TestHistogramMergeExact(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 50; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		all.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 51; i <= 100; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
		all.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(&b)
	if got, want := a.Snapshot(), all.Snapshot(); got != want {
		t.Errorf("merged snapshot %+v differs from direct observation %+v", got, want)
	}
	var empty Histogram
	before := a.Snapshot()
	a.Merge(&empty)
	if a.Snapshot() != before {
		t.Error("merging an empty histogram changed the target")
	}
}

// TestHistogramMergeEdgeCases tables the Merge contract edges that the shard
// router's fleet-wide /statsz and leaload's per-worker tallies depend on:
// empty→empty, empty into populated, populated into empty (exact copy,
// min/max included), single-bucket histograms (including the
// all-zero-observation bucket 0), disjoint ranges, and self-merge as a
// no-op.
func TestHistogramMergeEdgeCases(t *testing.T) {
	obs := func(ds ...time.Duration) *Histogram {
		h := &Histogram{}
		for _, d := range ds {
			h.Observe(d)
		}
		return h
	}
	cases := []struct {
		name     string
		dst, src *Histogram
	}{
		{"empty into empty", obs(), obs()},
		{"empty into populated", obs(time.Millisecond, 2*time.Millisecond), obs()},
		{"populated into empty", obs(), obs(3*time.Millisecond, 5*time.Millisecond)},
		{"single zero-bucket into empty", obs(), obs(0)},
		{"single bucket both sides", obs(time.Microsecond), obs(time.Microsecond)},
		{"zero bucket into populated", obs(time.Second), obs(0, 0, 0)},
		{"disjoint ranges", obs(time.Nanosecond, 2*time.Nanosecond), obs(time.Hour)},
	}
	for _, c := range cases {
		// The expected result is a histogram that saw every observation
		// directly: rebuild it from the two snapshots' totals.
		want := &Histogram{}
		replay := func(h *Histogram) {
			h.mu.Lock()
			defer h.mu.Unlock()
			want.mu.Lock()
			defer want.mu.Unlock()
			for i, n := range h.buckets {
				want.buckets[i] += n
			}
			if h.count > 0 {
				if want.count == 0 || h.min < want.min {
					want.min = h.min
				}
				if h.max > want.max {
					want.max = h.max
				}
				want.count += h.count
				want.sum += h.sum
			}
		}
		replay(c.dst)
		replay(c.src)

		srcBefore := c.src.Snapshot()
		c.dst.Merge(c.src)
		if got := c.dst.Snapshot(); got != want.Snapshot() {
			t.Errorf("%s: merged %+v, want %+v", c.name, got, want.Snapshot())
		}
		if c.src.Snapshot() != srcBefore {
			t.Errorf("%s: Merge mutated src", c.name)
		}
	}
}

func TestHistogramMergeSelfIsNoop(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	before := h.Snapshot()
	h.Merge(h)
	if got := h.Snapshot(); got != before {
		t.Errorf("self-merge changed the histogram: %+v -> %+v", before, got)
	}
}

func TestHistogramSingleBucketQuantiles(t *testing.T) {
	// All observations in one bucket: every quantile must collapse to the
	// clamped observed range, not the bucket's theoretical midpoint.
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	s := h.Snapshot()
	if s.P50NS != 0 || s.P99NS != 0 || s.MinNS != 0 || s.MaxNS != 0 {
		t.Errorf("all-zero histogram snapshot %+v, want all-zero quantiles", s)
	}
	h2 := &Histogram{}
	h2.Observe(1500) // single sample in bucket [1024, 2048)
	s2 := h2.Snapshot()
	if s2.P50NS != 1500 || s2.P99NS != 1500 {
		t.Errorf("single-sample quantiles p50=%d p99=%d, want both clamped to 1500", s2.P50NS, s2.P99NS)
	}
}
