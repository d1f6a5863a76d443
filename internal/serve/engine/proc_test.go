package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestSampleProcBasics(t *testing.T) {
	runtime.GC() // guarantee at least one cycle and one recorded pause
	s := SampleProc()
	if s.Goroutines <= 0 {
		t.Fatalf("goroutines %d, want > 0", s.Goroutines)
	}
	if s.HeapLiveBytes <= 0 {
		t.Fatalf("heap live %d, want > 0", s.HeapLiveBytes)
	}
	if s.GCCycles <= 0 {
		t.Fatalf("gc cycles %d after explicit GC, want > 0", s.GCCycles)
	}
	if s.GCPauseMaxNS <= 0 || s.GCPauseP99NS <= 0 || s.GCPauseP50NS <= 0 {
		t.Fatalf("pause quantiles not populated: %+v", s)
	}
	if s.GCPauseP50NS > s.GCPauseP99NS || s.GCPauseP99NS > s.GCPauseMaxNS {
		t.Fatalf("pause quantiles out of order: %+v", s)
	}
	if runtime.GOOS == "linux" && s.RSSBytes <= 0 {
		t.Fatalf("rss %d on linux, want > 0", s.RSSBytes)
	}
}

func TestProcStatsMetricsNames(t *testing.T) {
	// The metric names are the /metrics page's contract with its scrapers;
	// renaming one silently drops that series from their dashboards.
	m := ProcStats{RSSBytes: 1, HeapLiveBytes: 2, Goroutines: 3, GCCycles: 4,
		GCPauseP50NS: 5, GCPauseP99NS: 6, GCPauseMaxNS: 7}.Metrics()
	want := map[string]int64{
		"proc_rss_bytes":       1,
		"proc_heap_live_bytes": 2,
		"proc_goroutines":      3,
		"proc_gc_cycles_total": 4,
		"proc_gc_pause_p50_ns": 5,
		"proc_gc_pause_p99_ns": 6,
		"proc_gc_pause_max_ns": 7,
	}
	if len(m) != len(want) {
		t.Fatalf("metric map has %d entries, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %d, want %d", k, m[k], v)
		}
	}
}

func TestWriteProcMetricsFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProcMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), buf.String())
	}
	for i, l := range lines {
		fields := strings.Fields(l)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "proc_") {
			t.Errorf("line %d not a proc exposition line: %q", i, l)
		}
		if i > 0 && lines[i-1] >= l {
			t.Errorf("lines not sorted: %q then %q", lines[i-1], l)
		}
	}
}
