package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/perfobs/stats"
)

// gateRuns is how many times the gate measures the suite. A row's allocs/op
// is its minimum over these runs: that filters one-off runtime allocations,
// while genuinely allocating code allocates on every run.
const gateRuns = 3

// gateRow is one benchmark's line in the alloc gate's report.
type gateRow struct {
	name       string
	baseAllocs int64   // the committed ceiling, -1 for a NEW row
	allocs     int64   // minimum allocs/op measured, -1 for a missing row
	nsPerOp    float64 // median ns/op measured; reported, never judged
	verdict    string
	fail       bool
}

// runBenchGate is the CI alloc gate. It measures the benchmark suite gateRuns
// times and judges the allocs/op of every row against the committed baseline
// snapshot. Timings are printed but not judged: they depend on the host,
// while alloc counts do not. cmd/leaperf gates timing.
func runBenchGate(w io.Writer, baseline string) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baseline, err)
	}
	samples := map[string][]benchResult{}
	for r := 0; r < gateRuns; r++ {
		fmt.Fprintf(w, "gate run %d/%d\n", r+1, gateRuns)
		snap, err := measureSnapshot(io.Discard)
		if err != nil {
			return err
		}
		for _, b := range snap.Benchmarks {
			samples[b.Name] = append(samples[b.Name], b)
		}
	}

	rows := judgeAllocs(base.Benchmarks, samples)
	failures := 0
	fmt.Fprintf(w, "%-22s %10s %10s %14s  %s\n", "benchmark", "ceiling", "allocs", "median ns/op", "verdict")
	for _, r := range rows {
		ceiling, allocs, ns := fmt.Sprint(r.baseAllocs), fmt.Sprint(r.allocs), fmt.Sprintf("%.0f", r.nsPerOp)
		if r.baseAllocs < 0 {
			ceiling = "-"
		}
		if r.allocs < 0 {
			allocs, ns = "-", "-"
		}
		fmt.Fprintf(w, "%-22s %10s %10s %14s  %s\n", r.name, ceiling, allocs, ns, r.verdict)
		if r.fail {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("bench gate: %d row(s) failed against %s", failures, baseline)
	}
	fmt.Fprintf(w, "bench gate: all %d rows within their alloc ceilings (%d runs)\n", len(base.Benchmarks), gateRuns)
	return nil
}

// judgeAllocs holds the measured samples against the baseline rows' alloc
// ceilings. A baseline row fails when it is missing from the measurement,
// when it was zero-alloc and now allocates, or when its minimum allocs/op
// exceeds its ceiling. Measured rows absent from the baseline are NEW and
// pass. Baseline rows come first, in baseline order, then NEW rows by name.
func judgeAllocs(base []benchResult, samples map[string][]benchResult) []gateRow {
	rows := make([]gateRow, 0, len(base))
	known := map[string]bool{}
	for _, bb := range base {
		known[bb.Name] = true
		s := samples[bb.Name]
		if len(s) == 0 {
			rows = append(rows, gateRow{name: bb.Name, baseAllocs: bb.AllocsPerOp, allocs: -1,
				verdict: "FAIL: row missing from measurement", fail: true})
			continue
		}
		r := gateRow{name: bb.Name, baseAllocs: bb.AllocsPerOp, allocs: minAllocs(s), nsPerOp: medianNs(s), verdict: "ok"}
		switch {
		case bb.AllocsPerOp == 0 && r.allocs > 0:
			r.verdict, r.fail = fmt.Sprintf("FAIL: must stay zero-alloc, got %d allocs/op", r.allocs), true
		case r.allocs > bb.AllocsPerOp:
			r.verdict, r.fail = fmt.Sprintf("FAIL: allocs regressed %d -> %d", bb.AllocsPerOp, r.allocs), true
		}
		rows = append(rows, r)
	}
	var extra []string
	for name := range samples {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		s := samples[name]
		rows = append(rows, gateRow{name: name, baseAllocs: -1, allocs: minAllocs(s), nsPerOp: medianNs(s),
			verdict: "NEW (not in baseline)"})
	}
	return rows
}

// medianNs returns the median ns/op of the samples.
func medianNs(s []benchResult) float64 {
	ns := make([]float64, len(s))
	for i, b := range s {
		ns[i] = b.NsPerOp
	}
	return stats.Median(ns)
}

// minAllocs returns the smallest allocs/op observed across the samples.
func minAllocs(s []benchResult) int64 {
	min := s[0].AllocsPerOp
	for _, b := range s[1:] {
		if b.AllocsPerOp < min {
			min = b.AllocsPerOp
		}
	}
	return min
}
