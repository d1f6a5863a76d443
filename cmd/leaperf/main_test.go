package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRunRequiresABaseRevision(t *testing.T) {
	for _, args := range [][]string{nil, {"HEAD^1", "HEAD"}, {"-regress"}} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

func TestCollectPairsSeedsAndAlternatesSides(t *testing.T) {
	spec := &benchmarkSpec{Workloads: []workloadSpec{{"serve_hot"}, {"sweep_rsp"}}}
	type call struct {
		tree, workload string
		seed           int
	}
	var calls []call
	fake := func(_ context.Context, tree, workload string, seed int) (runResult, error) {
		calls = append(calls, call{tree, workload, seed})
		return runResult{Correct: true, Attempted: 1}, nil
	}
	runs, err := collect(context.Background(), &bytes.Buffer{}, spec, [2]string{"B", "C"}, fake)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2*pairs*len(spec.Workloads) {
		t.Fatalf("%d runs, want %d", len(calls), 2*pairs*len(spec.Workloads))
	}
	for i := 0; i < len(calls); i += 2 {
		first, second := calls[i], calls[i+1]
		p := i / (2 * len(spec.Workloads))
		wantFirst := "B"
		if p%2 == 1 {
			wantFirst = "C"
		}
		if first.tree != wantFirst || second.tree == first.tree {
			t.Errorf("pair %d ran %s then %s, want %s first", p, first.tree, second.tree, wantFirst)
		}
		if first.workload != second.workload || first.seed != p+1 || second.seed != p+1 {
			t.Errorf("pair %d: %+v and %+v, want one workload at seed %d", p, first, second, p+1)
		}
	}
	for _, wl := range spec.Workloads {
		if s := runs[wl.Name]; len(s[base]) != pairs || len(s[change]) != pairs {
			t.Errorf("%s: %d base and %d change runs, want %d each", wl.Name, len(s[base]), len(s[change]), pairs)
		}
	}
}

// syntheticRunner stands in for the benchmark. Every run reports each
// end-to-end metric of spec at 100 with a noise of at most ±2% that depends
// on the seed and the tree. On the change tree, workload's values are worse
// by the factor worse, each in the direction its metric worsens.
func syntheticRunner(spec *benchmarkSpec, workload string, worse float64) runner {
	return func(_ context.Context, tree, wl string, seed int) (runResult, error) {
		k := seed
		if tree == "change" {
			k++
		}
		r := runResult{Correct: true, Attempted: 1000, Metrics: map[string]metricValue{}}
		for _, m := range spec.EndToEnd {
			v := 100 * (1 + 0.02*float64(k%3-1))
			if tree == "change" && wl == workload {
				if m.Better == "higher" {
					v /= worse
				} else {
					v *= worse
				}
			}
			r.Metrics[m.Name] = metricValue{v}
		}
		return r, nil
	}
}

// gateOn runs the whole gate, collection and verdict, on synthetic runs
// under the repository's own BENCHMARK.json.
func gateOn(t *testing.T, workload string, worse float64) (*benchmarkSpec, string, error) {
	t.Helper()
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runs, err := collect(context.Background(), &buf, spec, [2]string{"base", "change"},
		syntheticRunner(spec, workload, worse))
	if err != nil {
		t.Fatal(err)
	}
	allocs := allocCounts{"BenchmarkSweepWarmStart/warm": 1377}
	err = gate(&buf, spec, [2]allocCounts{allocs, allocs}, runs, "HEAD^1")
	return spec, buf.String(), err
}

func TestRegressExitsNonzeroOnInjectedSlowdown(t *testing.T) {
	spec, out, err := gateOn(t, "sweep_rsp", 1.5)
	if err == nil {
		t.Fatalf("the gate passed sweep_rsp made 1.5x worse:\n%s", out)
	}
	for _, m := range spec.EndToEnd {
		if want := "leaperf: FAIL: sweep_rsp " + m.Name + " regressed"; !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "leaperf: FAIL:"); n != len(spec.EndToEnd) {
		t.Errorf("%d findings, want one per end-to-end metric of sweep_rsp:\n%s", n, out)
	}
}

func TestRegressPassesInBandNoise(t *testing.T) {
	_, out, err := gateOn(t, "sweep_rsp", 1.08)
	if err != nil {
		t.Fatalf("the gate failed sweep_rsp made 8%% worse, inside every bound: %v\n%s", err, out)
	}
	if !strings.Contains(out, "leaperf: perf gate passed against HEAD^1") ||
		strings.Contains(out, "REGRESSED") || strings.Contains(out, "unresolved") {
		t.Errorf("want every verdict ok and the gate passed:\n%s", out)
	}
	if a, b := strings.Index(out, "allocs/op"), strings.Index(out, "workload"); a < 0 || b < a {
		t.Errorf("want the allocation table before the timing table:\n%s", out)
	}
}

// capturedBench is go test -benchmem output of the allocation stage's set on
// two vCPUs, abridged to a few rows. Two of RunnerRSP's three counts are
// raised from 1168 to check that a row keeps its minimum, and recost's line
// lacks the -2 suffix, as go test prints it at GOMAXPROCS 1.
const capturedBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkSolvers/cyclecancel-2         	      13	 132289965 ns/op	  409552 B/op	     115 allocs/op
BenchmarkSweepWarmStart/cold-2         	     852	   1309096 ns/op	  672288 B/op	    5732 allocs/op
BenchmarkSweepWarmStart/warm_par-2     	    4527	    289125 ns/op	  139270 B/op	    1389 allocs/op
BenchmarkRunnerRSP-2                   	      42	  29300825 ns/op	        48.00 augs/solve	         0.5000 incr/solve	      7234 pops/solve	  238528 B/op	    1168 allocs/op
BenchmarkRunnerRSP-2                   	      50	  29292644 ns/op	        48.00 augs/solve	         0.5000 incr/solve	      7234 pops/solve	  238528 B/op	    1170 allocs/op
BenchmarkRunnerRSP-2                   	      46	  27171330 ns/op	        48.00 augs/solve	         0.5000 incr/solve	      7234 pops/solve	  238528 B/op	    1169 allocs/op
BenchmarkWarmResolve/warm-2            	  107067	     13406 ns/op	       0 B/op	       0 allocs/op
BenchmarkWarmResolve/recost            	    1476	    693029 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	51.334s
`

func TestParseAllocs(t *testing.T) {
	got, err := parseAllocs([]byte(capturedBench))
	if err != nil {
		t.Fatal(err)
	}
	want := allocCounts{
		"BenchmarkSolvers/cyclecancel":     115,
		"BenchmarkSweepWarmStart/cold":     5732,
		"BenchmarkSweepWarmStart/warm_par": 1389,
		"BenchmarkRunnerRSP":               1168,
		"BenchmarkWarmResolve/warm":        0,
		"BenchmarkWarmResolve/recost":      0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseAllocs = %v, want %v", got, want)
	}
	if _, err := parseAllocs([]byte("PASS\nok  \trepro\t0.01s\n")); err == nil {
		t.Error("output without a result line parsed, want an error")
	}
}

// benchLines renders one go test -benchmem result line per count, at ns
// ns/op.
func benchLines(name string, ns float64, allocs ...int64) string {
	var b strings.Builder
	for _, a := range allocs {
		fmt.Fprintf(&b, "%s-2 \t 1000\t %.0f ns/op\t 4096 B/op\t %d allocs/op\n", name, ns, a)
	}
	return b.String()
}

// fakeBench returns a benchTest that prints out[0] in tree "B" and out[1]
// in any other tree.
func fakeBench(out [2]string) benchTest {
	return func(_ context.Context, tree string) ([]byte, error) {
		if tree == "B" {
			return []byte(out[base]), nil
		}
		return []byte(out[change]), nil
	}
}

func TestJudgeAllocs(t *testing.T) {
	baseOut := benchLines("BenchmarkWarm", 100, 0, 0, 0) + benchLines("BenchmarkCold", 1000, 50, 50, 50)
	cases := []struct {
		name     string
		change   string
		wantFail []string // rows that fail, in name order
		wantOut  string
	}{
		{"at the base counts", baseOut, nil, "ok"},
		{"zero-alloc row now allocates",
			benchLines("BenchmarkWarm", 100, 1, 1, 1) + benchLines("BenchmarkCold", 1000, 50, 50, 50),
			[]string{"BenchmarkWarm allocates more: 0 -> 1"}, "REGRESSED"},
		{"above the base count",
			benchLines("BenchmarkWarm", 100, 0, 0, 0) + benchLines("BenchmarkCold", 1000, 51, 52, 51),
			[]string{"BenchmarkCold allocates more: 50 -> 51"}, "REGRESSED"},
		{"one noisy run above",
			benchLines("BenchmarkWarm", 100, 0, 0, 0) + benchLines("BenchmarkCold", 1000, 57, 50, 50), nil, "ok"},
		{"NEW row", baseOut + benchLines("BenchmarkExtra", 5, 9, 9, 9), nil, "NEW"},
		{"10x slower", benchLines("BenchmarkWarm", 1000, 0, 0, 0) + benchLines("BenchmarkCold", 10000, 50, 50, 50), nil, "ok"},
		{"GONE row", benchLines("BenchmarkWarm", 100, 0, 0, 0),
			[]string{"BenchmarkCold: 50 allocs/op on the base, no such row on the change"}, "GONE"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		counts, err := measureAllocs(context.Background(), &buf, [2]string{"B", "C"}, fakeBench([2]string{baseOut, c.change}))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		failures := reportAllocs(&buf, counts)
		if len(failures) != len(c.wantFail) {
			t.Errorf("%s: failures %q, want %q", c.name, failures, c.wantFail)
			continue
		}
		for i, want := range c.wantFail {
			if !strings.Contains(failures[i], want) {
				t.Errorf("%s: failure %q does not contain %q", c.name, failures[i], want)
			}
		}
		if !strings.Contains(buf.String(), c.wantOut) {
			t.Errorf("%s: table lacks %q:\n%s", c.name, c.wantOut, buf.String())
		}
	}
}

func TestMeasureAllocsFailsOnEitherSide(t *testing.T) {
	ok := benchLines("BenchmarkWarm", 100, 0)
	for _, failing := range []string{"B", "C"} {
		bench := func(_ context.Context, tree string) ([]byte, error) {
			if tree == failing {
				return nil, errors.New("exit status 1")
			}
			return []byte(ok), nil
		}
		_, err := measureAllocs(context.Background(), &bytes.Buffer{}, [2]string{"B", "C"}, bench)
		if err == nil {
			t.Errorf("go test failed in %s, want an error", failing)
		}
	}
	// A run that printed no result line is no pass either.
	_, err := measureAllocs(context.Background(), &bytes.Buffer{}, [2]string{"B", "C"}, fakeBench([2]string{ok, "FAIL\trepro [build failed]\n"}))
	if err == nil || !strings.Contains(err.Error(), "change") {
		t.Errorf("change printed no result line: err %v, want an error naming the change", err)
	}
}

// runSet returns six correct runs whose throughput and CPU per op have
// medians thr and cpu and quartiles at ±spread/2 of them.
func runSet(thr, cpu, spread float64) []runResult {
	var out []runResult
	for _, k := range []float64{-2, -1, -1, 1, 1, 2} {
		f := 1 + k*spread/2
		out = append(out, runResult{Correct: true, Attempted: 1000, Metrics: map[string]metricValue{
			"throughput_ops_s": {thr * f}, "cpu_us_per_op": {cpu * f}}})
	}
	return out
}

func TestReportVerdicts(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []workloadSpec{{"sweep_rsp"}},
		EndToEnd: []metricSpec{
			{Name: "throughput_ops_s", Better: "higher", Bound: 0.25},
			{Name: "cpu_us_per_op", Better: "lower", Bound: 0.25},
		},
	}
	// Each rule alone: allocbench prints "correct":false exactly when an op
	// failed, but the gate checks the two separately.
	wrong := runSet(100, 1000, 0.04)
	wrong[3].Correct = false
	failedMore := runSet(100, 1000, 0.04)
	failedMore[0].Failed = 2
	cases := []struct {
		name         string
		base, change []runResult
		wantFail     []string // substrings of the failures, none when empty
		wantOut      string
	}{
		{"unchanged", runSet(100, 1000, 0.04), runSet(101, 990, 0.04), nil, "ok"},
		{"inside the bound", runSet(100, 1000, 0.04), runSet(80, 1200, 0.04), nil, "ok"},
		{"resolved regression, lower is better", runSet(100, 1000, 0.04), runSet(100, 1500, 0.04),
			[]string{"sweep_rsp cpu_us_per_op regressed"}, "REGRESSED"},
		{"resolved regression, higher is better", runSet(100, 1000, 0.04), runSet(60, 1000, 0.04),
			[]string{"sweep_rsp throughput_ops_s regressed"}, "REGRESSED"},
		{"parent spread wider than the bound", runSet(100, 1000, 0.6), runSet(60, 1500, 0.04), nil, "unresolved"},
		{"a run printed correct:false", runSet(100, 1000, 0.04), wrong,
			[]string{`sweep_rsp: change run with seed 4 printed "correct":false`}, "ok"},
		{"higher failed share on the change", runSet(100, 1000, 0.04), failedMore,
			[]string{"sweep_rsp: the change failed 2 of 6000 ops, the base 0 of 6000"}, "FAIL"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		failures := report(&buf, spec, map[string]*sides{"sweep_rsp": {c.base, c.change}})
		if len(failures) != len(c.wantFail) {
			t.Errorf("%s: failures %q, want %d", c.name, failures, len(c.wantFail))
			continue
		}
		for i, want := range c.wantFail {
			if !strings.Contains(failures[i], want) {
				t.Errorf("%s: failure %q does not contain %q", c.name, failures[i], want)
			}
		}
		if !strings.Contains(buf.String(), c.wantOut) {
			t.Errorf("%s: report lacks %q:\n%s", c.name, c.wantOut, buf.String())
		}
	}
}

func TestReportNamesAMissingMetric(t *testing.T) {
	spec := &benchmarkSpec{Workloads: []workloadSpec{{"serve_hot"}},
		EndToEnd: []metricSpec{{Name: "rss_peak_mib", Better: "lower", Bound: 0.15}}}
	s := runSet(100, 1000, 0.04)
	failures := report(&bytes.Buffer{}, spec, map[string]*sides{"serve_hot": {s, s}})
	if len(failures) != 1 || !strings.Contains(failures[0], "reported no rss_peak_mib") {
		t.Errorf("failures %q, want one naming the missing metric", failures)
	}
}

func TestNum(t *testing.T) {
	for v, want := range map[float64]string{92252.4: "92252", 6857.43: "6857", 691.84: "691.8",
		15.453: "15.45", 0.0088153: "0.008815", 0: "0.000"} {
		if got := num(v); got != want {
			t.Errorf("num(%v) = %q, want %q", v, got, want)
		}
	}
}
