// Command leaperf is the repository's perf gate: a paired A/B of the
// benchmark declared in BENCHMARK.json between a base revision and the
// working tree.
//
// Usage, from the repository root:
//
//	go run ./cmd/leaperf HEAD^1
//
// leaperf exports the base revision under .bench_build/ and removes it on
// exit. It runs in two stages on both trees.
//
// The allocation stage runs one fixed set of the root package's go test
// benchmarks with -benchmem, allocCount times in each tree, and takes each
// row's fewest allocs/op. Allocation counts do not depend on the host, so
// the base measured on the same machine is the whole baseline.
//
// The timing stage runs the benchmark command with --trace 0 on every
// workload in both trees, pairs times for runSeconds each. Both runs of a
// pair use the same seed, and the side that runs first alternates from pair
// to pair.
//
// leaperf then prints the allocation table (each row's base and change
// counts and a verdict), and for each workload and end-to-end metric both
// sides' medians with their quartiles, the change/base ratio and a verdict.
// It exits 1 when
//
//   - a benchmark row allocates more on the change than on the base, or only
//     the base has it (a row only the change has is NEW and passes);
//   - a metric's median on the change is worse than on the base by more than
//     the metric's bound, while the base's quartile spread is inside that
//     bound (a wider spread prints "unresolved" and does not fail);
//   - any run prints "correct":false; or
//   - the change fails a larger share of its operations than the base.
//
// A go test or benchmark run that fails on either side is an error, and
// leaperf exits 1 without a verdict.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The run plan. At 8 s the base's quartile spreads stay well inside the
// BENCHMARK.json bounds (at most 12.5% of the median against 25%, 6.1% for
// RSS against 15%, on two vCPUs), and 6 pairs keep the timing stage near
// six minutes there.
const (
	pairs      = 6
	runSeconds = 8
	baseDir    = ".bench_build/leaperf-base"
)

// The allocation stage's plan. The set covers the Figure 1 sweep cold, warm,
// on 4 workers and re-run on one sweep.Runner; the raw SSP solve cold, warm
// and re-costed; the cycle-cancelling and cost-scaling solves; and the
// solver-bound radar-kernel sweep. A row's count is its fewest allocs/op
// over allocCount runs, which drops a one-off runtime allocation. The
// default benchtime keeps b.N large enough that such an allocation rounds
// away: at 50 iterations SweepWarmStart/cold read one allocation more in 7
// of 30 runs on two vCPUs. A change that retires a benchmark of the set
// drops it from allocBench in the same diff, or its base row reads GONE.
const (
	allocBench     = "^Benchmark(SweepWarmStart|WarmResolve|Solvers|RunnerRSP)$"
	allocCount     = 3
	allocBenchtime = "1s"
)

// The two sides of every pair.
const (
	base = iota
	change
)

var sideNames = [2]string{"base", "change"}

func main() {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	fmt.Printf("leaperf: %s wall time\n", time.Since(start).Round(time.Second))
	if err != nil {
		fmt.Fprintln(os.Stderr, "leaperf:", err)
		os.Exit(1)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the gate reads.
type benchmarkSpec struct {
	Command   []string       `json:"command"`
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
}

// workloadSpec names one benchmark workload.
type workloadSpec struct {
	Name string `json:"name"`
}

// metricSpec is one end-to-end metric: which way it improves, and the share
// of the base's median by which it may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the JSON line a benchmark run ends with.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric of a runResult.
type metricValue struct {
	Value float64 `json:"value"`
}

// sides holds one workload's runs on the base and on the change, in pair
// order, so run i of either side used seed i+1.
type sides [2][]runResult

// runner runs the benchmark once in tree on one workload and seed.
type runner func(ctx context.Context, tree, workload string, seed int) (runResult, error)

// benchTest runs the allocation stage's go test benchmarks in tree and
// returns what go test printed.
type benchTest func(ctx context.Context, tree string) ([]byte, error)

// allocCounts maps a benchmark row, named without its -N GOMAXPROCS suffix,
// to its fewest allocs/op.
type allocCounts map[string]int64

// run gates the working tree against the base revision named in args.
func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: leaperf <base-revision>, e.g. leaperf HEAD^1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	hash, err := exportBase(args[0], baseDir)
	defer os.RemoveAll(baseDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "leaperf: base %s (%s) against the working tree: allocs/op of %s × %d, then %d pairs × %d s per workload\n",
		args[0], hash, allocBench, allocCount, pairs, runSeconds)
	trees := [2]string{baseDir, "."}
	allocs, err := measureAllocs(ctx, w, trees, goTestBench)
	if err != nil {
		return err
	}
	runs, err := collect(ctx, w, spec, trees, benchRun(spec.Command))
	if err != nil {
		return err
	}
	return gate(w, spec, allocs, runs, args[0])
}

// loadSpec reads the benchmark declaration at path.
func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run leaperf from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(spec.Command) == 0 || len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("%s names no command or no workload", path)
	}
	return &spec, nil
}

// gate prints the report on allocs and runs and returns an error, which
// makes leaperf exit 1, when any of the gate's rules fails against the base
// revision rev.
func gate(w io.Writer, spec *benchmarkSpec, allocs [2]allocCounts, runs map[string]*sides, rev string) error {
	failures := append(reportAllocs(w, allocs), report(w, spec, runs)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(w, "leaperf: FAIL: %s\n", f)
		}
		return fmt.Errorf("perf gate failed: %d finding(s) against %s", len(failures), rev)
	}
	fmt.Fprintf(w, "leaperf: perf gate passed against %s\n", rev)
	return nil
}

// exportBase writes the tree of revision rev into dir, replacing anything
// there, and returns the commit hash rev resolves to.
func exportBase(rev, dir string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", "--quiet", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolve revision %q: %w", rev, err)
	}
	hash := strings.TrimSpace(string(out))
	tarball, err := exec.Command("git", "archive", "--format=tar", hash).Output()
	if err != nil {
		return "", fmt.Errorf("git archive %s: %w", hash, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin = bytes.NewReader(tarball)
	if msg, err := untar.CombinedOutput(); err != nil {
		return "", fmt.Errorf("extract %s into %s: %w\n%s", hash, dir, err, msg)
	}
	return hash, nil
}

// benchRun returns a runner that executes the benchmark command and parses
// the JSON line its standard output ends with.
func benchRun(command []string) runner {
	return func(ctx context.Context, tree, workload string, seed int) (runResult, error) {
		args := append(append([]string(nil), command[1:]...), "--workload", workload,
			"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(runSeconds), "--trace", "0")
		cmd := exec.CommandContext(ctx, command[0], args...)
		cmd.Dir = tree
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return runResult{}, fmt.Errorf("%w\n%s", err, stderr.Bytes())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return runResult{}, fmt.Errorf("parse the result line: %w", err)
		}
		return r, nil
	}
}

// goTestBench is the benchTest that runs go test on the root package.
func goTestBench(ctx context.Context, tree string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, "go", "test", "-run", "^$", "-bench", allocBench, "-benchmem",
		"-benchtime", allocBenchtime, "-count", strconv.Itoa(allocCount), ".")
	cmd.Dir = tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s%s", err, out, stderr.Bytes())
	}
	return out, nil
}

// measureAllocs runs the allocation stage's benchmarks in both trees and
// returns each side's rows.
func measureAllocs(ctx context.Context, w io.Writer, trees [2]string, bench benchTest) ([2]allocCounts, error) {
	var counts [2]allocCounts
	for side, tree := range trees {
		fmt.Fprintf(w, "allocs: go test -bench on the %s\n", sideNames[side])
		out, err := bench(ctx, tree)
		if err == nil {
			counts[side], err = parseAllocs(out)
		}
		if err != nil {
			return counts, fmt.Errorf("%s go test -bench: %w", sideNames[side], err)
		}
	}
	return counts, nil
}

// parseAllocs reads the result lines of go test -benchmem output and returns
// each row's fewest allocs/op. The count is found by its unit, not by its
// column, because b.ReportMetric columns print before B/op.
func parseAllocs(out []byte) (allocCounts, error) {
	counts := allocCounts{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 2; i < len(f); i++ {
			if f[i] != "allocs/op" {
				continue
			}
			n, err := strconv.ParseInt(f[i-1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("read allocs/op of %q: %w", line, err)
			}
			name := f[0]
			if j := strings.LastIndexByte(name, '-'); j > 0 {
				if _, err := strconv.Atoi(name[j+1:]); err == nil {
					name = name[:j]
				}
			}
			if old, ok := counts[name]; !ok || n < old {
				counts[name] = n
			}
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no allocs/op in the output:\n%s", out)
	}
	return counts, nil
}

// reportAllocs prints one row per benchmark of either side with both
// counts and a verdict, and returns the reasons the gate fails: a row that
// allocates more on the change than on the base, or that only the base has.
func reportAllocs(w io.Writer, counts [2]allocCounts) []string {
	var names []string
	for name := range counts[base] {
		names = append(names, name)
	}
	for name := range counts[change] {
		if _, ok := counts[base][name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(w, "\n%-34s %10s %10s  %s\n", "allocs/op", "base", "change", "verdict")
	for _, name := range names {
		b, inBase := counts[base][name]
		c, inChange := counts[change][name]
		cols, verdict := [2]string{fmt.Sprint(b), fmt.Sprint(c)}, "ok"
		switch {
		case !inBase:
			cols[base], verdict = "-", "NEW"
		case !inChange:
			cols[change], verdict = "-", "GONE"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op on the base, no such row on the change", name, b))
		case c > b:
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s allocates more: %d -> %d allocs/op", name, b, c))
		}
		fmt.Fprintf(w, "%-34s %10s %10s  %s\n", name, cols[base], cols[change], verdict)
	}
	return failures
}

// collect runs every workload pairs times in both trees. Pair i runs with
// seed i+1 on both sides, and the side that runs first alternates, so drift
// in the host's speed lands on both sides alike.
func collect(ctx context.Context, w io.Writer, spec *benchmarkSpec, trees [2]string, run runner) (map[string]*sides, error) {
	runs := make(map[string]*sides, len(spec.Workloads))
	for _, wl := range spec.Workloads {
		runs[wl.Name] = &sides{}
	}
	n, total := 0, 2*pairs*len(spec.Workloads)
	for p := 0; p < pairs; p++ {
		order := [2]int{base, change}
		if p%2 == 1 {
			order = [2]int{change, base}
		}
		for _, wl := range spec.Workloads {
			for _, side := range order {
				r, err := run(ctx, trees[side], wl.Name, p+1)
				if err != nil {
					return nil, fmt.Errorf("%s run of %s, seed %d: %w", sideNames[side], wl.Name, p+1, err)
				}
				runs[wl.Name][side] = append(runs[wl.Name][side], r)
				n++
				fmt.Fprintf(w, "run %2d/%d  %-12s %-6s seed %d  correct=%v failed %d/%d\n",
					n, total, wl.Name, sideNames[side], p+1, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
	return runs, nil
}

// report prints one row per workload and end-to-end metric, plus each
// workload's failed ops, and returns the reasons the gate fails.
func report(w io.Writer, spec *benchmarkSpec, runs map[string]*sides) []string {
	var failures []string
	fmt.Fprintf(w, "\n%-12s %-17s %-30s %-30s %7s  %s\n", "workload", "metric",
		"base median [q1, q3]", "change median [q1, q3]", "ratio", "verdict")
	for _, wl := range spec.Workloads {
		s := runs[wl.Name]
		var attempted, failed [2]int
		for side := range s {
			for i, r := range s[side] {
				attempted[side] += r.Attempted
				failed[side] += r.Failed
				if !r.Correct {
					failures = append(failures, fmt.Sprintf(`%s: %s run with seed %d printed "correct":false`,
						wl.Name, sideNames[side], i+1))
				}
			}
		}
		for _, m := range spec.EndToEnd {
			vals, err := metricRuns(s, m.Name)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", wl.Name, err))
				continue
			}
			dir := LowerIsBetter
			if m.Better == "higher" {
				dir = HigherIsBetter
			}
			v := Compare(vals[base], vals[change], dir, m.Bound)
			if v == Regressed {
				failures = append(failures, fmt.Sprintf("%s %s regressed: median %s -> %s, worse by more than its bound of %.0f%%",
					wl.Name, m.Name, num(Median(vals[base])), num(Median(vals[change])), 100*m.Bound))
			}
			fmt.Fprintf(w, "%-12s %-17s %-30s %-30s %7.3f  %s\n", wl.Name, m.Name,
				quartiles(vals[base]), quartiles(vals[change]),
				Median(vals[change])/Median(vals[base]), v)
		}
		verdict := "ok"
		// The change's failed share exceeds the base's, cross-multiplied.
		if failed[change]*attempted[base] > failed[base]*attempted[change] {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: the change failed %d of %d ops, the base %d of %d",
				wl.Name, failed[change], attempted[change], failed[base], attempted[base]))
		}
		fmt.Fprintf(w, "%-12s %-17s %-30s %-30s %7s  %s\n", wl.Name, "failed ops",
			fmt.Sprintf("%d of %d", failed[base], attempted[base]),
			fmt.Sprintf("%d of %d", failed[change], attempted[change]), "", verdict)
	}
	return failures
}

// metricRuns returns each side's values of one metric, in run order.
func metricRuns(s *sides, name string) ([2][]float64, error) {
	var vals [2][]float64
	for side := range s {
		for i, r := range s[side] {
			v, ok := r.Metrics[name]
			if !ok {
				return vals, fmt.Errorf("%s run with seed %d reported no %s", sideNames[side], i+1, name)
			}
			vals[side] = append(vals[side], v.Value)
		}
	}
	return vals, nil
}

// quartiles renders runs as "median [q1, q3]".
func quartiles(xs []float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(Median(xs)), num(Quantile(xs, 0.25)), num(Quantile(xs, 0.75)))
}

// num renders v with four significant digits and no exponent.
func num(v float64) string {
	digits := 3
	if v != 0 {
		digits = 3 - int(math.Floor(math.Log10(math.Abs(v))))
	}
	return strconv.FormatFloat(v, 'f', max(digits, 0), 64)
}
