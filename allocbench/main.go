// Command allocbench is the repository's benchmark. It drives the allocation
// stack in-process and checks every answer against a certified cold
// reference:
//
//   - serve_hot and serve_churn send POST /v1/allocate requests through the
//     stack cmd/leaserved assembles (shard.New with one shard of a default
//     engine.Config behind transport.NewMux), calling ServeHTTP directly so
//     no socket and no second process compete with the stack for the CPUs;
//   - sweep_rsp runs sweep.Runner over the radar kernel's register count ×
//     memory divisor grid, the paper's Table 1 experiment.
//
// Usage, from the repository root:
//
//	bash allocbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 a run sets up setupReps times and then measures the
// end-to-end metrics for --seconds. With --trace 1 it runs a fixed op count
// untraced and then traced, so every counter repeats exactly for a seed, and
// reports the per-layer metrics: spans timed around the stack's public entry
// points plus replays of each layer's functions on the same inputs. Either
// way it prints every metric with its unit and sample count, and then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// Run sizes. The traced phases run fixed op counts so that every counter
// they report repeats exactly for a seed.
const (
	setupReps      = 7     // set-ups per run; setup_s is their median
	hotOps         = 20000 // requests per traced serve_hot phase
	churnOps       = 6000  // requests per traced serve_churn phase
	churnShapes    = 512   // serve_churn corpus: 4× the 128-entry template cache
	churnWarmup    = 256   // serve_churn warm-up draws; the cache is full after them
	sweepRegisters = 2     // sweep_rsp register axis: Table1Registers and up
	sweepRuns      = 40    // Runner.Run calls per traced sweep_rsp phase
	servicePasses  = 10    // traced passes of sweep_rsp's grid through the serving stack
	replayOps      = 1000  // served requests replayed layer by layer
)

func main() {
	rep, err := run(os.Args[1:])
	if err == nil {
		err = rep.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
}

// bench is one benchmark workload.
type bench interface {
	// measure sets up setupReps times and then measures the end-to-end
	// metrics for d.
	measure(d time.Duration) (*report, error)
	// traced measures the per-layer metrics.
	traced() (*report, error)
}

// run parses the arguments and runs one workload.
func run(args []string) (*report, error) {
	fs := flag.NewFlagSet("allocbench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve_hot, serve_churn or sweep_rsp")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase with --trace 0")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	var w bench
	var err error
	switch *name {
	case "serve_hot", "serve_churn":
		w, err = newServeBench(*name, *seed)
	case "sweep_rsp":
		w, err = newSweepBench(*seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (serve_hot, serve_churn, sweep_rsp)", *name)
	}
	if err != nil {
		return nil, err
	}
	if *trace == 1 {
		return w.traced()
	}
	return w.measure(time.Duration(*seconds * float64(time.Second)))
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report is one run's outcome. Every metric is printed; only those in
// metrics reach the final JSON line.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []metric
}

// add records a metric for the JSON line.
func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples})
}

// note records a metric that is printed but stays out of the JSON line.
func (r *report) note(name, unit string, value float64, samples int) {
	r.notes = append(r.notes, metric{name, unit, value, samples})
}

// count adds a phase's checked ops to the run's totals.
func (r *report) count(p phase) {
	r.attempted += p.ops
	r.failed += p.failed
}

// write prints every metric and then the JSON result line.
func (r *report) write(w io.Writer) error {
	for _, m := range append(r.metrics, r.notes...) {
		fmt.Fprintf(w, "%-36s %16.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Fprintf(w, "%-36s %16.4f %-6s n=%d\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
	if r.attempted < 1 {
		return fmt.Errorf("no op was attempted")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// phase is one timed phase's raw measurements.
type phase struct {
	lat       []float64 // per-op wall time, µs
	ops       int       // ops attempted, each checked
	failed    int       // error replies plus wrong answers
	respBytes int64     // reply bytes (serving phases)
	wall      time.Duration
	cpu       time.Duration
	firstErr  error
}

// fail counts one failed op, keeping the first error for the log.
func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds another client's phase into p.
func (p *phase) merge(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.ops += q.ops
	p.failed += q.failed
	p.respBytes += q.respBytes
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// then appends a phase that ran after p.
func (p *phase) then(q phase) {
	p.merge(q)
	p.wall += q.wall
	p.cpu += q.cpu
}

// endToEnd adds the end-to-end metrics of a timed phase and the set-up times
// that preceded it, under prefix; an empty prefix marks the JSON metrics.
func (r *report) endToEnd(prefix string, p phase, setups []float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	add := r.add
	if prefix != "" {
		add = r.note
	}
	done := p.ops - p.failed
	add(prefix+"throughput_ops_s", "1/s", float64(done)/p.wall.Seconds(), done)
	add(prefix+"latency_p50_us", "us", quantile(p.lat, 0.5), len(p.lat))
	add(prefix+"latency_p90_us", "us", quantile(p.lat, 0.9), len(p.lat))
	add(prefix+"cpu_us_per_op", "us", float64(p.cpu.Microseconds())/float64(p.ops), p.ops)
	add(prefix+"setup_s", "s", quantile(setups, 0.5), len(setups))
	add(prefix+"rss_peak_mib", "MiB", rss, 1)
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "allocbench: %d of %d ops failed; first: %v\n", p.failed, p.ops, p.firstErr)
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB returns the process's peak resident set size, VmHWM, in MiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
