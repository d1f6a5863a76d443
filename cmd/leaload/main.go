// Command leaload is the closed-loop smoke client for the leaserved
// allocation service, in the YCSB/yabf mold: N workers each keep exactly one
// request in flight against one daemon (-url) until -duration runs out. Each
// worker draws programs uniformly from a small seeded corpus of workload
// classes (-mix, -shapes, -instrs) with its own seeded source, so a run is
// replayable.
//
// Repeating a small corpus of program shapes is the point: it drives the
// server's warm template cache, so a healthy run shows a high cache hit
// ratio and a nonzero incremental solve count. After the run leaload reads
// the daemon's /statsz snapshot into the report. -json emits the machine-
// readable report; -strict fails the process on any failed request;
// -require-warm additionally fails it when the server saw no warm-cache
// traffic. scripts/serve_smoke.sh gates CI on these exit codes.
//
// leaload is not a benchmark: allocbench is, and cmd/leaperf's paired A/B
// over it is the perf gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/serve/engine"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leaload:", err)
		os.Exit(1)
	}
}

// loadConfig is the parsed flag set.
type loadConfig struct {
	url         string
	workers     int
	duration    time.Duration
	mix         string
	shapes      int
	instrs      int
	registers   int
	memdiv      int
	seed        int64
	timeout     time.Duration
	jsonOut     bool
	strict      bool
	requireWarm bool
}

// newFlagSet binds leaload's flags to cfg.
func newFlagSet(cfg *loadConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("leaload", flag.ContinueOnError)
	fs.StringVar(&cfg.url, "url", "http://127.0.0.1:8311", "leaserved base URL")
	fs.IntVar(&cfg.workers, "workers", 4, "concurrent workers, one request in flight each")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "run length; in-flight requests finish after it")
	fs.StringVar(&cfg.mix, "mix", "random=1,hlsbench=1,figures=1", "workload class weights, class=weight comma-separated")
	fs.IntVar(&cfg.shapes, "shapes", 4, "distinct random program shapes")
	fs.IntVar(&cfg.instrs, "instrs", 12, "instructions per random program")
	fs.IntVar(&cfg.registers, "registers", 6, "register count requested per allocation")
	fs.IntVar(&cfg.memdiv, "memdiv", 1, "memory frequency divisor requested per allocation")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request client timeout")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit a machine-readable JSON report")
	fs.BoolVar(&cfg.strict, "strict", false, "exit nonzero if any request failed")
	fs.BoolVar(&cfg.requireWarm, "require-warm", false, "exit nonzero unless the server reports warm-cache hits and incremental solves")
	return fs
}

// run drives the load and writes the report.
func run(args []string, w io.Writer) error {
	var cfg loadConfig
	if err := newFlagSet(&cfg).Parse(args); err != nil {
		return err
	}
	if cfg.workers < 1 {
		return fmt.Errorf("need at least one worker, got %d", cfg.workers)
	}
	cfg.url = strings.TrimRight(cfg.url, "/")

	picks, err := buildCorpus(&cfg)
	if err != nil {
		return err
	}
	report := drive(&cfg, picks)
	snap, err := fetchStats(&http.Client{Timeout: cfg.timeout}, cfg.url)
	if err != nil {
		fmt.Fprintf(w, "leaload: %s/statsz unavailable: %v\n", cfg.url, err)
	}
	report.Server = snap
	if err := report.write(w, cfg.jsonOut); err != nil {
		return err
	}
	if cfg.strict && report.Errors > 0 {
		return fmt.Errorf("strict: %d of %d requests failed", report.Errors, report.Requests)
	}
	if cfg.requireWarm {
		if report.Server == nil {
			return fmt.Errorf("require-warm: server stats unavailable")
		}
		if report.Server.CacheHits == 0 || report.Server.SolvesIncremental == 0 {
			return fmt.Errorf("require-warm: cache hits %d, incremental solves %d — warm path not exercised",
				report.Server.CacheHits, report.Server.SolvesIncremental)
		}
	}
	return nil
}

// namedProgram is one corpus entry: a rendered TAC program and its class.
type namedProgram struct {
	class string
	text  string
}

// buildCorpus renders the weighted workload corpus as TAC texts and returns
// the pick list, each program repeated by its class weight, so a uniform
// draw over the list honours the -mix weights.
func buildCorpus(cfg *loadConfig) ([]namedProgram, error) {
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	classes, err := workload.Programs(rng, cfg.shapes, cfg.instrs)
	if err != nil {
		return nil, err
	}
	var picks []namedProgram
	for _, class := range workload.ProgramClasses() {
		weight := weights[class]
		if weight <= 0 {
			continue
		}
		for _, p := range classes[class] {
			var buf bytes.Buffer
			if err := ir.Format(&buf, p); err != nil {
				return nil, fmt.Errorf("render %s program: %w", class, err)
			}
			for k := 0; k < weight; k++ {
				picks = append(picks, namedProgram{class: class, text: buf.String()})
			}
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("mix %q selects no programs", cfg.mix)
	}
	return picks, nil
}

// parseMix parses "class=weight,..." into integer weights.
func parseMix(mix string) (map[string]int, error) {
	known := map[string]bool{}
	for _, c := range workload.ProgramClasses() {
		known[c] = true
	}
	out := map[string]int{}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || !known[kv[0]] {
			return nil, fmt.Errorf("bad mix element %q (classes: %s)", part, strings.Join(workload.ProgramClasses(), ", "))
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad mix weight in %q", part)
		}
		out[kv[0]] = n
	}
	return out, nil
}

// allocResponse is the subset of the server reply the driver inspects.
type allocResponse struct {
	Blocks []struct {
		CacheHit bool `json:"cache_hit"`
		Stats    struct {
			Solver struct {
				Incremental bool `json:"incremental"`
			} `json:"solver"`
		} `json:"stats"`
	} `json:"blocks"`
}

// workerTally is one worker's local aggregate, merged after the run.
type workerTally struct {
	requests int64
	errors   int64
	hits     int64
	incr     int64
	byClass  map[string]int64
	byError  map[string]int64
	latency  engine.Histogram
}

// record tallies one completed request.
func (t *workerTally) record(p *namedProgram, resp *allocResponse, err error) {
	t.requests++
	t.byClass[p.class]++
	if err != nil {
		t.errors++
		t.byError[errCode(err)]++
		return
	}
	for _, b := range resp.Blocks {
		if b.CacheHit {
			t.hits++
		}
		if b.Stats.Solver.Incremental {
			t.incr++
		}
	}
}

// drive runs the closed loop until the deadline and merges the tallies.
// Each worker draws programs uniformly from its own seeded source. Workers
// finish their in-flight request after the deadline, so the run is timed
// from the first send to the last worker's return, not taken from -duration.
func drive(cfg *loadConfig, picks []namedProgram) *loadReport {
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.workers * 2,
			MaxIdleConnsPerHost: cfg.workers * 2,
		},
	}
	tallies := make([]*workerTally, cfg.workers)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for i := range tallies {
		t := &workerTally{byClass: map[string]int64{}, byError: map[string]int64{}}
		tallies[i] = t
		rng := rand.New(rand.NewSource(cfg.seed + int64(i) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p := &picks[rng.Intn(len(picks))]
				sent := time.Now()
				resp, err := postAllocate(client, cfg, p.text)
				t.latency.Observe(time.Since(sent))
				t.record(p, resp, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	r := &loadReport{
		Workers:  cfg.workers,
		Duration: elapsed,
		Mix:      cfg.mix,
		ByError:  map[string]int64{},
		ByClass:  map[string]int64{},
	}
	var latency engine.Histogram
	for _, t := range tallies {
		r.Requests += t.requests
		r.Errors += t.errors
		r.BlocksCacheHit += t.hits
		r.BlocksIncremental += t.incr
		for c, n := range t.byClass {
			r.ByClass[c] += n
		}
		for c, n := range t.byError {
			r.ByError[c] += n
		}
		latency.Merge(&t.latency)
	}
	r.Latency = latency.Snapshot()
	if elapsed > 0 {
		r.ThroughputRPS = float64(r.Requests-r.Errors) / elapsed
	}
	return r
}

// postAllocate issues one allocation request.
func postAllocate(client *http.Client, cfg *loadConfig, program string) (*allocResponse, error) {
	body, err := json.Marshal(&engine.Request{
		Program: program,
		Options: engine.RequestOptions{Registers: cfg.registers, MemDivisor: cfg.memdiv},
	})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(cfg.url+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var ar allocResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &ar, nil
}

// errCode buckets an error for the by-error report.
func errCode(err error) string {
	msg := err.Error()
	switch {
	case strings.HasPrefix(msg, "http "):
		return strings.SplitN(msg, ":", 2)[0]
	case strings.HasPrefix(msg, "transport"):
		return "transport"
	case strings.HasPrefix(msg, "decode"):
		return "decode"
	default:
		return "other"
	}
}

// fetchStats pulls the daemon's /statsz snapshot.
func fetchStats(client *http.Client, url string) (*engine.Snapshot, error) {
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var snap engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// loadReport is the run summary; -json emits it verbatim. Duration is the
// measured run time, from the first send to the last worker's return.
type loadReport struct {
	Workers           int                      `json:"workers"`
	Duration          float64                  `json:"duration_s"`
	Mix               string                   `json:"mix"`
	Requests          int64                    `json:"requests"`
	Errors            int64                    `json:"errors"`
	ByError           map[string]int64         `json:"by_error,omitempty"`
	ThroughputRPS     float64                  `json:"throughput_rps"`
	BlocksCacheHit    int64                    `json:"blocks_cache_hit"`
	BlocksIncremental int64                    `json:"blocks_incremental"`
	ByClass           map[string]int64         `json:"by_class"`
	Latency           engine.HistogramSnapshot `json:"latency"`
	Server            *engine.Snapshot         `json:"server,omitempty"`
}

// write renders the report as text or JSON.
func (r *loadReport) write(w io.Writer, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	fmt.Fprintf(w, "leaload: %d workers for %.1fs against mix %s\n", r.Workers, r.Duration, r.Mix)
	fmt.Fprintf(w, "requests:        %d (%d failed)\n", r.Requests, r.Errors)
	fmt.Fprintf(w, "throughput:      %.1f req/s\n", r.ThroughputRPS)
	fmt.Fprintf(w, "latency:         p50 %s  p95 %s  p99 %s  max %s\n",
		time.Duration(r.Latency.P50NS), time.Duration(r.Latency.P95NS),
		time.Duration(r.Latency.P99NS), time.Duration(r.Latency.MaxNS))
	for _, c := range sortedKeys(r.ByClass) {
		fmt.Fprintf(w, "  class %-9s %d requests\n", c+":", r.ByClass[c])
	}
	for _, c := range sortedKeys(r.ByError) {
		fmt.Fprintf(w, "  error %-9s %d\n", c+":", r.ByError[c])
	}
	fmt.Fprintf(w, "warm path:       %d cache-hit blocks, %d incremental solves (client view)\n",
		r.BlocksCacheHit, r.BlocksIncremental)
	if r.Server != nil {
		s := r.Server
		total := s.CacheHits + s.CacheMisses
		ratio := 0.0
		if total > 0 {
			ratio = float64(s.CacheHits) / float64(total)
		}
		fmt.Fprintf(w, "server:          cache %d/%d hits (%.0f%%), %d evictions; solves cold %d / warm %d / incremental %d\n",
			s.CacheHits, total, 100*ratio, s.CacheEvictions, s.SolvesCold, s.SolvesWarm, s.SolvesIncremental)
		fmt.Fprintf(w, "server latency:  p50 %s  p99 %s (requests), p50 %s (solve)\n",
			time.Duration(s.RequestLatency.P50NS), time.Duration(s.RequestLatency.P99NS),
			time.Duration(s.SolveLatency.P50NS))
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable text output.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
