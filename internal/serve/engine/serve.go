// Package engine is the allocation-as-a-service request engine: a bounded
// admission queue feeding a worker pool of solver contexts, fronted by an
// LRU template cache so repeated program shapes re-solve a cached
// core.Prepared on its retained solver scratch (warm, often incremental)
// instead of preparing again, with an in-process metrics registry
// (counters, gauges, log-bucketed latency histograms) and graceful drain.
// A cache miss runs core.Prepare and then the same prepared solve, so hits
// and misses share the one solve path of internal/flow. Every request takes
// one path: a worker dequeues it and solves its blocks one at a time. The
// only hook into that path is Config.PreSolve, which runs before each
// block's solve so a benchmark can time a request's way up to its solve and
// tests can park a worker.
//
// The package is transport-free by design: it speaks Request/Response and
// typed errors, never HTTP. internal/serve/transport maps those to an HTTP
// API, internal/serve/shard spreads requests across several engines, and
// cmd/leaserved assembles the three into a daemon; cmd/leaload drives it
// under closed-loop load.
package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
)

// Config sizes an Engine. Zero values select the defaults.
type Config struct {
	// Workers is the solver worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with ErrOverloaded (default 64).
	QueueDepth int
	// CacheEntries caps the LRU template cache (default 128 shapes).
	CacheEntries int
	// RequestTimeout bounds each request's end-to-end time (default 10s;
	// negative disables the timeout).
	RequestTimeout time.Duration
	// MaxProgramBytes bounds the TAC text accepted per request (default
	// DefaultMaxProgramBytes).
	MaxProgramBytes int
	// PreSolve, when non-nil, runs on the worker goroutine before each
	// block's solve, after the block has been scheduled and its template
	// resolved. It serves two callers outside this package: allocbench
	// timestamps it to measure how long a request takes to reach its solve
	// (engine.presolve_us_p50), and tests park a worker in it to build queue
	// pressure deterministically — on a single-CPU machine the channel
	// handoff runs the worker after every enqueue, so a queue never builds
	// by itself. Production configs leave it nil.
	PreSolve func(*Request)
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxProgramBytes <= 0 {
		c.MaxProgramBytes = DefaultMaxProgramBytes
	}
	return c
}

// BlockResult summarises one block's allocation in a response. Stats reuses
// the canonical core.RunStats JSON schema.
type BlockResult struct {
	Task            string  `json:"task"`
	Block           string  `json:"block"`
	Registers       int     `json:"registers"`
	RegistersUsed   int     `json:"registers_used"`
	MemoryLocations int     `json:"memory_locations"`
	Energy          float64 `json:"energy"`
	BaselineEnergy  float64 `json:"baseline_energy"`
	// Assignments lists each variable's residence decision (register index
	// of its first segment, -1 for memory), sorted by variable name.
	Assignments []VarAssignment `json:"assignments"`
	// CacheHit reports that this block's shape was served from the template
	// cache (warm path).
	CacheHit bool `json:"cache_hit"`
	// Stats is the per-stage pipeline and solver work for this block.
	Stats core.RunStats `json:"stats"`
}

// VarAssignment is one variable's decoded residence.
type VarAssignment struct {
	Var string `json:"var"`
	// Register is the register index of the variable's first segment, or -1
	// when it starts in memory.
	Register int `json:"register"`
}

// Response is the allocate reply: one entry per block in program order.
type Response struct {
	Blocks []BlockResult `json:"blocks"`
	// TotalEnergy sums the blocks' energies.
	TotalEnergy float64 `json:"total_energy"`
}

// job is one queued request with its reply channel and admission time.
type job struct {
	ctx      context.Context
	req      *Request
	done     chan jobResult
	enqueued time.Time
}

// jobResult carries a worker's reply.
type jobResult struct {
	resp *Response
	err  error
}

// Engine is the serving engine. Create with New, retire with Close.
type Engine struct {
	cfg     Config
	queue   chan *job
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	cache   *templateCache
	metrics *Registry

	// Hot counters, also registered in metrics by name.
	requests    *Counter
	errors      *Counter
	overloads   *Counter
	timeouts    *Counter
	panics      *Counter
	cacheHits   *Counter
	cacheMisses *Counter
	cacheEvicts *Counter
	solveCold   *Counter
	solveWarm   *Counter
	solveIncr   *Counter
	inflight    *Gauge
	queueDepth  *Gauge

	// latency runs from admission to reply, queueWait from admission to
	// dequeue.
	latency     *Histogram
	queueWait   *Histogram
	solveLat    *Histogram
	stageTotals map[string]*Counter

	// testHookPreSolve, when set, runs inside the worker just before a
	// block's solve — the test seam for panic-recovery and queue-pressure
	// tests.
	testHookPreSolve func(*Request)
}

// New starts an engine with cfg's worker pool running.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	m := NewRegistry()
	e := &Engine{
		cfg:         cfg,
		queue:       make(chan *job, cfg.QueueDepth),
		cache:       newTemplateCache(cfg.CacheEntries, m.Counter("cache_evictions_total")),
		metrics:     m,
		requests:    m.Counter("requests_total"),
		errors:      m.Counter("errors_total"),
		overloads:   m.Counter("overloads_total"),
		timeouts:    m.Counter("timeouts_total"),
		panics:      m.Counter("panics_total"),
		cacheHits:   m.Counter("cache_hits_total"),
		cacheMisses: m.Counter("cache_misses_total"),
		cacheEvicts: m.Counter("cache_evictions_total"),
		solveCold:   m.Counter("solves_cold_total"),
		solveWarm:   m.Counter("solves_warm_total"),
		solveIncr:   m.Counter("solves_incremental_total"),
		inflight:    m.Gauge("requests_inflight"),
		queueDepth:  m.Gauge("queue_depth"),
		latency:     m.Histogram("request_latency"),
		queueWait:   m.Histogram("queue_wait"),
		solveLat:    m.Histogram("solve_latency"),
		stageTotals: map[string]*Counter{
			"split":  m.Counter("stage_split_ns_total"),
			"pin":    m.Counter("stage_pin_ns_total"),
			"build":  m.Counter("stage_build_ns_total"),
			"solve":  m.Counter("stage_solve_ns_total"),
			"decode": m.Counter("stage_decode_ns_total"),
		},
	}
	e.testHookPreSolve = cfg.PreSolve
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics exposes the engine's registry (for /metrics and tests).
func (e *Engine) Metrics() *Registry { return e.metrics }

// MaxProgramBytes reports the configured per-request program-text bound, so
// transports can size body limits without reaching into the config.
func (e *Engine) MaxProgramBytes() int { return e.cfg.MaxProgramBytes }

// StatsJSON returns the engine's Snapshot as the /statsz document.
func (e *Engine) StatsJSON() any { return e.Snapshot() }

// WriteMetrics renders the engine's metrics in the text exposition format.
func (e *Engine) WriteMetrics(w io.Writer) error { return e.metrics.WriteText(w) }

// MetricsJSON returns the engine's metrics as a flat name→value map, the
// machine-readable twin of WriteMetrics (served as /metrics?format=json).
func (e *Engine) MetricsJSON() any { return e.metrics.SnapshotMap() }

// Allocate runs one request through the admission queue and worker pool. It
// returns ErrOverloaded when the queue is full, ErrClosed after Close,
// context errors when the caller's or the per-request deadline expires, a
// *RequestError for invalid requests, and *InternalError for a recovered
// worker panic.
func (e *Engine) Allocate(ctx context.Context, req *Request) (*Response, error) {
	if e.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.RequestTimeout)
		defer cancel()
	}
	j := &job{ctx: ctx, req: req, done: make(chan jobResult, 1), enqueued: time.Now()}

	if err := e.enqueue(j); err != nil {
		return nil, err
	}
	e.queueDepth.Set(int64(len(e.queue)))

	select {
	case r := <-j.done:
		return r.resp, r.err
	case <-ctx.Done():
		e.timeouts.Inc()
		return nil, ctx.Err()
	}
}

// Close drains the engine: no new requests are admitted, queued work
// finishes, workers exit. The context bounds the wait; on expiry the
// remaining workers are abandoned (they stop after their current job since
// the queue is closed) and the context error returned. Close is idempotent.
func (e *Engine) Close(ctx context.Context) error {
	e.markClosed()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enqueue admits one job under the close lock. The send is non-blocking —
// a full queue rejects immediately instead of stalling other lockers — and
// the held RLock pins the closed flag so the send cannot race markClosed's
// close(e.queue).
func (e *Engine) enqueue(j *job) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.queue <- j:
		return nil
	default:
		e.overloads.Inc()
		return ErrOverloaded
	}
}

// markClosed flips the engine closed and closes the queue exactly once.
func (e *Engine) markClosed() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
}

// worker drains the queue until Close, running one job at a time.
//
//lea:noalloc
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.queueDepth.Set(int64(len(e.queue)))
		e.runJob(j)
	}
}

// runJob executes one job with panic containment and metrics accounting.
// The request's latency counts from its admission, so it includes the wait
// in the queue.
func (e *Engine) runJob(j *job) {
	e.inflight.Add(1)
	e.queueWait.Observe(time.Since(j.enqueued))
	resp, err := e.processSafely(j)
	e.latency.Observe(time.Since(j.enqueued))
	e.inflight.Add(-1)
	e.requests.Inc()
	if err != nil {
		e.errors.Inc()
	}
	j.done <- jobResult{resp: resp, err: err}
}

// processSafely converts a worker panic into an *InternalError so one
// hostile request cannot take the pool down.
func (e *Engine) processSafely(j *job) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Inc()
			resp, err = nil, &InternalError{Panic: fmt.Sprint(r)}
		}
	}()
	return e.process(j)
}

// process parses, schedules and allocates every block of the request's
// program, taking the warm template-cache path for shapes seen before.
func (e *Engine) process(j *job) (*Response, error) {
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	req := j.req
	if err := validateRequest(req, e.cfg.MaxProgramBytes); err != nil {
		return nil, err
	}
	prog, err := parseProgram(req)
	if err != nil {
		return nil, err
	}
	opts, co := coreOptions(req.Options)
	resp := &Response{}
	for _, task := range prog.Tasks {
		for _, block := range task.Blocks {
			if err := j.ctx.Err(); err != nil {
				return nil, err
			}
			br, err := e.allocateBlock(task.Name, block, req, opts, co)
			if err != nil {
				return nil, err
			}
			resp.Blocks = append(resp.Blocks, *br)
			resp.TotalEnergy += br.Energy
		}
	}
	return resp, nil
}

// allocateBlock schedules one block, resolves its shape against the template
// cache and solves, warm when possible.
func (e *Engine) allocateBlock(taskName string, block *ir.Block, req *Request, opts core.Options, co netbuild.CostOptions) (*BlockResult, error) {
	sc, err := schedule(block, req.Options)
	if err != nil {
		return nil, badRequest("program", fmt.Sprintf("block %q does not schedule", block.Name), err)
	}
	set, err := lifetime.FromSchedule(sc)
	if err != nil {
		return nil, badRequest("program", fmt.Sprintf("block %q has no valid lifetimes", block.Name), err)
	}

	entry := e.cache.acquire(cacheKey(set, req.Options))
	entry.mu.Lock()
	defer entry.mu.Unlock()
	hit := entry.pre != nil
	if hit {
		e.cacheHits.Inc()
	} else {
		e.cacheMisses.Inc()
		pre, err := core.Prepare(set, opts)
		if err != nil {
			return nil, badRequest("program", fmt.Sprintf("block %q does not prepare", block.Name), err)
		}
		entry.pre = pre
	}

	if e.testHookPreSolve != nil {
		e.testHookPreSolve(req)
	}
	res, err := entry.pre.Allocate(req.Options.Registers, co)
	if err != nil {
		// Infeasible register counts and the like are the request's fault.
		return nil, badRequest("options.registers", fmt.Sprintf("block %q does not allocate", block.Name), err)
	}
	e.recordRunStats(res.Stats)

	br := &BlockResult{
		Task:            taskName,
		Block:           block.Name,
		Registers:       req.Options.Registers,
		RegistersUsed:   res.RegistersUsed,
		MemoryLocations: res.MemoryLocations,
		Energy:          res.TotalEnergy,
		BaselineEnergy:  res.BaselineEnergy,
		Assignments:     assignments(res),
		CacheHit:        hit,
		Stats:           res.Stats,
	}
	return br, nil
}

// recordRunStats folds one allocation's RunStats into the registry.
func (e *Engine) recordRunStats(st core.RunStats) {
	e.solveLat.Observe(st.SolveTime)
	e.stageTotals["split"].Add(st.SplitTime.Nanoseconds())
	e.stageTotals["pin"].Add(st.PinTime.Nanoseconds())
	e.stageTotals["build"].Add(st.BuildTime.Nanoseconds())
	e.stageTotals["solve"].Add(st.SolveTime.Nanoseconds())
	e.stageTotals["decode"].Add(st.DecodeTime.Nanoseconds())
	switch {
	case st.Solver.Incremental:
		e.solveIncr.Inc()
		e.solveWarm.Inc()
	case st.Solver.WarmStart:
		e.solveWarm.Inc()
	default:
		e.solveCold.Inc()
	}
}

// assignments extracts the per-variable first-segment residences, sorted by
// variable name (the lifetime set is already name-sorted).
func assignments(res *core.Result) []VarAssignment {
	var out []VarAssignment
	seen := make(map[string]bool)
	for i, seg := range res.Build.Segments {
		if seen[seg.Var] {
			continue
		}
		seen[seg.Var] = true
		reg := -1
		if res.InRegister[i] {
			reg = res.RegOf[i]
		}
		out = append(out, VarAssignment{Var: seg.Var, Register: reg})
	}
	return out
}

// Snapshot is the /statsz document: request, cache and solver counters plus
// latency quantiles, all drawn from the live registry.
type Snapshot struct {
	Requests       int64 `json:"requests"`
	Errors         int64 `json:"errors"`
	Overloads      int64 `json:"overloads"`
	Timeouts       int64 `json:"timeouts"`
	Panics         int64 `json:"panics"`
	Inflight       int64 `json:"inflight"`
	QueueDepth     int64 `json:"queue_depth"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int64 `json:"cache_entries"`
	// Solver-reuse tier counts: cold (full pipeline), warm (prepared
	// residual reused), incremental (previous optimum patched in place).
	SolvesCold        int64 `json:"solves_cold"`
	SolvesWarm        int64 `json:"solves_warm"`
	SolvesIncremental int64 `json:"solves_incremental"`
	// Per-stage cumulative pipeline time.
	StageSplitNS  int64 `json:"stage_split_ns"`
	StagePinNS    int64 `json:"stage_pin_ns"`
	StageBuildNS  int64 `json:"stage_build_ns"`
	StageSolveNS  int64 `json:"stage_solve_ns"`
	StageDecodeNS int64 `json:"stage_decode_ns"`
	// End-to-end and solve-only latency distributions.
	RequestLatency HistogramSnapshot `json:"request_latency"`
	SolveLatency   HistogramSnapshot `json:"solve_latency"`
}

// MergeLatencyInto folds the engine's request and solve latency histograms
// into the given accumulators (exact bucket-wise merge), so a shard router
// can publish fleet-wide quantiles rather than averaging per-shard ones.
func (e *Engine) MergeLatencyInto(request, solve *Histogram) {
	request.Merge(e.latency)
	solve.Merge(e.solveLat)
}

// Snapshot captures the engine's aggregate state.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Requests:          e.requests.Value(),
		Errors:            e.errors.Value(),
		Overloads:         e.overloads.Value(),
		Timeouts:          e.timeouts.Value(),
		Panics:            e.panics.Value(),
		Inflight:          e.inflight.Value(),
		QueueDepth:        e.queueDepth.Value(),
		CacheHits:         e.cacheHits.Value(),
		CacheMisses:       e.cacheMisses.Value(),
		CacheEvictions:    e.cacheEvicts.Value(),
		CacheEntries:      int64(e.cache.len()),
		SolvesCold:        e.solveCold.Value(),
		SolvesWarm:        e.solveWarm.Value(),
		SolvesIncremental: e.solveIncr.Value(),
		StageSplitNS:      e.stageTotals["split"].Value(),
		StagePinNS:        e.stageTotals["pin"].Value(),
		StageBuildNS:      e.stageTotals["build"].Value(),
		StageSolveNS:      e.stageTotals["solve"].Value(),
		StageDecodeNS:     e.stageTotals["decode"].Value(),
		RequestLatency:    e.latency.Snapshot(),
		SolveLatency:      e.solveLat.Snapshot(),
	}
}
