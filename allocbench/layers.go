package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/sched"
	"repro/internal/serve/engine"
	"repro/internal/sweep"
)

// solveTally sums the RunStats of every allocation while installed with
// core.SetStatsCollector.
type solveTally struct {
	mu                                         sync.Mutex
	solves, augmentations, dijkstraIters, arcs int64
	build                                      time.Duration
}

func (t *solveTally) add(st core.RunStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solves++
	t.augmentations += int64(st.Solver.Augmentations)
	t.dijkstraIters += int64(st.Solver.DijkstraIters)
	t.arcs += int64(st.Arcs)
	t.build += st.BuildTime
}

// metrics adds the solver counters and the build time the RunStats report,
// over ops operations.
func (t *solveTally) metrics(r *report, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.solves)
	r.add("core.reported_build_us_per_op", "us", ratio(us(t.build), float64(ops)), ops)
	r.add("netbuild.arcs_per_solve", "count", ratio(float64(t.arcs), float64(t.solves)), n)
	r.add("flow.augmentations_per_solve", "count", ratio(float64(t.augmentations), float64(t.solves)), n)
	r.add("flow.dijkstra_iters_per_solve", "count", ratio(float64(t.dijkstraIters), float64(t.solves)), n)
	r.add("flow.solves_per_op", "count", ratio(float64(t.solves), float64(ops)), ops)
}

// memDelta accumulates the Go runtime's allocation and GC counters over
// measured phases.
type memDelta struct{ mallocs, bytes, gcs uint64 }

// measure runs f and adds the counters' growth during it.
func (m *memDelta) measure(f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := f()
	runtime.ReadMemStats(&m1)
	m.mallocs += m1.Mallocs - m0.Mallocs
	m.bytes += m1.TotalAlloc - m0.TotalAlloc
	m.gcs += uint64(m1.NumGC - m0.NumGC)
	return err
}

// metrics adds the counters per op over ops operations.
func (m *memDelta) metrics(r *report, ops int) {
	n := float64(ops)
	r.add("runtime.allocs_per_op", "count", float64(m.mallocs)/n, ops)
	r.add("runtime.alloc_bytes_per_op", "bytes", float64(m.bytes)/n, ops)
	r.add("runtime.gc_cycles_per_kop", "count", 1000*float64(m.gcs)/n, ops)
}

// overhead prints the end-to-end metrics of the untraced and the traced
// phase side by side and adds the tracing overhead: traced minus untraced.
func (r *report) overhead(untraced, traced phase, setupsA, setupsB []float64) error {
	if err := r.endToEnd("untraced.", untraced, setupsA); err != nil {
		return err
	}
	if err := r.endToEnd("traced.", traced, setupsB); err != nil {
		return err
	}
	cpu := func(p phase) float64 { return us(p.cpu) / float64(p.ops) }
	r.add("trace.overhead_latency_p50_us", "us", quantile(traced.lat, 0.5)-quantile(untraced.lat, 0.5), len(traced.lat))
	r.add("trace.overhead_cpu_us_per_op", "us", cpu(traced)-cpu(untraced), traced.ops)
	return nil
}

// samples accumulates replayed layer timings in µs.
type samples map[string][]float64

// since records the time from t0 under layer.
func (s samples) since(layer string, t0 time.Time) {
	s[layer] = append(s[layer], us(time.Since(t0)))
}

// p50 is the median of a layer's samples.
func (s samples) p50(layer string) float64 { return quantile(s[layer], 0.5) }

// serviceLayers adds the transport, shard, engine, ir, sched, lifetime, core,
// netbuild and flow metrics of a traced serving phase. Transport self time,
// the engine's Allocate span and its PreSolve wait come from the spans; the
// cache and solve counters are Snapshot deltas; the layer costs are replays
// of the given requests.
func serviceLayers(r *report, tp *tracedPhase, replay []span) error {
	var self, alloc, presolve []float64
	for _, sp := range tp.spans {
		child := sp.allocEnd - sp.allocStart
		self = append(self, float64(sp.end-sp.start-child)/1e3)
		alloc = append(alloc, float64(child)/1e3)
		if ps := sp.preSolve.Load(); ps != 0 {
			presolve = append(presolve, float64(ps-sp.allocStart)/1e3)
		}
	}
	ops := tp.p.ops
	r.add("transport.self_us_p50", "us", quantile(self, 0.5), len(self))
	r.add("transport.resp_bytes_per_op", "bytes", float64(tp.p.respBytes)/float64(ops), ops)
	allocP50 := quantile(alloc, 0.5)
	r.add("engine.allocate_us_p50", "us", allocP50, len(alloc))
	r.add("engine.allocate_us_p90", "us", quantile(alloc, 0.9), len(alloc))
	r.add("engine.presolve_us_p50", "us", quantile(presolve, 0.5), len(presolve))

	s0, s1 := tp.s0, tp.s1
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	solves := (s1.SolvesCold - s0.SolvesCold) + (s1.SolvesWarm - s0.SolvesWarm)
	missRatio := ratio(float64(misses), float64(hits+misses))
	r.add("engine.cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.add("engine.cache_evictions_per_op", "count", float64(s1.CacheEvictions-s0.CacheEvictions)/float64(ops), ops)
	r.add("engine.solves_incremental_ratio", "ratio", ratio(float64(s1.SolvesIncremental-s0.SolvesIncremental), float64(solves)), int(solves))
	r.add("engine.solves_cold_ratio", "ratio", ratio(float64(s1.SolvesCold-s0.SolvesCold), float64(solves)), int(solves))
	r.add("engine.errors", "count", float64(s1.Errors-s0.Errors), ops)
	r.add("engine.overloads", "count", float64(s1.Overloads-s0.Overloads), ops)
	r.add("engine.timeouts", "count", float64(s1.Timeouts-s0.Timeouts), ops)

	s, err := replayLayers(tp.st.handler, replay)
	if err != nil {
		return err
	}
	for _, l := range []struct{ layer, name string }{
		{"decode", "transport.decode_us_p50"},
		{"encode", "transport.encode_us_p50"},
		{"route", "shard.route_us_p50"},
		{"parse", "ir.parse_us_p50"},
		{"sched", "sched.list_us_p50"},
		{"lifetime", "lifetime.from_schedule_us_p50"},
		{"prepare", "core.prepare_us_p50"},
		{"warm_allocate", "core.warm_allocate_us_p50"},
		{"price", "netbuild.price_us_p50"},
		{"solve", "flow.solve_us_p50"},
	} {
		r.add(l.name, "us", s.p50(l.layer), len(s[l.layer]))
	}
	// The layers the engine runs inside its Allocate span; prepare runs only
	// on a template-cache miss.
	inside := s.p50("route") + s.p50("parse") + s.p50("sched") + s.p50("lifetime") +
		s.p50("price") + s.p50("solve") + missRatio*s.p50("prepare")
	r.add("trace.coverage_ratio", "ratio", ratio(inside, allocP50), len(alloc))
	return nil
}

// shapeKey identifies a template the way the engine's cache does for these
// corpora: one program block under one memory divisor.
type shapeKey struct {
	text       string
	div, block int
}

// shapeState is a replayed template with the solver state the engine would
// keep for it between requests.
type shapeState struct {
	key   shapeKey
	pre   *core.Prepared
	sc    *flow.Scratch
	sol   flow.Solution
	st    flow.SolveStats
	costs []int64
}

// templateCacheEntries is the default engine.Config's template cache size.
const templateCacheEntries = 128

// shapeLRU holds replayed templates the way the engine's cache holds
// prepared ones: at most templateCacheEntries, least recently used dropped.
type shapeLRU struct {
	m     map[shapeKey]*list.Element
	order *list.List // of *shapeState, most recent first
}

func (c *shapeLRU) get(k shapeKey) *shapeState {
	el, ok := c.m[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*shapeState)
}

func (c *shapeLRU) put(sh *shapeState) {
	if el, ok := c.m[sh.key]; ok {
		c.order.Remove(el)
	}
	c.m[sh.key] = c.order.PushFront(sh)
	if c.order.Len() > templateCacheEntries {
		last := c.order.Remove(c.order.Back()).(*shapeState)
		delete(c.m, last.key)
	}
}

// replayLayers re-runs each layer's public functions on the traced
// requests, in the order they were served, and returns their timings.
// Solves replay on per-shape templates the way the engine's cache serves
// them: a request the engine missed solves a freshly prepared template, a
// hit re-solves the shape's previous one. The encode replay needs each
// shape's reply, so one probe request per distinct entry goes through h
// first.
func replayLayers(h http.Handler, spans []span) (samples, error) {
	replies := make(map[*entry]*engine.Response)
	probe := &client{}
	for i := range spans {
		e := spans[i].e
		if replies[e] != nil {
			continue
		}
		probe.send(h, e, nil)
		if probe.p.firstErr != nil {
			return nil, fmt.Errorf("probe: %w", probe.p.firstErr)
		}
		resp := new(engine.Response)
		if err := json.Unmarshal(probe.rec.body.Bytes(), resp); err != nil {
			return nil, fmt.Errorf("probe %s: %w", e.name, err)
		}
		replies[e] = resp
	}

	eng, err := flow.EngineByName("")
	if err != nil {
		return nil, err
	}
	lastR := make(map[shapeKey]int)
	for i := range spans {
		e := spans[i].e
		for bi := range e.ref {
			lastR[shapeKey{e.text, e.opts.MemDivisor, bi}] = e.opts.Registers
		}
	}
	s := make(samples)
	shapes := shapeLRU{m: make(map[shapeKey]*list.Element), order: list.New()}
	var enc bytes.Buffer
	for i := range spans {
		sp := &spans[i]
		e := sp.e
		t0 := time.Now()
		req, err := engine.DecodeRequest(bytes.NewReader(e.body), 0)
		s.since("decode", t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		engine.RouteKey(req)
		s.since("route", t0)
		t0 = time.Now()
		prog, err := ir.ParseString(req.Program)
		s.since("parse", t0)
		if err != nil {
			return nil, err
		}
		opts, co := coreOptions(e.opts)
		bi := 0
		for _, task := range prog.Tasks {
			for _, b := range task.Blocks {
				t0 = time.Now()
				sc, err := sched.List(b, sched.Resources{ALUs: e.opts.ALUs, Multipliers: e.opts.Multipliers})
				s.since("sched", t0)
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				set, err := lifetime.FromSchedule(sc)
				s.since("lifetime", t0)
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				pre, err := core.Prepare(set, opts)
				s.since("prepare", t0)
				if err != nil {
					return nil, err
				}
				if _, err := pre.Allocate(e.opts.Registers+1, co); err != nil {
					return nil, err
				}
				t0 = time.Now()
				_, err = pre.Allocate(e.opts.Registers, co)
				s.since("warm_allocate", t0)
				if err != nil {
					return nil, err
				}

				key := shapeKey{e.text, e.opts.MemDivisor, bi}
				bi++
				sh := shapes.get(key)
				warm := sh != nil && sp.hit
				if !warm {
					sh = &shapeState{key: key, pre: pre, sc: flow.NewScratch()}
					shapes.put(sh)
				}
				t0 = time.Now()
				sh.costs, _, err = sh.pre.Template().CostVectorInto(sh.costs, co)
				s.since("price", t0)
				if err != nil {
					return nil, err
				}
				nb := sh.pre.Template().Build
				solve := func(registers int) error {
					return nb.Net.MinCostFlowValueWithCostsInto(eng, sh.costs, sh.sc, nb.S, nb.T, int64(registers), &sh.sol, &sh.st)
				}
				if !warm && sp.hit {
					// The engine warmed this shape before the traced phase,
					// and in a repeating stream its previous solve was the
					// shape's last one in the replayed requests.
					if err := solve(lastR[key]); err != nil {
						return nil, err
					}
				}
				t0 = time.Now()
				err = solve(e.opts.Registers)
				s.since("solve", t0)
				if err != nil {
					return nil, err
				}
			}
		}
		enc.Reset()
		t0 = time.Now()
		err = json.NewEncoder(&enc).Encode(replies[e])
		s.since("encode", t0)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runnerReplay adds the sweep metrics for a serving workload: a
// sweep.Runner over each of the first runnerShapes distinct shapes served,
// at the served register count across divisors 1, 2 and 4.
func runnerReplay(r *report, spans []*span) error {
	const runnerShapes = 8
	seen := make(map[*entry]bool)
	var newRunner []float64
	cells, feasible := 0, 0
	for _, sp := range spans {
		e := sp.e
		if seen[e] {
			continue
		}
		seen[e] = true
		prog, err := ir.ParseString(e.text)
		if err != nil {
			return err
		}
		sc, err := sched.List(prog.Tasks[0].Blocks[0], sched.Resources{ALUs: e.opts.ALUs, Multipliers: e.opts.Multipliers})
		if err != nil {
			return err
		}
		set, err := lifetime.FromSchedule(sc)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rn, err := sweep.NewRunner(set, sweep.Options{Registers: []int{e.opts.Registers}, Divisors: []int{1, 2, 4}})
		newRunner = append(newRunner, us(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		g, err := rn.Run()
		if err != nil {
			return err
		}
		cells += len(g.Points)
		feasible += countFeasible(g)
		if len(seen) == runnerShapes {
			break
		}
	}
	n := float64(len(newRunner))
	runnerMetrics(r, newRunner, float64(cells)/n, float64(feasible)/n)
	return nil
}

// runnerMetrics adds the sweep metrics: NewRunner times in ms, and the cells
// and feasible cells of one Run.
func runnerMetrics(r *report, newRunner []float64, cells, feasible float64) {
	r.add("sweep.new_runner_ms", "ms", quantile(newRunner, 0.5), len(newRunner))
	r.add("sweep.cells_per_run", "count", cells, len(newRunner))
	r.add("sweep.feasible_cells", "count", feasible, len(newRunner))
}

// countFeasible counts a grid's feasible cells.
func countFeasible(g *sweep.Grid) int {
	n := 0
	for _, p := range g.Points {
		if p.Feasible {
			n++
		}
	}
	return n
}
