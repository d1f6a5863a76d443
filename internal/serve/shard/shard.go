// Package shard spreads serving requests across several independent engine
// instances. A Router consistent-hashes each request's canonical
// lifetime-shape key (engine.RouteKey) onto one of N engines, so repeated
// program shapes always land on the shard whose template cache is already
// warm for them, while distinct shapes spread out; each engine keeps its own
// admission queue, worker pool, caches and metrics. The Router exposes the
// same surface a single engine does (it satisfies transport.Service), so the
// HTTP layer is indifferent to whether it fronts one engine or a fleet.
package shard

import (
	"context"
	"io"
	"strconv"

	"repro/internal/serve/engine"
)

// Config sizes a Router. Zero values select the defaults.
type Config struct {
	// Shards is the engine-instance count (default 1).
	Shards int
	// Engine configures every shard's engine identically.
	Engine engine.Config
}

// Router fans requests out over N engines by consistent-hashing the route
// key. Create with New, retire with Close.
type Router struct {
	shards []*engine.Engine
	ring   *ring
}

// New starts cfg.Shards engines and the ring that routes onto them.
func New(cfg Config) *Router {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	r := &Router{
		shards: make([]*engine.Engine, n),
		ring:   newRing(n),
	}
	for i := range r.shards {
		r.shards[i] = engine.New(cfg.Engine)
	}
	return r
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes one shard's engine (for tests and direct inspection).
func (r *Router) Shard(i int) *engine.Engine { return r.shards[i] }

// Allocate routes the request to the shard owning its shape key and runs it
// there. Error semantics are exactly the engine's.
func (r *Router) Allocate(ctx context.Context, req *engine.Request) (*engine.Response, error) {
	return r.shards[r.ring.lookup(engine.RouteKey(req))].Allocate(ctx, req)
}

// MaxProgramBytes reports the per-request program bound (identical across
// shards by construction).
func (r *Router) MaxProgramBytes() int { return r.shards[0].MaxProgramBytes() }

// Close drains every shard concurrently and returns the first error.
func (r *Router) Close(ctx context.Context) error {
	errs := make(chan error, len(r.shards))
	for _, s := range r.shards {
		go func(s *engine.Engine) { errs <- s.Close(ctx) }(s)
	}
	var first error
	for range r.shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot is the sharded /statsz document: the engine Snapshot schema with
// every counter summed and the latency histograms exactly merged across
// shards — single-shard deployments keep the old JSON shape — plus the
// per-shard snapshots.
type Snapshot struct {
	engine.Snapshot
	// Shards holds each engine's own snapshot, in shard order.
	Shards []engine.Snapshot `json:"shards"`
}

// Snapshot aggregates the fleet.
func (r *Router) Snapshot() Snapshot {
	var out Snapshot
	var reqLat, solveLat engine.Histogram
	out.Shards = make([]engine.Snapshot, len(r.shards))
	for i, s := range r.shards {
		sn := s.Snapshot()
		out.Shards[i] = sn
		m := &out.Snapshot
		m.Requests += sn.Requests
		m.Errors += sn.Errors
		m.Overloads += sn.Overloads
		m.Timeouts += sn.Timeouts
		m.Panics += sn.Panics
		m.Inflight += sn.Inflight
		m.QueueDepth += sn.QueueDepth
		m.CacheHits += sn.CacheHits
		m.CacheMisses += sn.CacheMisses
		m.CacheEvictions += sn.CacheEvictions
		m.CacheEntries += sn.CacheEntries
		m.SolvesCold += sn.SolvesCold
		m.SolvesWarm += sn.SolvesWarm
		m.SolvesIncremental += sn.SolvesIncremental
		m.StageSplitNS += sn.StageSplitNS
		m.StagePinNS += sn.StagePinNS
		m.StageBuildNS += sn.StageBuildNS
		m.StageSolveNS += sn.StageSolveNS
		m.StageDecodeNS += sn.StageDecodeNS
		s.MergeLatencyInto(&reqLat, &solveLat)
	}
	out.RequestLatency = reqLat.Snapshot()
	out.SolveLatency = solveLat.Snapshot()
	return out
}

// StatsJSON returns the aggregated Snapshot as the /statsz document.
func (r *Router) StatsJSON() any { return r.Snapshot() }

// WriteMetrics renders every shard's registry. A single shard writes the
// plain exposition (back-compatible with the unsharded daemon); a fleet
// labels each series with its shard index, `requests_total{shard="1"} 42`.
func (r *Router) WriteMetrics(w io.Writer) error {
	if len(r.shards) == 1 {
		return r.shards[0].WriteMetrics(w)
	}
	for i, s := range r.shards {
		labels := map[string]string{"shard": strconv.Itoa(i)}
		if err := s.Metrics().WriteTextLabels(w, labels); err != nil {
			return err
		}
	}
	return nil
}
