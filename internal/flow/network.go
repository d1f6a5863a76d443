// Package flow implements minimum-cost network flow, the solution engine of
// the paper. It provides:
//
//   - a Network builder with arc lower bounds, capacities and integer costs,
//     whose solves ship a flow value from a source s to a sink t;
//   - one solve path, MinCostFlowValueWithCostsInto, with MinCostFlowValue
//     as its allocating form: the residual is built once per network on a
//     Scratch, and a retained Scratch turns re-solves under new costs or
//     flow values into warm, allocation-free ones. A solve ships the value
//     one shortest s→t path per unit, so a warm re-solve that grows the
//     value under unchanged costs only runs the extra units' rounds on the
//     held optimum; every other re-solve starts from the zero flow and
//     fresh potentials. Either way it returns the cold solve's flow;
//   - lower bounds as penalty copies: each lower-bounded arc gets a parallel
//     residual arc whose capacity is the bound and whose cost is the arc's
//     own less a penalty larger than the cost of any simple path, so an
//     optimum saturates every copy whenever some flow of the value meets
//     the bounds, and a copy left with capacity means ErrInfeasible. A
//     lower-bounded arc on a cycle of the residual makes that cycle
//     negative, which the solve reports as ErrNegativeCycle: lower bounds
//     need an acyclic network, as every network this repository builds is;
//   - successive shortest paths with node potentials as the engine behind
//     that path, the one every caller above this package runs; cycle
//     cancelling and cost-scaling push-relabel, both starting from the
//     value Dinic's maximum-flow algorithm ships from s to t, stay exported
//     as the reference engines the cross-check tests solve with directly.
//
// Costs are int64 fixed-point values: callers quantise their (float) energy
// figures before building the network. Integer costs make integrality and
// termination guarantees exact, mirroring the paper's observation that
// integer capacities and flow yield integer solutions.
package flow

import (
	"errors"
	"fmt"
	"math"
)

// ArcID identifies an arc added to a Network.
type ArcID int

// Network is a directed flow network under construction. Arc fields are kept
// in parallel (structure-of-arrays) slices so that bulk operations — cost
// vector installs, residual construction — stream contiguous memory per
// field. The zero value is not usable; create one with NewNetwork.
type Network struct {
	n int
	// Parallel per-arc storage, indexed by ArcID.
	from, to    []int32
	lower, capU []int64
	cost        []int64
	// lowerBounded counts the arcs with a positive lower bound, so prepare
	// sizes their penalty copies without a pass over the arcs.
	lowerBounded int
}

// Unbounded is a convenience capacity treated as "effectively infinite".
const Unbounded = int64(math.MaxInt64) / 4

// ErrInfeasible is returned when no flow of the requested value meets the
// capacities and lower bounds.
var ErrInfeasible = errors.New("flow: infeasible")

// ErrNegativeCycle is returned when the network's initial residual contains a
// negative-cost cycle within capacity bounds, so no node potentials exist and
// minimum cost is unbounded below over circulations. Networks built by
// internal/netbuild never trip this; hand-built networks with negative arc
// costs can, and so can any with a lower-bounded arc on a cycle, whose
// penalty copy makes that cycle negative.
var ErrNegativeCycle = errors.New("flow: negative cycle in initial residual network")

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("flow: negative node count")
	}
	return &Network{n: n}
}

// NewNetworkSized returns an empty network with n nodes and capacity for
// exactly arcs arcs, so construction code that precomputes its arc count
// never regrows the arc slices.
func NewNetworkSized(n, arcs int) *Network {
	nw := NewNetwork(n)
	if arcs > 0 {
		nw.from = make([]int32, 0, arcs)
		nw.to = make([]int32, 0, arcs)
		nw.lower = make([]int64, 0, arcs)
		nw.capU = make([]int64, 0, arcs)
		nw.cost = make([]int64, 0, arcs)
	}
	return nw
}

// ArcCapacity reports the current capacity of the arc storage; exposed so
// tests can assert that presized construction never regrew it.
func (nw *Network) ArcCapacity() int { return cap(nw.from) }

// N reports the number of nodes.
func (nw *Network) N() int { return nw.n }

// M reports the number of arcs.
func (nw *Network) M() int { return len(nw.from) }

// AddArc adds an arc from->to with the given flow lower bound, capacity and
// per-unit cost, returning its ArcID.
func (nw *Network) AddArc(from, to int, lower, capacity, cost int64) (ArcID, error) {
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		return -1, fmt.Errorf("flow: arc %d->%d out of range [0,%d)", from, to, nw.n)
	}
	if lower < 0 {
		return -1, fmt.Errorf("flow: arc %d->%d has negative lower bound %d", from, to, lower)
	}
	if capacity < lower {
		return -1, fmt.Errorf("flow: arc %d->%d has capacity %d below lower bound %d", from, to, capacity, lower)
	}
	nw.from = append(nw.from, int32(from))
	nw.to = append(nw.to, int32(to))
	nw.lower = append(nw.lower, lower)
	nw.capU = append(nw.capU, capacity)
	nw.cost = append(nw.cost, cost)
	if lower > 0 {
		nw.lowerBounded++
	}
	return ArcID(len(nw.from) - 1), nil
}

// MustArc is AddArc that panics on error; for use with statically valid
// construction code.
func (nw *Network) MustArc(from, to int, lower, capacity, cost int64) ArcID {
	id, err := nw.AddArc(from, to, lower, capacity, cost)
	if err != nil {
		panic(err)
	}
	return id
}

// Arc returns the endpoints, bounds and cost of arc id.
func (nw *Network) Arc(id ArcID) (from, to int, lower, capacity, cost int64) {
	return int(nw.from[id]), int(nw.to[id]), nw.lower[id], nw.capU[id], nw.cost[id]
}

// Solution holds the result of a min-cost flow solve.
type Solution struct {
	// FlowByArc maps each ArcID (by index) to its flow value, including the
	// lower bound.
	FlowByArc []int64
	// Cost is the total cost sum(flow * cost) over all arcs.
	Cost int64
}

// Flow returns the flow on arc id.
func (s *Solution) Flow(id ArcID) int64 { return s.FlowByArc[id] }

// residual is the paired-arc residual representation shared by the solvers.
// Raw arc index 2i is the forward copy of user arc i, with its capacity less
// its lower bound, and 2i+1 its reverse; one penalty copy pair per
// lower-bounded arc follows (prepared.lowered).
//
// Storage is structure-of-arrays and, after ensureCSR, physically permuted
// into CSR order: arcs grouped by tail node (start[v]..start[v+1] delimits
// node v's contiguous run), stable in raw-index order within a node. The
// solver inner loops therefore stream tail/to/capR/cost contiguously with no
// adjacency indirection at all. pos maps raw arc indices to storage
// positions (for cost installs and flow extraction) and rev links each
// storage position to its paired reverse arc's position — the SoA
// replacement for the former idx^1 trick.
//
// live is the live-arc set: one bit per storage position. While SSP runs,
// bit p is set exactly when capR[p] > 0, so Dijkstra and the topological
// pass walk a node's run through its set bits, in increasing position as a
// capacity scan would, and never touch an arc without residual capacity.
// prepare snapshots the zero-flow set beside the zero-flow capacities,
// every full re-solve restores both together, and ssp updates the bits of
// each arc an augmentation changes. Dinic, cycle cancelling and cost
// scaling move flow through capR alone and leave the set stale; none of
// them runs inside an SSP solve.
type residual struct {
	n    int
	tail []int32 // tail[p] = tail node of the arc stored at p
	to   []int32
	capR []int64 // remaining capacity
	cost []int64
	rev  []int32  // rev[p] = storage position of p's paired reverse arc
	pos  []int32  // pos[i] = storage position of raw arc index i
	live []uint64 // bit p%64 of live[p/64]: capR[p] > 0, during SSP solves
	// CSR index, valid while dirty is false.
	start []int32 // len n+1; start[v] = first storage position of node v
	// ensureCSR scratch.
	cursor []int32
	perm   []int32
	tmp32  []int32
	tmp64  []int64
	dirty  bool
}

// addPair appends a forward arc u->v (cap c, cost w) and its zero-capacity
// reverse, returning the forward arc's raw index. New arcs land at the end of
// storage, so pos and rev stay valid even before the next ensureCSR.
func (r *residual) addPair(u, v int, c, w int64) int {
	idx := len(r.to)
	r.tail = append(r.tail, int32(u), int32(v))
	r.to = append(r.to, int32(v), int32(u))
	r.capR = append(r.capR, c, 0)
	r.cost = append(r.cost, w, -w)
	r.pos = append(r.pos, int32(idx), int32(idx+1))
	r.rev = append(r.rev, int32(idx+1), int32(idx))
	r.dirty = true
	return idx
}

// ensureCSR (re)builds the CSR layout if arcs or nodes changed since the last
// build: a stable counting sort by tail node physically permutes the SoA
// storage into CSR order and remaps pos/rev accordingly — O(V+E). Stability
// is in raw arc-index order (appended arcs sit at the end of storage and
// earlier permutations preserve within-node raw order), so each node's arc
// iteration order is identical to the pre-SoA adjacency-list layout and
// solver behaviour is bit-for-bit unchanged.
func (r *residual) ensureCSR() {
	if !r.dirty && len(r.start) == r.n+1 {
		return
	}
	m := len(r.to)
	if cap(r.start) < r.n+1 {
		r.start = make([]int32, r.n+1)
	} else {
		r.start = r.start[:r.n+1]
		for i := range r.start {
			r.start[i] = 0
		}
	}
	for _, u := range r.tail {
		r.start[u+1]++
	}
	for v := 0; v < r.n; v++ {
		r.start[v+1] += r.start[v]
	}
	r.perm = grow32(r.perm, m)
	r.cursor = grow32(r.cursor, r.n)
	copy(r.cursor, r.start[:r.n])
	identity := true
	for p := 0; p < m; p++ {
		u := r.tail[p]
		np := r.cursor[u]
		r.cursor[u] = np + 1
		r.perm[p] = np
		if int(np) != p {
			identity = false
		}
	}
	if !identity {
		r.tmp32 = grow32(r.tmp32, m)
		r.tmp64 = grow64(r.tmp64, m)
		scatter32 := func(dst []int32) {
			for p := 0; p < m; p++ {
				r.tmp32[r.perm[p]] = dst[p]
			}
			copy(dst, r.tmp32)
		}
		scatter64 := func(dst []int64) {
			for p := 0; p < m; p++ {
				r.tmp64[r.perm[p]] = dst[p]
			}
			copy(dst, r.tmp64)
		}
		scatter32(r.tail)
		scatter32(r.to)
		scatter64(r.capR)
		scatter64(r.cost)
		for i := range r.pos {
			r.pos[i] = r.perm[r.pos[i]]
		}
		for i := 0; i+1 < len(r.pos); i += 2 {
			p, q := r.pos[i], r.pos[i+1]
			r.rev[p] = q
			r.rev[q] = p
		}
	}
	r.dirty = false
}

// flowOn reports the flow pushed through forward raw arc idx (== capacity of
// its reverse arc).
func (r *residual) flowOn(idx int) int64 { return r.capR[r.pos[idx^1]] }

// fillLive writes into live, sized to hold one bit per entry of caps, the
// set of positions whose capacity is positive.
//
//lea:noalloc
func fillLive(live []uint64, caps []int64) {
	clear(live)
	for p, c := range caps {
		if c > 0 {
			live[p>>6] |= 1 << (uint(p) & 63)
		}
	}
}

// syncLive sets or clears the live bit of the arc at storage position p to
// match its residual capacity.
//
//lea:noalloc
func (r *residual) syncLive(p int32) {
	if r.capR[p] > 0 {
		r.live[p>>6] |= 1 << (uint32(p) & 63)
	} else {
		r.live[p>>6] &^= 1 << (uint32(p) & 63)
	}
}

// liveWord returns word wi of the live set with every position outside the
// run [lo, hi) cleared. A run's words are lo>>6 through (hi-1)>>6, and the
// caller takes their set bits lowest first, in storage order.
//
//lea:noalloc
func (r *residual) liveWord(wi, lo, hi int) uint64 {
	w := r.live[wi]
	if wi == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if wi == (hi-1)>>6 {
		w &= ^uint64(0) >> (63 - (uint(hi-1) & 63))
	}
	return w
}
