// Package flow implements minimum-cost network flow, the solution engine of
// the paper. It provides:
//
//   - a Network builder with arc lower bounds, capacities, integer costs and
//     node imbalances (b-flows);
//   - a successive-shortest-path solver with node potentials (polynomial
//     time, the primary engine);
//   - an independent cycle-cancelling solver used to cross-check optimality;
//   - a Dinic maximum-flow solver used as a substrate and for feasibility.
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
	supply      []int64
}

// Unbounded is a convenience capacity treated as "effectively infinite".
const Unbounded = int64(math.MaxInt64) / 4

// ErrInfeasible is returned when the requested flow (or the lower bounds /
// supplies) cannot be satisfied.
var ErrInfeasible = errors.New("flow: infeasible")

// ErrNegativeCycle is returned when the network's initial residual contains a
// negative-cost cycle within capacity bounds, so no node potentials exist and
// minimum cost is unbounded below over circulations. Networks built by
// internal/netbuild never trip this; hand-built networks with negative arc
// costs can.
var ErrNegativeCycle = errors.New("flow: negative cycle in initial residual network")

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("flow: negative node count")
	}
	return &Network{n: n, supply: make([]int64, n)}
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

// AddNode appends a node and returns its ID.
func (nw *Network) AddNode() int {
	nw.supply = append(nw.supply, 0)
	nw.n++
	return nw.n - 1
}

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

// SetSupply sets node v's imbalance: positive for supply, negative for
// demand. The sum of all supplies must be zero at Solve time.
func (nw *Network) SetSupply(v int, b int64) {
	if v < 0 || v >= nw.n {
		//lealint:ignore LEA0201 index precondition, mirrors slice-bounds semantics
		panic(fmt.Sprintf("flow: node %d out of range", v))
	}
	nw.supply[v] = b
}

// AddSupply adds b to node v's imbalance.
func (nw *Network) AddSupply(v int, b int64) {
	if v < 0 || v >= nw.n {
		//lealint:ignore LEA0201 index precondition, mirrors slice-bounds semantics
		panic(fmt.Sprintf("flow: node %d out of range", v))
	}
	nw.supply[v] += b
}

// Supply returns node v's configured imbalance: positive for supply, negative
// for demand.
func (nw *Network) Supply(v int) int64 {
	if v < 0 || v >= nw.n {
		//lealint:ignore LEA0201 index precondition, mirrors slice-bounds semantics
		panic(fmt.Sprintf("flow: node %d out of range", v))
	}
	return nw.supply[v]
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
	// Augmentations counts shortest-path augmentations (SSP) or cancelled
	// cycles (cycle cancelling); exposed for benchmarks.
	Augmentations int
}

// Flow returns the flow on arc id.
func (s *Solution) Flow(id ArcID) int64 { return s.FlowByArc[id] }

// residual is the paired-arc residual representation shared by the solvers.
// Raw arc index 2i is the forward copy of user arc i (after lower-bound
// reduction when applicable) and 2i+1 its reverse; extra arcs (super
// source/sink) follow.
//
// Storage is structure-of-arrays and, after ensureCSR, physically permuted
// into CSR order: arcs grouped by tail node (start[v]..start[v+1] delimits
// node v's contiguous run), stable in raw-index order within a node. The
// solver inner loops therefore stream tail/to/capR/cost contiguously with no
// adjacency indirection at all. pos maps raw arc indices to storage
// positions (for cost installs, flow extraction and super-arc patching) and
// rev links each storage position to its paired reverse arc's position —
// the SoA replacement for the former idx^1 trick.
type residual struct {
	n    int
	tail []int32 // tail[p] = tail node of the arc stored at p
	to   []int32
	capR []int64 // remaining capacity
	cost []int64
	rev  []int32 // rev[p] = storage position of p's paired reverse arc
	pos  []int32 // pos[i] = storage position of raw arc index i
	// CSR index, valid while dirty is false.
	start []int32 // len n+1; start[v] = first storage position of node v
	// ensureCSR / raw-order restore scratch.
	cursor []int32
	perm   []int32
	tmp32  []int32
	tmp64  []int64
	dirty  bool
	// permuted marks that storage order differs (or may differ) from raw
	// order; truncate must gather back to raw order before shedding arcs.
	permuted bool
}

func newResidual(n, arcHint int) *residual {
	w := 2 * arcHint
	return &residual{
		n:     n,
		tail:  make([]int32, 0, w),
		to:    make([]int32, 0, w),
		capR:  make([]int64, 0, w),
		cost:  make([]int64, 0, w),
		rev:   make([]int32, 0, w),
		pos:   make([]int32, 0, w),
		dirty: true,
	}
}

// addNode extends the residual with a fresh node.
func (r *residual) addNode() int {
	r.n++
	r.dirty = true
	return r.n - 1
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

// truncate drops arcs appended after the first m, marking the CSR index
// stale when anything was removed (the warm-start reset uses this to shed a
// cost-scaling return arc left over from a previous solve). Storage is
// gathered back to raw order first so the surviving prefix is exactly raw
// arcs [0, m).
func (r *residual) truncate(m int) {
	if len(r.to) == m {
		return
	}
	if r.permuted {
		r.restoreRawOrder()
	}
	r.tail = r.tail[:m]
	r.to = r.to[:m]
	r.capR = r.capR[:m]
	r.cost = r.cost[:m]
	r.pos = r.pos[:m]
	r.rev = r.rev[:m]
	r.dirty = true
}

// restoreRawOrder gathers storage back into raw arc-index order (the inverse
// of the CSR permutation), after which pos is the identity and rev the plain
// pair linkage. Cold-path only: warm re-solves never leave CSR order.
func (r *residual) restoreRawOrder() {
	m := len(r.to)
	r.tmp32 = grow32(r.tmp32, m)
	r.tmp64 = grow64(r.tmp64, m)
	gather32 := func(dst []int32) {
		for i := 0; i < m; i++ {
			r.tmp32[i] = dst[r.pos[i]]
		}
		copy(dst, r.tmp32)
	}
	gather64 := func(dst []int64) {
		for i := 0; i < m; i++ {
			r.tmp64[i] = dst[r.pos[i]]
		}
		copy(dst, r.tmp64)
	}
	gather32(r.tail)
	gather32(r.to)
	gather64(r.capR)
	gather64(r.cost)
	for i := 0; i < m; i++ {
		r.pos[i] = int32(i)
	}
	for i := 0; i+1 < m; i += 2 {
		r.rev[i] = int32(i + 1)
		r.rev[i+1] = int32(i)
	}
	r.permuted = false
	r.dirty = true
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
		r.permuted = true
	}
	r.dirty = false
}

// flowOn reports the flow pushed through forward raw arc idx (== capacity of
// its reverse arc).
func (r *residual) flowOn(idx int) int64 { return r.capR[r.pos[idx^1]] }

// Stats summarises a network's shape for diagnostics and benchmarks.
type Stats struct {
	Nodes, Arcs   int
	LowerBounded  int
	NegativeCosts int
	TotalSupply   int64
}

// Stats computes the network's shape summary.
func (nw *Network) Stats() Stats {
	st := Stats{Nodes: nw.n, Arcs: len(nw.from)}
	for i := range nw.from {
		if nw.lower[i] > 0 {
			st.LowerBounded++
		}
		if nw.cost[i] < 0 {
			st.NegativeCosts++
		}
	}
	for _, b := range nw.supply {
		if b > 0 {
			st.TotalSupply += b
		}
	}
	return st
}

// String renders the stats compactly.
func (st Stats) String() string {
	return fmt.Sprintf("nodes=%d arcs=%d lower-bounded=%d negative-cost=%d supply=%d",
		st.Nodes, st.Arcs, st.LowerBounded, st.NegativeCosts, st.TotalSupply)
}
