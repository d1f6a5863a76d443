package flow

import (
	"fmt"
	"strings"
	"time"
)

// Engine is a min-cost-flow solution engine. Successive shortest paths is
// the one every caller above this package runs; cycle cancelling and
// cost-scaling push-relabel stay exported as the reference engines the
// cross-check tests compare it against, all certified to return identical
// objectives. The solve method works on the package-private residual
// representation, so external packages pick an engine but cannot implement
// a new one.
type Engine interface {
	// Name is the engine's canonical name.
	Name() string
	// run ships up to required units from s to t on the scratch's residual,
	// recording work counters into st. It returns the amount shipped. It
	// may move flow but never adds or removes residual arcs. A solve calls
	// it once per stage: from the super source to the super sink, then,
	// with Scratch.valueStage set, from the value's s to its t.
	run(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error)
}

// The three engines, as shared stateless instances.
var (
	// SSP is successive shortest paths with node potentials, the production
	// engine: the paper's networks ship tiny flow values, where it wins.
	SSP Engine = sspSolver{}
	// CycleCancelling establishes a feasible flow with Dinic and cancels
	// negative-cost residual cycles; an independent cross-check.
	CycleCancelling Engine = cycleCancelSolver{}
	// CostScaling refines Dinic's feasible flow with Goldberg–Tarjan
	// cost-scaling push-relabel, the "very efficient algorithms" class of
	// the paper's ref. [17]; an independent cross-check.
	CostScaling Engine = costScaleSolver{}
)

// EngineByName resolves an engine by its canonical name; the empty string
// selects SSP.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "", "ssp":
		return SSP, nil
	case "cyclecancel":
		return CycleCancelling, nil
	case "costscale":
		return CostScaling, nil
	}
	return nil, fmt.Errorf("flow: unknown engine %q (have: ssp, cyclecancel, costscale)", name)
}

// SolveStats summarises the work one solve performed; which counters are
// populated depends on the engine. Its JSON is the "solver" object of
// core.RunStats; durations serialise as nanoseconds.
type SolveStats struct {
	// Engine is the name of the engine that ran.
	Engine string `json:"engine"`
	// Augmentations counts shortest-path augmentations (SSP) or cancelled
	// cycles (cycle cancelling).
	Augmentations int `json:"augmentations"`
	// Phases counts Dijkstra rounds (SSP), Bellman–Ford cycle searches
	// (cycle cancelling) or ε-scaling phases (cost scaling).
	Phases int `json:"phases"`
	// DijkstraIters counts the pops of every SSP Dijkstra round, from its
	// distance-0 stack and from its heap, stale heap entries included.
	DijkstraIters int `json:"dijkstra_iters"`
	// Relabels and Pushes count push-relabel work (cost scaling).
	Relabels int `json:"relabels"`
	Pushes   int `json:"pushes"`
	// WarmStart reports that the solve reused a previously prepared residual
	// topology (same network, same scratch). Incremental reports the
	// strongest reuse: the previous optimal flow stayed in the residual and
	// only the value delta was augmented, from the potentials the held flow
	// left.
	WarmStart   bool `json:"warm_start"`
	Incremental bool `json:"incremental"`
	// Duration is the wall time of the solve, residual construction included.
	Duration time.Duration `json:"duration_ns"`
}

// String renders the populated counters compactly.
func (st SolveStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s phases=%d", st.Engine, st.Phases)
	if st.Augmentations > 0 {
		fmt.Fprintf(&b, " augmentations=%d", st.Augmentations)
	}
	if st.DijkstraIters > 0 {
		fmt.Fprintf(&b, " dijkstra-iters=%d", st.DijkstraIters)
	}
	if st.Relabels > 0 || st.Pushes > 0 {
		fmt.Fprintf(&b, " pushes=%d relabels=%d", st.Pushes, st.Relabels)
	}
	if st.WarmStart {
		b.WriteString(" warm=true")
	}
	if st.Incremental {
		b.WriteString(" incremental=true")
	}
	fmt.Fprintf(&b, " time=%s", st.Duration)
	return b.String()
}

// Scratch holds the working storage of a solve — the residual graph, node
// potentials, Dijkstra distance/parent arrays and the heap — so repeated
// solves on same-shaped networks stop allocating. A Scratch may be reused
// across any sequence of solves (shapes may differ; buffers only grow) but
// is not safe for concurrent use. The zero value is ready; NewScratch is
// provided for symmetry.
type Scratch struct {
	r       residual
	b       []int64 // node imbalances after lower-bound reduction
	pi      []int64 // potentials
	dist    []int64
	prevArc []int32 // also dinic's BFS levels
	heap    payHeap // also dagRelax's and dinic's node buffers
	// prep is the prepared residual topology of the last network solved.
	prep prepared
	// valueStage is set while an engine runs stage 2: ssp then keeps the
	// potentials it finds and ships one unit per round.
	valueStage bool
	// Incremental re-solve state: solved marks that the residual and pi hold
	// the SSP flow of value held under the lastCosts vector and its
	// potentials, the starting point for augmenting only a value delta.
	solved    bool
	held      int64
	lastCosts []int64
}

// prepared snapshots the residual topology built for one network's supply
// configuration and value endpoints, so later solves of that network can
// swap costs and values without rebuilding. Replaced when the scratch
// prepares another network.
type prepared struct {
	valid          bool
	net            *Network // identity of the prepared network
	n, m           int      // node/arc counts at prepare time (guards mutation)
	s, t           int      // the value's endpoints
	superS, superT int      // super source and sink
	lo             int64    // smallest feasible value; -1 when none is
	required       int64    // stage 1's units: the imbalance plus lo
	initCap        []int64  // zero-flow residual capacities, value super arcs at lo
	supply         []int64  // supply snapshot at prepare time
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// NewScratchSized returns a scratch pre-sized for networks of up to nodes
// nodes and arcs arcs (plus the solver's super source/sink, per-node super
// arcs and the value's three arcs). All node- and arc-indexed buffers are
// carved out of two contiguous arenas up front, so the first solve — not
// just re-solves — runs without growing any buffer, and the hot arrays sit
// adjacent in memory.
func NewScratchSized(nodes, arcs int) *Scratch {
	if nodes < 0 || arcs < 0 {
		panic("flow: negative scratch size")
	}
	n := nodes + 2              // super source/sink
	m := 2 * (arcs + nodes + 3) // paired residual arcs incl. super and value arcs
	a64 := make([]int64, 0, 3*n+3*m)
	a32 := make([]int32, 0, 5*n+1+6*m)
	carve64 := func(ln int) []int64 {
		s := a64[len(a64) : len(a64)+ln : len(a64)+ln]
		a64 = a64[:len(a64)+ln]
		return s[:0]
	}
	carve32 := func(ln int) []int32 {
		s := a32[len(a32) : len(a32)+ln : len(a32)+ln]
		a32 = a32[:len(a32)+ln]
		return s[:0]
	}
	sc := &Scratch{}
	sc.r = residual{
		tail:   carve32(m),
		to:     carve32(m),
		capR:   carve64(m),
		cost:   carve64(m),
		rev:    carve32(m),
		pos:    carve32(m),
		perm:   carve32(m),
		tmp32:  carve32(m),
		tmp64:  carve64(m),
		start:  carve32(n + 1),
		cursor: carve32(n),
		dirty:  true,
	}
	sc.b = carve64(n)
	sc.pi = carve64(n)
	sc.dist = carve64(n)
	sc.prevArc = carve32(n)
	sc.heap.nodeSeq = carve32(n)
	sc.heap.stack = carve32(n)
	return sc
}

// resetResidual prepares the scratch's residual for a network of n nodes and
// about arcHint forward arcs, reusing previous capacity. Any prepared
// warm-start topology is invalidated: the residual storage is about to be
// overwritten.
func (sc *Scratch) resetResidual(n, arcHint int) *residual {
	sc.prep.valid = false
	sc.solved = false
	r := &sc.r
	r.n = n
	r.dirty = true
	want := 2 * arcHint
	if cap(r.to) < want {
		r.tail = make([]int32, 0, want)
		r.to = make([]int32, 0, want)
		r.capR = make([]int64, 0, want)
		r.cost = make([]int64, 0, want)
		r.pos = make([]int32, 0, want)
		r.rev = make([]int32, 0, want)
	} else {
		r.tail = r.tail[:0]
		r.to = r.to[:0]
		r.capR = r.capR[:0]
		r.cost = r.cost[:0]
		r.pos = r.pos[:0]
		r.rev = r.rev[:0]
	}
	return r
}

// grow64 returns buf resized to n, reusing capacity. Contents are undefined.
func grow64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// grow32 returns buf resized to n, reusing capacity. Contents are undefined.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

type sspSolver struct{}

// Name identifies the engine in SolveStats.
func (sspSolver) Name() string { return "ssp" }
func (sspSolver) run(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	return ssp(sc, s, t, required, st)
}

type cycleCancelSolver struct{}

// Name identifies the engine in SolveStats.
func (cycleCancelSolver) Name() string { return "cyclecancel" }
func (cycleCancelSolver) run(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	return cycleCancel(sc, s, t, required, st)
}

type costScaleSolver struct{}

// Name identifies the engine in SolveStats.
func (costScaleSolver) Name() string { return "costscale" }
func (costScaleSolver) run(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	return costScale(sc, s, t, required, st)
}
