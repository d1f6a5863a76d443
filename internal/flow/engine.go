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
	// it once, on the zero flow or, for SSP, on the flow a held solve left.
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
	pi      []int64 // potentials
	dist    []int64
	prevArc []int32 // also dinic's BFS levels
	heap    payHeap // also dagRelax's and dinic's node buffers
	// prep is the prepared residual topology of the last network solved.
	prep prepared
	// Incremental re-solve state: solved marks that the residual and pi hold
	// the SSP flow of value held under the lastCosts vector and its
	// potentials, the starting point for augmenting only a value delta. A
	// flow that leaves a penalty copy with capacity is held too: its solve
	// reported ErrInfeasible, and a larger value may continue it.
	solved    bool
	held      int64
	lastCosts []int64
}

// prepared snapshots the residual topology built for one network and the
// value's endpoints, so later solves of that network can swap costs and
// values without rebuilding. Replaced when the scratch prepares another
// network or the endpoints change.
type prepared struct {
	valid    bool
	net      *Network // identity of the prepared network
	n, m     int      // node/arc counts at prepare time (guards mutation)
	s, t     int      // the value's endpoints
	lowered  []int32  // the arcs with a lower bound, in ArcID order
	copies   int      // raw index of lowered[0]'s penalty copy; lowered[j]'s is copies+2j
	initCap  []int64  // zero-flow residual capacities
	initLive []uint64 // the live-arc set of initCap
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// resetResidual prepares the scratch's residual for a network of n nodes and
// about arcHint forward arcs, lowered of them with a lower bound, reusing
// previous capacity. Any prepared warm-start topology is invalidated: the
// residual storage is about to be overwritten.
func (sc *Scratch) resetResidual(n, arcHint, lowered int) *residual {
	sc.prep.valid = false
	sc.solved = false
	r := &sc.r
	r.n = n
	r.dirty = true
	want := 2 * arcHint
	if cap(r.to) < want || cap(sc.prep.lowered) < lowered {
		// One arena per element width, the list of lower-bounded arcs in
		// the int32 one: a cold prepare makes two allocations here, not
		// seven.
		a32 := make([]int32, 4*want+lowered)
		a64 := make([]int64, 2*want)
		r.tail = a32[:0:want]
		r.to = a32[want : want : 2*want]
		r.pos = a32[2*want : 2*want : 3*want]
		r.rev = a32[3*want : 3*want : 4*want]
		sc.prep.lowered = a32[4*want : 4*want]
		r.capR = a64[:0:want]
		r.cost = a64[want:want]
	} else {
		r.tail = r.tail[:0]
		r.to = r.to[:0]
		r.capR = r.capR[:0]
		r.cost = r.cost[:0]
		r.pos = r.pos[:0]
		r.rev = r.rev[:0]
		sc.prep.lowered = sc.prep.lowered[:0]
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

// growU64 returns buf resized to n, reusing capacity. Contents are undefined.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
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
