package flow

import (
	"fmt"
	"strings"
	"time"
)

// Engine is a min-cost-flow solution engine. Three implementations exist —
// successive shortest paths (the production default), cycle cancelling and
// cost-scaling push-relabel — all certified to return identical objectives.
// The interface is exported for selection (EngineByName, SolveWith); the
// solve method works on the package-private residual representation, so
// external packages choose engines but cannot implement new ones.
type Engine interface {
	// Name is the engine's canonical selection name.
	Name() string
	// run ships up to required units from s to t on the scratch's residual,
	// recording work counters into st. It returns the amount shipped.
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
	// CostScaling is Goldberg–Tarjan cost-scaling push-relabel, the
	// "very efficient algorithms" class of the paper's ref. [17].
	CostScaling Engine = costScaleSolver{}
)

// engineNames are the canonical names, in preference order; enginesByName
// additionally admits common spelling variants.
var engineNames = []string{"ssp", "cyclecancel", "costscale"}

var enginesByName = map[string]Engine{
	"ssp":              SSP,
	"cyclecancel":      CycleCancelling,
	"cycle-cancel":     CycleCancelling,
	"cyclecancelling":  CycleCancelling,
	"cycle-cancelling": CycleCancelling,
	"costscale":        CostScaling,
	"cost-scale":       CostScaling,
	"costscaling":      CostScaling,
	"cost-scaling":     CostScaling,
}

// EngineNames lists the canonical engine names accepted by EngineByName.
func EngineNames() []string {
	return append([]string(nil), engineNames...)
}

// EngineByName resolves an engine by name. The empty string selects the
// default (SSP).
func EngineByName(name string) (Engine, error) {
	if name == "" {
		return SSP, nil
	}
	if e, ok := enginesByName[strings.ToLower(name)]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("flow: unknown engine %q (have: %s)", name, strings.Join(engineNames, ", "))
}

// SolveStats summarises the work one solve performed; which counters are
// populated depends on the engine. The JSON tags are the one canonical
// machine-readable schema, shared by leaflow -json, leabench -json, leaload
// -json and the leaserved /statsz endpoint; durations serialise as
// nanoseconds.
type SolveStats struct {
	// Engine is the name of the engine that ran.
	Engine string `json:"engine"`
	// Augmentations counts shortest-path augmentations (SSP) or cancelled
	// cycles (cycle cancelling).
	Augmentations int `json:"augmentations"`
	// Phases counts Dijkstra rounds (SSP), Bellman–Ford cycle searches
	// (cycle cancelling) or ε-scaling phases (cost scaling).
	Phases int `json:"phases"`
	// DijkstraIters counts queue pops across all Dijkstra rounds (SSP).
	DijkstraIters int `json:"dijkstra_iters"`
	// Relabels and Pushes count push-relabel work (cost scaling).
	Relabels int `json:"relabels"`
	Pushes   int `json:"pushes"`
	// WarmStart reports that the solve reused a previously prepared residual
	// topology (SolveWithCosts hit); PotentialsReused additionally reports
	// that the carried-over node potentials passed the reduced-cost validity
	// check, skipping potential initialisation entirely. Incremental reports
	// the strongest reuse: the previous optimal flow stayed in the residual
	// and only the value delta was augmented.
	WarmStart        bool `json:"warm_start"`
	PotentialsReused bool `json:"potentials_reused"`
	Incremental      bool `json:"incremental"`
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
		fmt.Fprintf(&b, " warm=true potentials-reused=%t", st.PotentialsReused)
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
	prevArc []int32
	heap    payHeap
	// Topological-order potential initialisation buffers (dagRelax).
	indeg []int32
	order []int32
	// Warm-start state: a prepared residual topology (SolveWithCosts) and
	// the flag telling ssp the current potentials were validated for reuse.
	prep   prepared
	warmPi bool
	// Incremental re-solve state: solved marks the residual as holding an
	// optimal SSP flow of shipped units under the lastCosts vector, the
	// starting point for augmenting only a value delta.
	solved    bool
	shipped   int64
	lastCosts []int64
}

// prepared snapshots the residual topology built for one network's supply
// configuration, so SolveWithCosts can re-solve with new costs without
// rebuilding. Invalidated by any cold solve on the same scratch.
type prepared struct {
	valid    bool
	net      *Network // identity of the prepared network
	n, m     int      // node/arc counts at prepare time (guards mutation)
	arcs     int      // residual arc count (len r.to)
	s, t     int
	required int64
	initCap  []int64 // zero-flow residual capacities
	supply   []int64 // supply snapshot at prepare time
	excess   []int64 // per-node imbalance after the lower-bound reduction
	superArc []int32 // forward super arc per node (-1 when excess was zero)
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// NewScratchSized returns a scratch pre-sized for networks of up to nodes
// nodes and arcs arcs (plus the solver's super source/sink and per-node super
// arcs). All node- and arc-indexed buffers are carved out of two contiguous
// arenas up front, so the first solve — not just re-solves — runs without
// growing any buffer, and the hot arrays sit adjacent in memory.
func NewScratchSized(nodes, arcs int) *Scratch {
	if nodes < 0 || arcs < 0 {
		panic("flow: negative scratch size")
	}
	n := nodes + 2          // super source/sink
	m := 2 * (arcs + nodes) // paired residual arcs incl. super arcs
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
	sc.indeg = carve32(n)
	sc.order = carve32(n)
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
	r.permuted = false
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

// SolveWith computes the minimum-cost feasible b-flow like Solve, with an
// explicit engine and optional reusable scratch space (nil allocates fresh
// storage). It additionally returns the solve's work statistics; on error
// the stats still describe the attempted solve.
func (nw *Network) SolveWith(e Engine, sc *Scratch) (*Solution, *SolveStats, error) {
	if e == nil {
		e = SSP
	}
	if sc == nil {
		sc = NewScratch()
	}
	st := &SolveStats{Engine: e.Name()}
	start := time.Now()
	sol, err := nw.solveWith(e, sc, st)
	st.Duration = time.Since(start)
	return sol, st, err
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
