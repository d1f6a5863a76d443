package flow

import (
	"fmt"
	"time"
)

// MinCostFlowValue computes a minimum-cost flow of exactly value units from
// s to t with the SSP engine, the network's own arc costs and fresh solver
// storage. It is the allocating form of MinCostFlowValueWithCostsInto.
func (nw *Network) MinCostFlowValue(s, t int, value int64) (*Solution, error) {
	sol := &Solution{}
	if err := nw.MinCostFlowValueWithCostsInto(nil, nil, nil, s, t, value, sol, &SolveStats{}); err != nil {
		return nil, err
	}
	return sol, nil
}

// MinCostFlowValueWithCostsInto is the package's one solve path. It computes
// a minimum-cost flow of exactly value units from s to t that meets every
// lower bound (s == t: the value ships nothing) and writes the flows and the
// solve's work statistics into caller-owned sol and st. On error st still
// describes the attempted solve.
//
// A nil engine selects SSP. A nil cost vector solves under the costs
// recorded at AddArc time; otherwise costs holds one entry per arc, in ArcID
// order. A nil scratch allocates fresh storage: a cold solve.
//
// Preparing a network on a scratch builds its residual topology once
// (penalty copies, CSR index). A solve then ships the value from s to t,
// one unit per SSP round. Each lower-bounded arc has a penalty copy whose
// cost is the arc's less more than any simple path costs, so the optimum
// saturates every copy whenever some flow of the value meets the bounds,
// and a copy left with capacity after the rounds is ErrInfeasible. The
// penalty needs an acyclic network: a lower-bounded arc on a cycle of arcs
// with capacity makes that cycle negative, and the solve reports
// ErrNegativeCycle. A cost vector too wide for the penalty to stay clear of
// overflow is rejected with an error that names the limit.
//
// A retained scratch makes re-solves of the same network and endpoints
// warm: they reuse the prepared topology, only swapping the cost vector
// and resetting capacities (SolveStats.WarmStart). An SSP re-solve under
// unchanged costs that keeps or grows the value runs only the extra rounds
// on the held flow and potentials (SolveStats.Incremental): the state cold
// reaches after the held value's rounds, so the answer is the cold one by
// construction. That holds after a late ErrInfeasible too, whose flow the
// scratch keeps, so a larger value continues it. Every other re-solve
// starts from the zero flow and fresh potentials, as a cold solve does, and
// returns the cold solve's flow arc for arc; changed endpoints re-prepare.
// sol's flow slice is reused, grown only when too small, so a warm re-solve
// performs zero heap allocations.
//
//lea:noalloc
func (nw *Network) MinCostFlowValueWithCostsInto(e Engine, costs []int64, sc *Scratch, s, t int, value int64, sol *Solution, st *SolveStats) error {
	if e == nil {
		e = SSP
	}
	*st = SolveStats{Engine: e.Name()}
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		return fmt.Errorf("flow: endpoint out of range")
	}
	if value < 0 {
		return fmt.Errorf("flow: negative flow value %d", value) //lea:allocs error path: negative-value formatting only
	}
	if costs == nil {
		costs = nw.cost
	}
	if sc == nil {
		sc = NewScratch() //lea:allocs nil-scratch fallback; warm callers pass a reused Scratch
	}
	start := time.Now()
	err := nw.solveWithCosts(e, costs, sc, s, t, value, sol, st)
	st.Duration = time.Since(start)
	return err
}

//lea:noalloc
func (nw *Network) solveWithCosts(e Engine, costs []int64, sc *Scratch, s, t int, value int64, sol *Solution, st *SolveStats) error {
	if len(costs) != len(nw.from) {
		return fmt.Errorf("flow: cost vector has %d entries for %d arcs", len(costs), len(nw.from)) //lea:allocs error path: size-mismatch formatting only
	}
	if sc.preparedFor(nw, s, t) {
		st.WarmStart = true
	} else {
		sc.prepare(nw, s, t)
	}
	p := &sc.prep
	// The held flow is cold's state after its value's rounds under these
	// costs, so more rounds on it reach cold's state for any larger value,
	// and zero rounds keep it: the hot case of a serving workload repeating
	// identical requests.
	incremental := sc.solved && e == SSP && value >= sc.held && costsEqual(sc.lastCosts, costs)
	sc.solved = false
	r := &sc.r
	var base int64
	if incremental {
		st.Incremental = true
		base = sc.held
	} else {
		// A full re-solve, warm or cold, resets the zero-flow capacities and
		// their live-arc set from prepare's storage-ordered snapshots and,
		// for SSP, starts from fresh potentials: exactly the cold solve's
		// rounds. No engine adds or removes arcs, so prepare's CSR index
		// still holds.
		copy(r.capR, p.initCap)
		copy(r.live, p.initLive)
		if err := sc.installCosts(costs); err != nil {
			return err
		}
		if e == SSP {
			if err := initPotentials(r, sc, s); err != nil {
				return err
			}
		}
	}
	pushed, err := e.run(sc, s, t, value-base, st)
	if err != nil {
		return err
	}
	if base+pushed < value {
		return ErrInfeasible
	}
	// Only SSP keeps the potentials the next incremental solve starts from.
	if e == SSP {
		sc.solved = true
		sc.held = value
		sc.lastCosts = append(sc.lastCosts[:0], costs...)
	}
	// A penalty copy left with capacity: no flow of this value meets the
	// lower bounds. The held flow stays what cold reaches after these
	// rounds, so a larger value may continue it.
	for j := range p.lowered {
		if r.capR[r.pos[p.copies+2*j]] > 0 {
			return ErrInfeasible
		}
	}

	sol.FlowByArc = grow64(sol.FlowByArc, len(nw.from)) //lea:allocs solution slice growth on first solve of a larger network
	nw.readFlow(sc, costs, sol)
	return nil
}

// readFlow decodes the residual's flow into sol, whose FlowByArc the caller
// has sized to the arc count: the flow each arc's forward residual copy
// carries plus its penalty copy's, priced under costs.
//
//lea:noalloc
func (nw *Network) readFlow(sc *Scratch, costs []int64, sol *Solution) {
	r, p := &sc.r, &sc.prep
	sol.Cost = 0
	for i := range nw.from {
		f := r.flowOn(2 * i)
		sol.FlowByArc[i] = f
		sol.Cost += f * costs[i]
	}
	for j, i := range p.lowered {
		f := r.flowOn(p.copies + 2*j)
		sol.FlowByArc[i] += f
		sol.Cost += f * costs[i]
	}
}

// installCosts writes the per-arc cost vector onto the forward/reverse
// residual pairs through the raw-to-storage position map. Each penalty copy
// costs its arc's cost less the penalty n·Cmax + 1, for n residual nodes
// and Cmax the largest |cost| in the vector. A simple residual cycle has at
// most n arcs, so apart from penalties it costs at most n·Cmax, and one
// that fills more copy units than it empties is negative: an optimum
// saturates every copy whenever some flow of its value can. With the penalty, no path costs
// more than n·(n·Cmax + 1 + Cmax) in absolute value; a vector that would
// take that past infCost/4, where Dijkstra's distances could reach
// infCost, is rejected before any round.
//
//lea:noalloc
func (sc *Scratch) installCosts(costs []int64) error {
	r, p := &sc.r, &sc.prep
	for i, c := range costs {
		r.cost[r.pos[2*i]] = c
		r.cost[r.pos[2*i+1]] = -c
	}
	if len(p.lowered) == 0 {
		return nil
	}
	n := int64(r.n)
	limit := (infCost/4/n - 1) / (n + 1)
	var cmax int64
	for _, c := range costs {
		if c > limit || c < -limit {
			return fmt.Errorf("flow: arc cost %d outside ±%d, the widest range the lower-bound penalty allows on %d nodes", c, limit, n) //lea:allocs error path: cost-range formatting only
		}
		cmax = max(cmax, c, -c)
	}
	penalty := n*cmax + 1
	for j, i := range p.lowered {
		c := costs[i] - penalty
		q := p.copies + 2*j
		r.cost[r.pos[q]] = c
		r.cost[r.pos[q+1]] = -c
	}
	return nil
}

// preparedFor reports whether the scratch holds a prepared residual topology
// matching the network's current shape and the value's endpoints.
//
//lea:noalloc
func (sc *Scratch) preparedFor(nw *Network, s, t int) bool {
	p := &sc.prep
	return p.valid && p.net == nw && p.n == nw.n && p.m == len(nw.from) && p.s == s && p.t == t
}

// prepare builds the residual topology for the network and the value's
// endpoints s and t (costs zeroed; each solve installs its own) and
// snapshots the zero-flow capacities and their live-arc set so re-solves
// can reset each in one copy. Each arc keeps its capacity less its lower
// bound, and each lower-bounded arc gets a penalty copy, appended after
// the arcs, whose capacity is the bound; installCosts prices it.
func (sc *Scratch) prepare(nw *Network, s, t int) {
	r := sc.resetResidual(nw.n, len(nw.from)+nw.lowerBounded, nw.lowerBounded)
	for i := range nw.from {
		r.addPair(int(nw.from[i]), int(nw.to[i]), nw.capU[i]-nw.lower[i], 0)
	}
	p := &sc.prep
	p.copies = len(r.to)
	if nw.lowerBounded > 0 {
		for i, lower := range nw.lower {
			if lower > 0 {
				p.lowered = append(p.lowered, int32(i))
				r.addPair(int(nw.from[i]), int(nw.to[i]), lower, 0)
			}
		}
	}
	r.ensureCSR()
	p.net = nw
	p.n = nw.n
	p.m = len(nw.from)
	p.s, p.t = s, t
	p.initCap = append(p.initCap[:0], r.capR...)
	// The live-arc sets take their exact sizes here, once.
	words := (len(r.capR) + 63) / 64
	r.live = growU64(r.live, words)
	p.initLive = growU64(p.initLive, words)
	fillLive(p.initLive, p.initCap)
	p.valid = true // after resetResidual, which clears it
}

// costsEqual reports element-wise equality of two cost vectors.
//
//lea:noalloc
func costsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
