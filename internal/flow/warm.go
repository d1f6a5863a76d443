package flow

import (
	"fmt"
	"time"
)

// MinCostFlowValue computes a minimum-cost flow of exactly value units from
// s to t on top of any supplies and lower bounds already present — value 0
// solves the plain b-flow of the supplies — with the SSP engine, the
// network's own arc costs and fresh solver storage. It is the allocating
// form of MinCostFlowValueWithCostsInto.
func (nw *Network) MinCostFlowValue(s, t int, value int64) (*Solution, error) {
	sol := &Solution{}
	if err := nw.MinCostFlowValueWithCostsInto(nil, nil, nil, s, t, value, sol, &SolveStats{}); err != nil {
		return nil, err
	}
	return sol, nil
}

// MinCostFlowValueWithCostsInto is the package's one solve path. It computes
// a minimum-cost feasible flow of exactly value units from s to t on top of
// any supplies and lower bounds already present (value 0: the plain b-flow
// of the supplies; s == t: the value ships nothing) and writes the flows
// and the solve's work statistics into caller-owned sol and st. On error st
// still describes the attempted solve.
//
// A nil engine selects SSP. A nil cost vector solves under the costs
// recorded at AddArc time; otherwise costs holds one entry per arc, in ArcID
// order. A nil scratch allocates fresh storage: a cold solve.
//
// The value stays apart from the supplies. Preparing a network on a scratch
// builds its residual topology once (lower-bound reduction, super
// source/sink, CSR index) together with lo, the smallest feasible value. A
// solve then runs in two stages: stage 1 ships the lower-bound and supply
// units plus lo value units from the super source to the super sink, and
// stage 2 ships the remaining value − lo units from s to t, one unit per
// SSP round. A value below lo is ErrInfeasible before any round.
//
// A retained scratch makes re-solves of the same network and endpoints
// warm: they reuse the prepared topology, only swapping the cost vector
// and resetting capacities (SolveStats.WarmStart). An SSP re-solve under
// unchanged costs that keeps or grows the value runs only the extra stage-2
// rounds on the held flow and potentials (SolveStats.Incremental): the
// state cold reaches after the held value's rounds, so the answer is the
// cold one by construction. Every other re-solve starts from the zero flow
// and fresh potentials, as a cold solve does, and returns the cold solve's
// flow arc for arc; a changed supply re-prepares. sol's flow slice is
// reused, grown only when too small, so a warm re-solve performs zero heap
// allocations.
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
	} else if err := sc.prepare(nw, s, t); err != nil {
		return err
	}
	p := &sc.prep
	if p.lo < 0 || value < p.lo {
		return ErrInfeasible // no round ran: a held flow stays held
	}
	// The held flow is cold's state after its value's stage-2 rounds under
	// these costs, so more rounds on it reach cold's state for any larger
	// value, and zero rounds keep it: the hot case of a serving workload
	// repeating identical requests.
	incremental := sc.solved && e == SSP && value >= sc.held && costsEqual(sc.lastCosts, costs)
	sc.solved = false
	r := &sc.r
	base := sc.held
	if incremental {
		st.Incremental = true
	} else {
		// A full re-solve, warm or cold, resets the zero-flow capacities and
		// their live-arc set from prepare's storage-ordered snapshots and
		// runs stage 1 from fresh potentials, exactly the cold solve's
		// rounds. No engine adds or removes arcs, so prepare's CSR index
		// still holds.
		copy(r.capR, p.initCap)
		copy(r.live, p.initLive)
		sc.installCosts(costs)
		pushed, err := e.run(sc, p.superS, p.superT, p.required, st)
		if err != nil {
			return err
		}
		if pushed < p.required {
			return ErrInfeasible
		}
		base = p.lo
	}
	if value > base {
		sc.valueStage = true
		pushed, err := e.run(sc, s, t, value-base, st)
		sc.valueStage = false
		if err != nil {
			return err
		}
		if base+pushed < value {
			return ErrInfeasible
		}
	}
	// Only SSP keeps the potentials the next incremental solve starts from.
	if e == SSP {
		sc.solved = true
		sc.held = value
		sc.lastCosts = append(sc.lastCosts[:0], costs...)
	}

	sol.FlowByArc = grow64(sol.FlowByArc, len(nw.from)) //lea:allocs solution slice growth on first solve of a larger network
	nw.readFlow(r, costs, sol)
	return nil
}

// readFlow decodes the residual's flow into sol, whose FlowByArc the caller
// has sized to the arc count: each arc's lower bound plus the flow its
// forward residual copy carries, priced under costs.
//
//lea:noalloc
func (nw *Network) readFlow(r *residual, costs []int64, sol *Solution) {
	sol.Cost = 0
	for i := range nw.from {
		f := nw.lower[i] + r.flowOn(2*i)
		sol.FlowByArc[i] = f
		sol.Cost += f * costs[i]
	}
}

// installCosts writes the per-arc cost vector onto the forward/reverse
// residual pairs through the raw-to-storage position map; the extra super
// source/sink arcs keep their constant zero cost.
//
//lea:noalloc
func (sc *Scratch) installCosts(costs []int64) {
	r := &sc.r
	for i, c := range costs {
		r.cost[r.pos[2*i]] = c
		r.cost[r.pos[2*i+1]] = -c
	}
}

// preparedFor reports whether the scratch holds a prepared residual topology
// matching the network's current shape and supplies and the value's
// endpoints.
//
//lea:noalloc
func (sc *Scratch) preparedFor(nw *Network, s, t int) bool {
	p := &sc.prep
	if !p.valid || p.net != nw || p.n != nw.n || p.m != len(nw.from) || p.s != s || p.t != t {
		return false
	}
	for v, b := range nw.supply {
		if p.supply[v] != b {
			return false
		}
	}
	return true
}

// prepare builds the residual topology for the network's current supplies
// and the value's endpoints s and t (costs zeroed; each solve installs its
// own) and snapshots the zero-flow capacities and their live-arc set so
// re-solves can reset each in one copy. The live set is built from that
// snapshot, not from the residual, which holds lowestValue's flow. It is
// the package's one lower-bound reduction: arc lower bounds shift into
// node imbalances, which super source/sink arcs then absorb. The lower
// bounds' constant cost needs no accumulator, because readFlow prices each
// arc's full flow. The value gets super arcs of its own, into s and out of
// t, which stage 1 holds at lo, and a t→s arc that only lowestValue opens.
// When lo exists, prepare leaves a feasible flow of value lo in the
// residual. The value's arcs come first among the super arcs, so stage 1's
// distance-0 stack pops s, the widest fan-out, after the imbalance nodes:
// on the radar kernel at memory divisors 2 and 4 that saves up to a quarter
// of a full solve's Dijkstra pops.
func (sc *Scratch) prepare(nw *Network, s, t int) error {
	var total int64
	for _, b := range nw.supply {
		total += b
	}
	if total != 0 {
		return fmt.Errorf("flow: supplies sum to %d, want 0", total)
	}
	sc.b = grow64(sc.b, nw.n)
	b := sc.b
	copy(b, nw.supply)
	r := sc.resetResidual(nw.n, len(nw.from)+nw.n+3)
	for i := range nw.from {
		if nw.lower[i] > 0 {
			b[nw.from[i]] -= nw.lower[i]
			b[nw.to[i]] += nw.lower[i]
		}
		r.addPair(int(nw.from[i]), int(nw.to[i]), nw.capU[i]-nw.lower[i], 0)
	}
	superS := r.addNode()
	superT := r.addNode()
	valueIn := r.addPair(superS, s, 0, 0)
	valueOut := r.addPair(t, superT, 0, 0)
	closing := r.addPair(t, s, 0, 0)
	var required int64
	for v := 0; v < nw.n; v++ {
		switch {
		case b[v] > 0:
			r.addPair(superS, v, b[v], 0)
			required += b[v]
		case b[v] < 0:
			r.addPair(v, superT, -b[v], 0)
		}
	}
	r.ensureCSR()
	p := &sc.prep
	p.net = nw
	p.n = nw.n
	p.m = len(nw.from)
	p.s, p.t = s, t
	p.superS, p.superT = superS, superT
	p.initCap = append(p.initCap[:0], r.capR...)
	p.supply = append(p.supply[:0], nw.supply...)
	// Without imbalances the zero flow is feasible at value 0.
	p.lo = 0
	if required > 0 {
		p.lo = sc.lowestValue(required, r.pos[closing], r.pos[closing^1])
	}
	if p.lo > 0 {
		p.initCap[r.pos[valueIn]] = p.lo
		p.initCap[r.pos[valueOut]] = p.lo
		required += p.lo
	}
	p.required = required
	// The live-arc sets take their exact sizes here, once.
	words := (len(r.capR) + 63) / 64
	r.live = growU64(r.live, words)
	p.initLive = growU64(p.initLive, words)
	fillLive(p.initLive, p.initCap)
	p.valid = true // after resetResidual, which clears it
	return nil
}

// lowestValue returns the smallest value the prepared network can ship from
// s to t, or -1 when none is feasible, by one min-flow computation on the
// zero-flow residual. With the t→s arc at positions fwd and bwd opened
// wide, Dinic ships the required imbalance units from the super source to
// the super sink: a feasible flow whose value, the t→s arc's flow, is left
// free. With that arc closed again, Dinic from t to s hands back every unit
// of value some t→s path can carry. That pass cannot cross a super arc: the
// first saturated every imbalance arc, and the value's own are still
// closed.
func (sc *Scratch) lowestValue(required int64, fwd, bwd int32) int64 {
	r, p := &sc.r, &sc.prep
	r.capR[fwd] = Unbounded
	if dinic(sc, p.superS, p.superT, required) < required {
		return -1
	}
	f := r.capR[bwd]
	r.capR[fwd], r.capR[bwd] = 0, 0
	if f > 0 {
		f -= dinic(sc, p.t, p.s, f)
	}
	return f
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
