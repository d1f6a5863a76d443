package flow

import (
	"fmt"
	"time"
)

// MinCostFlowValue computes a minimum-cost flow of exactly value units from
// s to t on top of any supplies and lower bounds already present — value 0
// solves the plain b-flow of the supplies — with the SSP engine, the
// network's own arc costs and fresh solver storage. The network's supplies
// are restored before returning. It is the allocating form of
// MinCostFlowValueWithCostsInto.
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
// of the supplies) and writes the flows and the solve's work statistics into
// caller-owned sol and st. The network's supplies are restored before
// returning; on error st still describes the attempted solve.
//
// A nil engine selects SSP. A nil cost vector solves under the costs
// recorded at AddArc time; otherwise costs holds one entry per arc, in ArcID
// order. A nil scratch allocates fresh storage: a cold solve.
//
// A retained scratch makes re-solves warm. The first solve of a network on
// a scratch prepares its residual topology (lower-bound reduction, super
// source/sink, CSR index); later solves of the same network reuse it, only
// swapping the cost vector and resetting capacities — O(V+E) instead of a
// rebuild (SolveStats.WarmStart). A changed value patches the two super-arc
// capacities in the snapshot and stays warm; only a sign flip in a node's
// imbalance, or a solve of another network on the scratch, forces a
// re-prepare. An SSP re-solve under unchanged costs that keeps or grows the
// value augments only the delta on the retained optimal flow, starting from
// the previous solve's potentials repaired around the widened super arcs
// (SolveStats.Incremental and PotentialsReused); when the widening breaks
// that flow's optimality it falls back to a full re-solve. Every full
// re-solve initialises its potentials afresh, as a cold solve does, so it
// returns the cold solve's flow arc for arc. sol's flow slice is reused,
// grown only when too small, so a warm re-solve performs zero heap
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
	nw.supply[s] += value
	nw.supply[t] -= value
	defer func() {
		nw.supply[s] -= value
		nw.supply[t] += value
	}()
	start := time.Now()
	err := nw.solveWithCosts(e, costs, sc, sol, st)
	st.Duration = time.Since(start)
	return err
}

//lea:noalloc
func (nw *Network) solveWithCosts(e Engine, costs []int64, sc *Scratch, sol *Solution, st *SolveStats) error {
	if len(costs) != len(nw.from) {
		return fmt.Errorf("flow: cost vector has %d entries for %d arcs", len(costs), len(nw.from)) //lea:allocs error path: size-mismatch formatting only
	}
	incremental := false
	if sc.preparedFor(nw) {
		st.WarmStart = true
		// Unchanged supplies re-solved under unchanged costs keep the
		// retained optimal flow outright — the delta-zero case of the
		// incremental sensitivity argument below, and the hot case of a
		// serving workload repeating identical requests. The engine then
		// ships nothing and the solution is re-extracted from the residual.
		incremental = sc.solved && e == SSP && costsEqual(sc.lastCosts, costs)
	} else if ok, grew := sc.patchSupplies(nw); ok {
		st.WarmStart = true
		// An optimal flow for a smaller value plus shortest-path
		// augmentations of the delta is optimal for the larger value — the
		// SSP sensitivity argument. It applies only when the previous flow
		// is still present and optimal under the SAME costs and every
		// supply change widened a super arc (shrinking would require
		// removing flow). repairPotentials below re-certifies optimality.
		incremental = grew && sc.solved && e == SSP && costsEqual(sc.lastCosts, costs)
	} else if err := sc.prepare(nw); err != nil {
		return err
	}
	sc.solved = false

	r := &sc.r
	var base int64 // units already shipped by the flow kept in the residual
	if incremental {
		// Keep the residual's flow; the widened super arcs may have exposed
		// negative reduced costs, so repair the potentials in place. A
		// repair failure means the widening exposed a negative cycle — fall
		// back to a plain warm re-solve.
		if len(sc.pi) >= r.n && repairPotentials(sc, sc.prep.s, sc.prep.t) {
			base = sc.shipped
			sc.warmPi = true
			st.Incremental = true
		} else {
			incremental = false
		}
	}
	if !incremental {
		// A full re-solve, warm or cold, resets the zero-flow capacities from
		// prepare's storage-ordered snapshot and starts from initPotentials,
		// so it runs exactly the cold solve's rounds and returns its flow. No
		// engine adds or removes arcs, so prepare's CSR index still holds.
		copy(r.capR, sc.prep.initCap)
		sc.installCosts(costs)
	}
	pushed, err := e.run(sc, sc.prep.s, sc.prep.t, sc.prep.required-base, st)
	sc.warmPi = false
	if err != nil {
		return err
	}
	if base+pushed < sc.prep.required {
		return ErrInfeasible
	}
	// The residual now holds an optimal flow for these costs and supplies:
	// the starting point for a future incremental re-solve. Engines other
	// than SSP don't maintain the potential invariant the incremental path
	// needs, so only SSP records it.
	if e == SSP {
		sc.solved = true
		sc.shipped = sc.prep.required
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
// matching the network's current shape and supplies.
//
//lea:noalloc
func (sc *Scratch) preparedFor(nw *Network) bool {
	p := &sc.prep
	if !p.valid || p.net != nw || p.n != nw.n || p.m != len(nw.from) {
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
// (costs zeroed; each solve installs its own) and snapshots the zero-flow
// capacities so re-solves can reset in one copy. It is the package's one
// lower-bound reduction: arc lower bounds shift into node imbalances, which
// super source/sink arcs then absorb. The lower bounds' constant cost needs
// no accumulator, because readFlow prices each arc's full flow.
func (sc *Scratch) prepare(nw *Network) error {
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
	r := sc.resetResidual(nw.n, len(nw.from)+nw.n)
	for i := range nw.from {
		if nw.lower[i] > 0 {
			b[nw.from[i]] -= nw.lower[i]
			b[nw.to[i]] += nw.lower[i]
		}
		r.addPair(int(nw.from[i]), int(nw.to[i]), nw.capU[i]-nw.lower[i], 0)
	}
	s := r.addNode()
	t := r.addNode()
	p := &sc.prep
	p.superArc = grow32(p.superArc, nw.n)
	var required int64
	for v := 0; v < nw.n; v++ {
		switch {
		case b[v] > 0:
			p.superArc[v] = int32(r.addPair(s, v, b[v], 0))
			required += b[v]
		case b[v] < 0:
			p.superArc[v] = int32(r.addPair(v, t, -b[v], 0))
		default:
			p.superArc[v] = -1
		}
	}
	r.ensureCSR()
	p.net = nw
	p.n = nw.n
	p.m = len(nw.from)
	p.s, p.t, p.required = s, t, required
	p.initCap = append(p.initCap[:0], r.capR...)
	p.supply = append(p.supply[:0], nw.supply...)
	p.excess = append(p.excess[:0], b[:nw.n]...)
	p.valid = true // after resetResidual, which clears it
	return nil
}

// patchSupplies updates the prepared snapshot in place when the network
// differs from it only in supplies, and each changed node keeps the sign of
// its imbalance — then the topology is unchanged and only the capacity of
// that node's super arc (and the required flow) moves. Register-count
// re-solves hit exactly this case: the value shipped s→t changes, the
// network doesn't. Returns ok=false (snapshot untouched) when a node's
// imbalance appears, disappears into a new arc, or flips sign, falling back
// to a full prepare; grew additionally reports that every change widened
// its super arc (|imbalance| non-decreasing everywhere), the precondition
// for the incremental re-solve. Live residual capacities are bumped
// alongside the snapshot so the incremental path can keep its flow; the
// non-incremental path overwrites them from the snapshot anyway.
//
//lea:noalloc
func (sc *Scratch) patchSupplies(nw *Network) (ok, grew bool) {
	p := &sc.prep
	if !p.valid || p.net != nw || p.n != nw.n || p.m != len(nw.from) {
		return false, false
	}
	// Verify first: a failed patch must leave the snapshot consistent.
	var deltaSum int64
	for v, bNew := range nw.supply {
		d := bNew - p.supply[v]
		if d == 0 {
			continue
		}
		deltaSum += d
		old := p.excess[v]
		next := old + d
		if old == 0 || (old > 0 && next < 0) || (old < 0 && next > 0) {
			return false, false
		}
	}
	if deltaSum != 0 {
		return false, false // supplies no longer balance; let prepare report it
	}
	grew = true
	r := &sc.r
	for v, bNew := range nw.supply {
		d := bNew - p.supply[v]
		if d == 0 {
			continue
		}
		old := p.excess[v]
		next := old + d
		a := int(p.superArc[v])
		var oldCap, newCap int64
		if old > 0 {
			oldCap, newCap = old, next
			p.required += next - old
		} else {
			oldCap, newCap = -old, -next
		}
		if newCap < oldCap {
			grew = false
		}
		// initCap is a storage-ordered snapshot (taken after prepare's
		// ensureCSR), so the raw super-arc index maps through pos.
		fwd, bwd := r.pos[a], r.pos[a^1]
		p.initCap[fwd] = newCap
		p.initCap[bwd] = 0
		r.capR[fwd] += newCap - oldCap
		p.supply[v] = bNew
		p.excess[v] = next
	}
	return true, grew
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
