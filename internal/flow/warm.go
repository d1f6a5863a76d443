package flow

import (
	"fmt"
	"time"
)

// SolveWithCosts computes the minimum-cost feasible b-flow like SolveWith,
// but with arc costs taken from the costs vector (one entry per arc, in
// ArcID order) instead of the costs recorded at AddArc time. Its purpose is
// incremental re-solving: the first call on a scratch prepares the residual
// topology (lower-bound reduction, super source/sink, CSR index) and every
// subsequent call with the same network, supplies and scratch reuses it,
// only swapping the cost vector and resetting capacities — O(V+E) per
// re-solve instead of a full rebuild. Node potentials from the previous
// solve are carried over whenever they keep all reduced costs non-negative
// under the new costs, letting the SSP engine skip potential initialisation
// entirely (SolveStats.PotentialsReused).
//
// Any cold solve on the same scratch invalidates the prepared topology; the
// next SolveWithCosts transparently re-prepares. A nil engine selects SSP,
// a nil scratch allocates fresh storage (legal but pointless — warm starts
// need a retained scratch). Callers on the hot path should prefer
// SolveWithCostsInto, which reuses caller-owned result storage and performs
// zero allocations on warm re-solves.
func (nw *Network) SolveWithCosts(e Engine, costs []int64, sc *Scratch) (*Solution, *SolveStats, error) {
	sol, st := &Solution{}, &SolveStats{}
	if err := nw.SolveWithCostsInto(e, costs, sc, sol, st); err != nil {
		return nil, st, err
	}
	return sol, st, nil
}

// SolveWithCostsInto is SolveWithCosts writing the solution and stats into
// caller-owned storage instead of allocating them: sol's flow slice is
// reused (grown only when too small) and st is overwritten wholesale. On the
// warm path — prepared topology hit — the entire solve performs zero heap
// allocations.
//
//lea:noalloc
func (nw *Network) SolveWithCostsInto(e Engine, costs []int64, sc *Scratch, sol *Solution, st *SolveStats) error {
	if e == nil {
		e = SSP
	}
	if sc == nil {
		sc = NewScratch() //lea:allocs nil-scratch fallback; warm callers pass a reused Scratch
	}
	resetStats(st, e.Name())
	start := time.Now()
	err := nw.solveWithCosts(e, costs, sc, sol, st)
	st.Duration = time.Since(start)
	return err
}

// resetStats rewinds st to a fresh solve record for the named engine.
func resetStats(st *SolveStats, engine string) {
	*st = SolveStats{Engine: engine}
}

// MinCostFlowValueWithCosts is SolveWithCosts for a flow of exactly value
// units from s to t on top of any supplies and lower bounds already present;
// the network's supplies are restored before returning. Re-solves with the
// same value warm-start outright; a changed value patches the two super-arc
// capacities in the prepared snapshot (patchSupplies) and still counts as a
// warm start — only a sign flip in a node's imbalance forces a re-prepare.
func (nw *Network) MinCostFlowValueWithCosts(e Engine, costs []int64, sc *Scratch, s, t int, value int64) (*Solution, *SolveStats, error) {
	sol, st := &Solution{}, &SolveStats{}
	if err := nw.MinCostFlowValueWithCostsInto(e, costs, sc, s, t, value, sol, st); err != nil {
		return nil, st, err
	}
	return sol, st, nil
}

// MinCostFlowValueWithCostsInto is MinCostFlowValueWithCosts writing into
// caller-owned sol and st, the zero-allocation warm path for value solves.
//
//lea:noalloc
func (nw *Network) MinCostFlowValueWithCostsInto(e Engine, costs []int64, sc *Scratch, s, t int, value int64, sol *Solution, st *SolveStats) error {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		return fmt.Errorf("flow: endpoint out of range")
	}
	if value < 0 {
		return fmt.Errorf("flow: negative flow value %d", value) //lea:allocs error path: negative-value formatting only
	}
	nw.supply[s] += value
	nw.supply[t] -= value
	defer func() {
		nw.supply[s] -= value
		nw.supply[t] += value
	}()
	return nw.SolveWithCostsInto(e, costs, sc, sol, st)
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
		incremental = sc.solved && e == SSP &&
			len(sc.r.to) == sc.prep.arcs && costsEqual(sc.lastCosts, costs)
	} else if ok, grew := sc.patchSupplies(nw); ok {
		st.WarmStart = true
		// An optimal flow for a smaller value plus shortest-path
		// augmentations of the delta is optimal for the larger value — the
		// SSP sensitivity argument. It applies only when the previous flow
		// is still present and optimal under the SAME costs and every
		// supply change widened a super arc (shrinking would require
		// removing flow). repairPotentials below re-certifies optimality.
		incremental = grew && sc.solved && e == SSP &&
			len(sc.r.to) == sc.prep.arcs && costsEqual(sc.lastCosts, costs)
	} else if err := sc.prepare(nw); err != nil {
		return err
	}
	sc.solved = false

	r := &sc.r
	var base int64 // units already shipped by the flow kept in the residual
	if incremental {
		// Keep the residual's flow; the widened super arcs may have exposed
		// negative reduced costs, so repair the potentials in place. A
		// repair failure means no valid potentials from this start (or slow
		// convergence) — fall back to a plain warm re-solve.
		if len(sc.pi) >= r.n && repairPotentials(r, sc.pi[:r.n]) {
			base = sc.shipped
			sc.warmPi = true
			st.Incremental = true
		} else {
			incremental = false
		}
	}
	if !incremental {
		r = sc.restoreResidual()
		sc.installCosts(costs)
		// Carry over node potentials when they remain valid: every arc with
		// residual capacity must have non-negative reduced cost, the
		// invariant the SSP engine maintains. O(E) to check, and any
		// potential vector that passes is a correct starting point
		// regardless of provenance.
		sc.warmPi = st.WarmStart && sc.validPotentials()
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
	// needs (and cost scaling appends a return arc), so only SSP records it.
	if e == SSP && len(r.to) == sc.prep.arcs {
		sc.solved = true
		sc.shipped = sc.prep.required
		sc.lastCosts = append(sc.lastCosts[:0], costs...)
	}

	sol.FlowByArc = grow64(sol.FlowByArc, len(nw.from)) //lea:allocs solution slice growth on first solve of a larger network
	sol.Cost = 0
	for i := range nw.from {
		f := nw.lower[i] + r.flowOn(2*i)
		sol.FlowByArc[i] = f
		sol.Cost += f * costs[i]
	}
	sol.Augmentations = st.Augmentations
	return nil
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
// (costs zeroed; SolveWithCosts installs them per solve) and snapshots the
// zero-flow capacities so re-solves can reset in one copy.
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
	p.arcs = len(r.to)
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
// non-incremental path overwrites them in restoreResidual anyway.
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

// restoreResidual resets the prepared residual to its zero-flow state: any
// arcs a previous engine appended (cost scaling's return arc) dropped, the
// CSR permutation re-established, capacities copied back from the snapshot
// (which prepare took in storage order, after its own ensureCSR).
//
//lea:noalloc
func (sc *Scratch) restoreResidual() *residual {
	r := &sc.r
	r.truncate(sc.prep.arcs)
	r.ensureCSR()
	r.capR = r.capR[:len(sc.prep.initCap)]
	copy(r.capR, sc.prep.initCap)
	return r
}

// validPotentials reports whether the scratch's potential vector keeps the
// reduced cost of every capacitated residual arc non-negative — the
// precondition for reusing it as the SSP starting potentials.
//
//lea:noalloc
func (sc *Scratch) validPotentials() bool {
	r := &sc.r
	if len(sc.pi) < r.n {
		return false
	}
	pi := sc.pi[:r.n]
	for a := 0; a < len(r.to); a++ {
		if r.capR[a] <= 0 {
			continue
		}
		u, v := r.tail[a], r.to[a]
		if r.cost[a]+pi[u]-pi[v] < 0 {
			return false
		}
	}
	return true
}
