package flow

import "fmt"

// CheckFeasible verifies that sol satisfies conservation, bounds and the
// network's supplies; it returns a descriptive error on the first violation.
// Used by tests and as a post-solve assertion in debug paths.
func (nw *Network) CheckFeasible(sol *Solution) error {
	if len(sol.FlowByArc) != len(nw.from) {
		return fmt.Errorf("flow: solution has %d arcs, network has %d", len(sol.FlowByArc), len(nw.from))
	}
	net := make([]int64, nw.n)
	for i := range nw.from {
		f := sol.FlowByArc[i]
		if f < nw.lower[i] || f > nw.capU[i] {
			return fmt.Errorf("flow: arc %d (%d->%d) flow %d outside [%d,%d]", i, nw.from[i], nw.to[i], f, nw.lower[i], nw.capU[i])
		}
		net[nw.from[i]] += f
		net[nw.to[i]] -= f
	}
	for v := 0; v < nw.n; v++ {
		if net[v] != nw.supply[v] {
			return fmt.Errorf("flow: node %d ships %d, supply is %d", v, net[v], nw.supply[v])
		}
	}
	var cost int64
	for i := range nw.from {
		cost += sol.FlowByArc[i] * nw.cost[i]
	}
	if cost != sol.Cost {
		return fmt.Errorf("flow: recomputed cost %d != reported %d", cost, sol.Cost)
	}
	return nil
}

// FeasibleFlow computes any flow satisfying the network's lower bounds and
// supplies, ignoring costs: the solve of the supplies under all-zero costs,
// where only the penalty copies' costs decide, so the optimum meets every
// lower bound whenever some flow does. It returns ErrInfeasible when no such
// flow exists, and prices the flow under the network's own costs.
func (nw *Network) FeasibleFlow() (*Solution, error) {
	sc := NewScratch()
	sol := &Solution{}
	if err := nw.MinCostFlowValueWithCostsInto(SSP, make([]int64, len(nw.from)), sc, 0, 0, 0, sol, &SolveStats{}); err != nil {
		return nil, err
	}
	nw.readFlow(sc, nw.cost, sol)
	return sol, nil
}
