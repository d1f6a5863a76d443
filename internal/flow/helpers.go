package flow

import "fmt"

// CheckFeasible verifies that sol ships value units from s to t: every arc's
// flow within its bounds, a net outflow of value at s, of -value at t and
// of zero at every other node (zero everywhere when s == t), and the
// reported cost. It returns a descriptive error on the first violation.
// Used by tests and as a post-solve assertion in debug paths.
func (nw *Network) CheckFeasible(sol *Solution, s, t int, value int64) error {
	if len(sol.FlowByArc) != len(nw.from) {
		return fmt.Errorf("flow: solution has %d arcs, network has %d", len(sol.FlowByArc), len(nw.from))
	}
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		return fmt.Errorf("flow: endpoint out of range")
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
	if s != t {
		net[s] -= value
		net[t] += value
	}
	for v, excess := range net {
		if excess != 0 {
			return fmt.Errorf("flow: node %d is out of balance by %d for %d units from %d to %d", v, excess, value, s, t)
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
