package check

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/netbuild"
)

// Certificate is an independently derived optimality proof for a min-cost
// flow: node potentials under which every residual arc has non-negative
// reduced cost, which is equivalent to optimality (no negative-cost residual
// cycle exists).
type Certificate struct {
	// Potentials is the per-node potential vector π.
	Potentials []int64
}

// arcCosts re-derives the per-arc quantized cost vector of a build from its
// cost options — independent of whatever costs the solver actually used, and
// valid for template views (BuildFor) whose network still stores baseline
// costs. Segment arcs and the bypass cost zero; transfers are priced by the
// paper-equation dispatch on their kind.
func arcCosts(b *netbuild.Build) []int64 {
	costs := make([]int64, b.Net.M())
	segs := b.Segments
	for i := range b.Transfers {
		tr := &b.Transfers[i]
		var e float64
		switch tr.Kind {
		case netbuild.KindBypass:
			continue
		case netbuild.KindSource:
			e = netbuild.SourceCost(b.Cost, &segs[tr.ToSeg])
		case netbuild.KindSink:
			e = netbuild.SinkCost(b.Cost, &segs[tr.FromSeg])
		case netbuild.KindEq9:
			e = netbuild.ChainCost(b.Cost, &segs[tr.FromSeg])
		default: // eq. 4/6/7/8 cross-variable transfers
			e = netbuild.CrossCost(b.Cost, &segs[tr.FromSeg], &segs[tr.ToSeg])
		}
		costs[tr.Arc] = energy.Quantize(e)
	}
	return costs
}

// Solution re-certifies a solved allocation network end to end: flow within
// bounds, conservation at every node, exactly `registers` units shipped from
// s to t, the reported cost re-added from scratch, optimality re-proved via
// Certify, and the objective energy re-derived from the cost options. It is
// deliberately independent of the solver: per-arc costs come from the
// build's cost options (so template-based warm solves certify against the
// options actually priced, not the baseline stored in the network). Codes
// LEA1401–LEA1407, plus Certify's LEA1410/LEA1411.
func Solution(b *netbuild.Build, sol *flow.Solution, registers int) Diagnostics {
	var ds Diagnostics
	if b == nil || b.Net == nil || sol == nil {
		ds.errorf("LEA1401", "", "nil build or solution")
		return ds
	}
	nw := b.Net
	if len(sol.FlowByArc) != nw.M() {
		ds.errorf("LEA1401", "", "%d flow values for %d arcs", len(sol.FlowByArc), nw.M())
		return ds
	}
	costs := arcCosts(b)
	imbalance := make([]int64, nw.N())
	var total int64
	for id := 0; id < nw.M(); id++ {
		from, to, lower, capacity, _ := nw.Arc(flow.ArcID(id))
		f := sol.FlowByArc[id]
		if f < lower || f > capacity {
			ds.errorf("LEA1402", fmt.Sprintf("arc %d (%d->%d)", id, from, to),
				"flow %d outside [%d,%d]", f, lower, capacity)
		}
		imbalance[from] -= f
		imbalance[to] += f
		total += f * costs[id]
	}
	for v := 0; v < nw.N(); v++ {
		var want int64
		switch v {
		case b.S:
			want = -int64(registers)
		case b.T:
			want = int64(registers)
		}
		if imbalance[v] != want {
			ds.errorf("LEA1403", fmt.Sprintf("node %d", v),
				"net inflow %d, want %d", imbalance[v], want)
		}
	}
	if total != sol.Cost {
		ds.errorf("LEA1405", "", "re-added cost %d differs from reported %d", total, sol.Cost)
	}
	if _, cds := Certify(nw, costs, sol); len(cds) > 0 {
		ds = append(ds, cds...)
	}
	// Energy re-derivation: the quantized objective must match the float
	// energies of the flow-carrying transfers to within quantization error
	// (half a quantum per priced unit of flow).
	var e float64
	var priced int64
	for i := range b.Transfers {
		tr := &b.Transfers[i]
		if tr.Kind == netbuild.KindBypass {
			continue
		}
		if f := sol.FlowByArc[tr.Arc]; f > 0 {
			e += float64(f) * energy.Unquantize(costs[tr.Arc])
			priced += f
		}
	}
	got := energy.Unquantize(sol.Cost)
	tol := (float64(priced)*0.5 + 1) * energy.Quantum
	if math.Abs(got-e) > tol {
		ds.errorf("LEA1407", "", "objective energy %.9f differs from re-derived %.9f by more than %.9f", got, e, tol)
	}
	return ds
}

// Certify independently re-proves the optimality of a min-cost flow via
// linear-programming duality: it searches the residual network for a
// negative-cost cycle (Bellman–Ford from a virtual source). If none exists,
// the resulting shortest distances are node potentials under which every
// residual arc has non-negative reduced cost — exactly the complementary
// slackness conditions, which are re-checked arc by arc before the
// certificate is returned. costs overrides the per-arc cost (nil uses the
// network's own). A negative cycle is LEA1410 (the flow is not optimal); a
// potential vector failing slackness is LEA1411 (internal inconsistency).
func Certify(nw *flow.Network, costs []int64, sol *flow.Solution) (*Certificate, Diagnostics) {
	var ds Diagnostics
	if len(sol.FlowByArc) != nw.M() {
		ds.errorf("LEA1401", "", "%d flow values for %d arcs", len(sol.FlowByArc), nw.M())
		return nil, ds
	}
	cost := func(id int) int64 {
		if costs != nil {
			return costs[id]
		}
		_, _, _, _, c := nw.Arc(flow.ArcID(id))
		return c
	}
	// Residual arcs: forward where flow < capacity (cost c), backward where
	// flow > lower (cost -c).
	type rarc struct {
		from, to int
		cost     int64
	}
	var res []rarc
	for id := 0; id < nw.M(); id++ {
		from, to, lower, capacity, _ := nw.Arc(flow.ArcID(id))
		f := sol.FlowByArc[id]
		c := cost(id)
		if f < capacity {
			res = append(res, rarc{from, to, c})
		}
		if f > lower {
			res = append(res, rarc{to, from, -c})
		}
	}
	// Bellman–Ford from a virtual source connected to every node at cost 0:
	// initialise all distances to zero. If relaxation still changes anything
	// after n rounds, a negative residual cycle exists and the flow is not
	// optimal.
	n := nw.N()
	dist := make([]int64, n)
	for round := 0; ; round++ {
		changed := false
		for _, a := range res {
			if d := dist[a.from] + a.cost; d < dist[a.to] {
				dist[a.to] = d
				changed = true
			}
		}
		if !changed {
			break
		}
		if round > n {
			ds.errorf("LEA1410", "", "residual network contains a negative-cost cycle: the flow is not optimal")
			return nil, ds
		}
	}
	// Complementary slackness, stated in the primal arc terms: with reduced
	// cost cπ = c + π(u) − π(v), flow below capacity requires cπ ≥ 0 and
	// flow above the lower bound requires cπ ≤ 0.
	pi := dist
	for id := 0; id < nw.M(); id++ {
		from, to, lower, capacity, _ := nw.Arc(flow.ArcID(id))
		f := sol.FlowByArc[id]
		cpi := cost(id) + pi[from] - pi[to]
		pos := fmt.Sprintf("arc %d (%d->%d)", id, from, to)
		if f < capacity && cpi < 0 {
			ds.errorf("LEA1411", pos, "flow %d < capacity %d but reduced cost %d < 0", f, capacity, cpi)
		}
		if f > lower && cpi > 0 {
			ds.errorf("LEA1411", pos, "flow %d > lower %d but reduced cost %d > 0", f, lower, cpi)
		}
	}
	if ds.HasErrors() {
		return nil, ds
	}
	return &Certificate{Potentials: pi}, ds
}
