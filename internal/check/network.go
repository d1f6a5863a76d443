package check

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/netbuild"
)

// Network validates a flow network's construction invariants: arc bounds
// consistent (0 ≤ lower ≤ capacity). Codes LEA1301–LEA1302. It never
// panics, whatever the input.
func Network(nw *flow.Network) Diagnostics {
	var ds Diagnostics
	if nw == nil {
		ds.errorf("LEA1301", "", "nil network")
		return ds
	}
	for id := 0; id < nw.M(); id++ {
		from, to, lower, capacity, _ := nw.Arc(flow.ArcID(id))
		pos := fmt.Sprintf("arc %d (%d->%d)", id, from, to)
		if lower < 0 {
			ds.errorf("LEA1302", pos, "negative lower bound %d", lower)
		}
		if lower > capacity {
			ds.errorf("LEA1302", pos, "lower bound %d exceeds capacity %d", lower, capacity)
		}
	}
	return ds
}

// Build validates a constructed allocation network beyond the generic
// Network checks: bookkeeping arrays sized to the segment list, segment arcs
// connecting each write node to its read node with the forced/barred bounds
// of §5.2, transfer arcs matching their segment metadata and moving forward
// in time, and the whole graph a DAG (the construction only creates
// time-forward arcs, so a cycle means a corrupted build). Codes
// LEA1310–LEA1316.
func Build(b *netbuild.Build) Diagnostics {
	var ds Diagnostics
	if b == nil || b.Net == nil {
		ds.errorf("LEA1310", "", "nil build or network")
		return ds
	}
	ds = append(ds, Network(b.Net)...)
	n := len(b.Segments)
	if len(b.SegArc) != n || len(b.WNode) != n || len(b.RNode) != n {
		ds.errorf("LEA1310", "", "bookkeeping arrays sized %d/%d/%d for %d segments",
			len(b.SegArc), len(b.WNode), len(b.RNode), n)
		return ds
	}
	nodeOK := func(v int) bool { return v >= 0 && v < b.Net.N() }
	if !nodeOK(b.S) || !nodeOK(b.T) || b.S == b.T {
		ds.errorf("LEA1311", "", "s=%d t=%d invalid for %d nodes", b.S, b.T, b.Net.N())
		return ds
	}
	arcOK := func(id flow.ArcID) bool { return id >= 0 && int(id) < b.Net.M() }

	for i := 0; i < n; i++ {
		seg := &b.Segments[i]
		pos := seg.String()
		if !nodeOK(b.WNode[i]) || !nodeOK(b.RNode[i]) {
			ds.errorf("LEA1312", pos, "write/read nodes %d/%d out of range", b.WNode[i], b.RNode[i])
			continue
		}
		if !arcOK(b.SegArc[i]) {
			ds.errorf("LEA1312", pos, "segment arc %d out of range", b.SegArc[i])
			continue
		}
		from, to, lower, capacity, cost := b.Net.Arc(b.SegArc[i])
		if from != b.WNode[i] || to != b.RNode[i] {
			ds.errorf("LEA1312", pos, "segment arc connects %d->%d, want %d->%d", from, to, b.WNode[i], b.RNode[i])
		}
		var wantLower, wantCap int64 = 0, 1
		if seg.Forced {
			wantLower = 1
		}
		if seg.Barred {
			wantCap = 0
		}
		if lower != wantLower || capacity != wantCap {
			ds.errorf("LEA1313", pos, "segment arc bounds [%d,%d], want [%d,%d] (forced=%v barred=%v)",
				lower, capacity, wantLower, wantCap, seg.Forced, seg.Barred)
		}
		if cost != 0 {
			ds.errorf("LEA1313", pos, "segment arc cost %d, want 0 (eq. 3)", cost)
		}
	}

	segOK := func(i int) bool { return i >= 0 && i < n }
	for ti := range b.Transfers {
		tr := &b.Transfers[ti]
		pos := fmt.Sprintf("transfer %d (%s)", ti, tr.Kind)
		if !arcOK(tr.Arc) {
			ds.errorf("LEA1314", pos, "arc %d out of range", tr.Arc)
			continue
		}
		from, to, _, _, _ := b.Net.Arc(tr.Arc)
		wantFrom, wantTo := -2, -2
		switch tr.Kind {
		case netbuild.KindBypass:
			wantFrom, wantTo = b.S, b.T
		case netbuild.KindSource:
			if segOK(tr.ToSeg) {
				wantFrom, wantTo = b.S, b.WNode[tr.ToSeg]
			}
		case netbuild.KindSink:
			if segOK(tr.FromSeg) {
				wantFrom, wantTo = b.RNode[tr.FromSeg], b.T
			}
		default: // eq. 4/6/7/8/9 segment-to-segment transfers
			if segOK(tr.FromSeg) && segOK(tr.ToSeg) {
				wantFrom, wantTo = b.RNode[tr.FromSeg], b.WNode[tr.ToSeg]
				u, v := &b.Segments[tr.FromSeg], &b.Segments[tr.ToSeg]
				if u.EndPoint() >= v.StartPoint() {
					ds.errorf("LEA1315", pos, "transfer goes backwards in time: %s then %s", u, v)
				}
				sameVar := u.Var == v.Var
				if (tr.Kind == netbuild.KindEq9) != (sameVar && v.Index == u.Index+1) {
					ds.errorf("LEA1315", pos, "kind %s inconsistent with segments %s -> %s", tr.Kind, u, v)
				}
			}
		}
		if wantFrom == -2 {
			ds.errorf("LEA1314", pos, "segment references %d/%d out of range", tr.FromSeg, tr.ToSeg)
			continue
		}
		if from != wantFrom || to != wantTo {
			ds.errorf("LEA1314", pos, "arc connects %d->%d, want %d->%d", from, to, wantFrom, wantTo)
		}
	}

	if cycle := hasCycle(b.Net); cycle {
		ds.errorf("LEA1316", "", "network contains a directed cycle; the construction is time-forward and must be a DAG")
	}
	return ds
}

// hasCycle reports whether the network's arc set contains a directed cycle
// (Kahn's algorithm).
func hasCycle(nw *flow.Network) bool {
	n := nw.N()
	indeg := make([]int, n)
	out := make([][]int, n)
	for id := 0; id < nw.M(); id++ {
		from, to, _, _, _ := nw.Arc(flow.ArcID(id))
		if from < 0 || from >= n || to < 0 || to >= n {
			return false // bounds reported elsewhere; cycle question moot
		}
		out[from] = append(out[from], to)
		indeg[to]++
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range out[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen != n
}
