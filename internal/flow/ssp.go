package flow

import (
	"fmt"
)

const infCost = int64(1) << 60

// Solve computes a minimum-cost feasible b-flow honouring arc lower bounds,
// capacities and node supplies, using successive shortest paths with node
// potentials. It returns ErrInfeasible when no feasible flow exists.
func (nw *Network) Solve() (*Solution, error) {
	sol, _, err := nw.SolveWith(SSP, nil)
	return sol, err
}

// SolveCycleCancel computes the same minimum-cost b-flow with the
// cycle-cancelling algorithm. It exists to cross-check Solve in tests; use
// Solve in production code.
func (nw *Network) SolveCycleCancel() (*Solution, error) {
	sol, _, err := nw.SolveWith(CycleCancelling, nil)
	return sol, err
}

// solveWith runs the shared reduction (lower bounds, super source/sink) on
// the scratch's residual, dispatches to the engine and decodes the flows.
func (nw *Network) solveWith(e Engine, sc *Scratch, st *SolveStats) (*Solution, error) {
	var total int64
	for _, b := range nw.supply {
		total += b
	}
	if total != 0 {
		return nil, fmt.Errorf("flow: supplies sum to %d, want 0", total)
	}

	// Lower-bound reduction: ship each arc's lower bound unconditionally,
	// adjusting node imbalances. The lower bounds' constant cost needs no
	// separate accumulator: the decode below prices each arc's full flow
	// (lower bound included), which folds it in exactly.
	sc.b = grow64(sc.b, nw.n)
	b := sc.b
	copy(b, nw.supply)
	r := sc.resetResidual(nw.n, len(nw.from)+nw.n)
	for i := range nw.from {
		if nw.lower[i] > 0 {
			b[nw.from[i]] -= nw.lower[i]
			b[nw.to[i]] += nw.lower[i]
		}
		r.addPair(int(nw.from[i]), int(nw.to[i]), nw.capU[i]-nw.lower[i], nw.cost[i])
	}

	// Super source/sink absorb the imbalances.
	s := r.addNode()
	t := r.addNode()
	var required int64
	for v := 0; v < nw.n; v++ {
		switch {
		case b[v] > 0:
			r.addPair(s, v, b[v], 0)
			required += b[v]
		case b[v] < 0:
			r.addPair(v, t, -b[v], 0)
		}
	}

	pushed, err := e.run(sc, s, t, required, st)
	if err != nil {
		return nil, err
	}
	if pushed < required {
		return nil, ErrInfeasible
	}

	sol := &Solution{FlowByArc: make([]int64, len(nw.from))}
	for i := range nw.from {
		f := nw.lower[i] + r.flowOn(2*i)
		sol.FlowByArc[i] = f
		sol.Cost += f * nw.cost[i]
	}
	sol.Augmentations = st.Augmentations
	return sol, nil
}

// ssp runs successive shortest paths from s to t until `required` units are
// shipped or t becomes unreachable. Returns the amount shipped.
//
//lea:noalloc
func ssp(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	r := &sc.r
	r.ensureCSR()
	var pi []int64
	if sc.warmPi {
		// SolveWithCosts verified the carried-over potentials keep reduced
		// costs non-negative on the current residual; skip initialisation.
		pi = sc.pi[:r.n]
		st.PotentialsReused = true
	} else {
		var err error
		pi, err = initPotentials(r, s, sc)
		if err != nil {
			return 0, err
		}
	}
	sc.dist = grow64(sc.dist, r.n)       //lea:allocs scratch growth on first solve of a larger network
	sc.prevArc = grow32(sc.prevArc, r.n) //lea:allocs scratch growth on first solve of a larger network
	dist, prevArc := sc.dist, sc.prevArc
	var shipped int64
	for shipped < required {
		st.Phases++
		dijkstra(r, s, pi, dist, prevArc, &sc.heap, st)
		if dist[t] >= infCost {
			break // t unreachable under current residual
		}
		// Update potentials; nodes unreachable this round keep a potential
		// large enough that reduced costs stay non-negative.
		for v := range pi {
			if dist[v] < infCost {
				pi[v] += dist[v]
			} else {
				pi[v] += dist[t]
			}
		}
		// Bottleneck along the s->t path (prevArc forms a tree, so the walk
		// terminates at s).
		bottleneck := required - shipped
		for v := t; v != s; {
			a := prevArc[v]
			if r.capR[a] < bottleneck {
				bottleneck = r.capR[a]
			}
			v = int(r.tail[a])
		}
		for v := t; v != s; {
			a := prevArc[v]
			r.capR[a] -= bottleneck
			r.capR[r.rev[a]] += bottleneck
			v = int(r.tail[a])
		}
		shipped += bottleneck
		st.Augmentations++
	}
	return shipped, nil
}

// initPotentials computes initial node potentials (shortest distances from s
// over arcs with residual capacity, tolerating negative costs) into the
// scratch's potential buffer. The initial residual of a DAG-shaped network is
// acyclic, so a single relaxation pass in topological order suffices —
// O(V+E). Bellman-Ford remains as the fallback for non-DAG inputs.
//
//lea:noalloc
func initPotentials(r *residual, s int, sc *Scratch) ([]int64, error) {
	sc.pi = grow64(sc.pi, r.n) //lea:allocs potential growth on first solve of a larger network
	dist := sc.pi
	for v := range dist {
		dist[v] = infCost
	}
	dist[s] = 0
	if dagRelax(r, sc, dist) {
		return dist, nil
	}
	// Cycle among capacitated arcs: re-run the general algorithm (it resets
	// dist itself).
	return bellmanFord(r, s, dist)
}

// dagRelax attempts one topological-order relaxation pass over the arcs with
// residual capacity (Kahn's algorithm). It reports success, having filled
// dist, only when that subgraph is acyclic; on failure dist is garbage and
// the caller must fall back to Bellman-Ford.
//
//lea:noalloc
func dagRelax(r *residual, sc *Scratch, dist []int64) bool {
	sc.indeg = grow32(sc.indeg, r.n) //lea:allocs indegree growth on first solve of a larger network
	indeg := sc.indeg
	for v := range indeg {
		indeg[v] = 0
	}
	for u := 0; u < r.n; u++ {
		for a := int(r.start[u]); a < int(r.start[u+1]); a++ {
			if r.capR[a] > 0 {
				indeg[r.to[a]]++
			}
		}
	}
	if cap(sc.order) < r.n {
		sc.order = make([]int32, 0, r.n) //lea:allocs topo-order growth on first solve of a larger network
	}
	q := sc.order[:0]
	for v := range indeg {
		if indeg[v] == 0 {
			q = append(q, int32(v))
		}
	}
	processed := 0
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		processed++
		du := dist[u]
		for a := int(r.start[u]); a < int(r.start[u+1]); a++ {
			if r.capR[a] <= 0 {
				continue
			}
			v := r.to[a]
			if du < infCost {
				if d := du + r.cost[a]; d < dist[v] {
					dist[v] = d
				}
			}
			indeg[v]--
			if indeg[v] == 0 {
				q = append(q, v)
			}
		}
	}
	sc.order = q[:0]
	return processed == r.n
}

// repairPotentials restores the non-negative reduced-cost invariant on a
// residual that still holds a flow, starting from the previous solve's
// potentials: label-correcting relaxation until fixpoint. Only potentials
// near the widened super arcs actually move, so this typically converges in
// one or two O(E) passes — far cheaper than re-initialising. A fixpoint also
// certifies the held flow is optimal for its value (no negative residual
// cycle), the precondition for incrementally augmenting on top of it;
// conversely a negative cycle never reaches a fixpoint, so the pass cap
// doubles as the soundness guard and the caller must fall back to a full
// re-solve when it trips.
//
//lea:noalloc
func repairPotentials(r *residual, pi []int64) bool {
	for pass := 0; pass <= r.n; pass++ {
		changed := false
		for a := 0; a < len(r.to); a++ {
			if r.capR[a] <= 0 {
				continue
			}
			u := r.tail[a]
			if pi[u] >= infCost {
				continue
			}
			if d := pi[u] + r.cost[a]; d < pi[r.to[a]] {
				pi[r.to[a]] = d
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// bellmanFord computes shortest distances from s over arcs with residual
// capacity, tolerating negative costs, into dist. A negative cycle in the
// initial residual means the network prices a free lunch (a cost-reducing
// cycle within capacity bounds); it is reported as ErrNegativeCycle rather
// than a panic so malformed inputs surface as ordinary errors.
//
//lea:noalloc
func bellmanFord(r *residual, s int, dist []int64) ([]int64, error) {
	for v := range dist {
		dist[v] = infCost
	}
	dist[s] = 0
	for round := 0; ; round++ {
		changed := false
		for u := range dist {
			du := dist[u]
			if du >= infCost {
				continue
			}
			for a := int(r.start[u]); a < int(r.start[u+1]); a++ {
				if r.capR[a] <= 0 {
					continue
				}
				if d := du + r.cost[a]; d < dist[r.to[a]] {
					dist[r.to[a]] = d
					changed = true
				}
			}
		}
		if !changed {
			return dist, nil
		}
		if round > len(dist) {
			return nil, ErrNegativeCycle
		}
	}
}

// dijkstra computes reduced-cost shortest paths from s on the binary heap h,
// filling dist and prevArc for every node (infCost and -1 when unreached).
//
//lea:noalloc
func dijkstra(r *residual, s int, pi, dist []int64, prevArc []int32, h *payHeap, st *SolveStats) {
	for v := range dist {
		dist[v] = infCost
		prevArc[v] = -1
	}
	dist[s] = 0
	h.a = h.a[:0]
	seq := int32(0)
	h.push(heapItem{0, 0, int32(s)})
	for h.len() > 0 {
		it := h.pop()
		st.DijkstraIters++
		u := int(it.node)
		if it.dist > dist[u] {
			continue // stale entry
		}
		for a := int(r.start[u]); a < int(r.start[u+1]); a++ {
			if r.capR[a] <= 0 {
				continue
			}
			v := int(r.to[a])
			if pi[v] >= infCost {
				// Node was never reachable; its potential is meaningless but
				// it can become reachable now. Treat reduced cost as raw.
				continue
			}
			rc := it.dist + r.cost[a] + pi[u] - pi[v]
			if rc < dist[v] {
				dist[v] = rc
				prevArc[v] = int32(a)
				seq++
				h.push(heapItem{rc, seq, int32(v)})
			}
		}
	}
}

// heapItem is one queue entry: tentative distance, push sequence number and
// node. The sequence number makes the ordering a strict total order, so the
// pop sequence — and with it every augmenting path — is fully determined.
type heapItem struct {
	dist int64
	seq  int32
	node int32
}

// less orders entries by (dist, -seq): newest first among equal distances.
func (x heapItem) less(y heapItem) bool {
	return x.dist < y.dist || (x.dist == y.dist && x.seq > y.seq)
}

// payHeap is a binary min-heap of (dist, seq, node) with lazy deletion.
type payHeap struct{ a []heapItem }

func (h *payHeap) len() int { return len(h.a) }

//lea:noalloc
func (h *payHeap) push(x heapItem) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.a[i].less(h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

//lea:noalloc
func (h *payHeap) pop() heapItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l].less(h.a[small]) {
			small = l
		}
		if rr < len(h.a) && h.a[rr].less(h.a[small]) {
			small = rr
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
