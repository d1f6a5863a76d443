package flow

import "math/bits"

const infCost = int64(1) << 60

// ssp runs successive shortest paths from s to t, one unit per round, until
// required units are shipped or t becomes unreachable, and returns the
// amount shipped. It starts from the potentials in the scratch: the ones
// initPotentials computed for the zero flow on a full solve, or the ones a
// held solve's rounds left. An optimal flow plus one unit on a shortest
// s→t path is optimal for one more unit, so the state after k rounds does
// not depend on the value asked for: a solve for a larger value under the
// same costs continues a held solve's rounds and reaches the cold solve's
// flow.
//
//lea:noalloc
func ssp(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	r := &sc.r
	pi := sc.pi[:r.n]
	sc.dist = grow64(sc.dist, r.n)       //lea:allocs scratch growth on first solve of a larger network
	sc.prevArc = grow32(sc.prevArc, r.n) //lea:allocs scratch growth on first solve of a larger network
	dist, prevArc := sc.dist, sc.prevArc
	var shipped int64
	for shipped < required {
		st.Phases++
		dijkstra(r, s, t, pi, dist, prevArc, &sc.heap, st)
		dt := dist[t]
		if dt >= infCost {
			break // t unreachable under current residual
		}
		// Update potentials. The round stopped at t, so only the nodes
		// settled before it hold final distances, all at most dist[t]; every
		// other node, reached or not, takes dist[t]. Reduced costs stay
		// non-negative on every capacitated arc.
		for v := range pi {
			pi[v] += min(dist[v], dt)
		}
		// Ship one unit along the s->t path (prevArc forms a tree, so the
		// walk terminates at s).
		for v := t; v != s; {
			a := prevArc[v]
			b := r.rev[a]
			r.capR[a]--
			r.capR[b]++
			r.syncLive(a)
			r.syncLive(b)
			v = int(r.tail[a])
		}
		shipped++
		st.Augmentations++
	}
	return shipped, nil
}

// initPotentials computes initial node potentials, the shortest distances
// from s over arcs with residual capacity, tolerating negative costs, into
// the scratch's potential buffer. A node s cannot reach keeps infCost, and
// no round ever reaches it. The initial residual of a DAG-shaped network is
// acyclic, so a single relaxation pass in topological order suffices —
// O(V+E). Bellman-Ford remains as the fallback for non-DAG inputs.
//
//lea:noalloc
func initPotentials(r *residual, sc *Scratch, s int) error {
	sc.pi = grow64(sc.pi, r.n) //lea:allocs potential growth on first solve of a larger network
	dist := sc.pi
	for v := range dist {
		dist[v] = infCost
	}
	dist[s] = 0
	if dagRelax(r, sc, dist) {
		return nil
	}
	// Cycle among capacitated arcs: re-run the general algorithm (it resets
	// dist itself).
	return bellmanFord(r, s, dist)
}

// dagRelax attempts one topological-order relaxation pass over the arcs with
// residual capacity, walked through the live set (Kahn's algorithm). It
// reports success, having filled dist, only when that subgraph is acyclic;
// on failure dist is garbage and the caller must fall back to Bellman-Ford.
//
//lea:noalloc
func dagRelax(r *residual, sc *Scratch, dist []int64) bool {
	// The Dijkstra rounds' node buffers are free until the first round: they
	// hold the indegrees and the topological queue.
	h := &sc.heap
	h.nodeSeq = grow32(h.nodeSeq, r.n) //lea:allocs indegree growth on first solve of a larger network
	indeg := h.nodeSeq
	for v := range indeg {
		indeg[v] = 0
	}
	for wi, w := range r.live {
		for ; w != 0; w &= w - 1 {
			indeg[r.to[wi<<6|bits.TrailingZeros64(w)]]++
		}
	}
	if cap(h.stack) < r.n {
		h.stack = make([]int32, 0, r.n) //lea:allocs topo-order growth on first solve of a larger network
	}
	q := h.stack[:0]
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
		lo, hi := int(r.start[u]), int(r.start[u+1])
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			for w := r.liveWord(wi, lo, hi); w != 0; w &= w - 1 {
				a := wi<<6 | bits.TrailingZeros64(w)
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
	}
	h.stack = q[:0]
	return processed == r.n
}

// bellmanFord computes shortest distances from s over arcs with residual
// capacity, tolerating negative costs, into dist. A negative cycle s reaches
// in the initial residual means the network prices a free lunch (a
// cost-reducing cycle within capacity bounds); it is reported as
// ErrNegativeCycle rather than a panic so malformed inputs surface as
// ordinary errors.
//
//lea:noalloc
func bellmanFord(r *residual, s int, dist []int64) error {
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
			return nil
		}
		if round > len(dist) {
			return ErrNegativeCycle
		}
	}
}

// dijkstra computes reduced-cost shortest paths from s and stops once it
// settles t. dist and prevArc hold final values for the nodes settled by
// then, the path to t among them; every other node holds a tentative
// distance no smaller than dist[t] (infCost and -1 when unreached).
//
// Every capacitated arc has a non-negative reduced cost, so a label of 0 is
// final when it is set; most settled nodes, and often t, sit at distance 0.
// The round therefore settles its distance-0 frontier first, from a LIFO
// stack, and builds the heap only if t is not among it. It pops exactly what
// a heap holding every label would pop, stale entries aside, in the same
// order: the heap's (distance, newest push first) order is the stack's
// among distance-0 entries, and each positive label is recorded with the
// sequence number its push would have taken, so the heap built from the one
// live label per node orders them as before. dist and prevArc, and with them
// every augmenting path, are the heap-only round's. Both stages of the
// round walk a node's run through the live-arc set, lowest position first,
// so they relax the arcs a capacity scan would, in its order, and skip the
// rest unread.
//
//lea:noalloc
func dijkstra(r *residual, s, t int, pi, dist []int64, prevArc []int32, h *payHeap, st *SolveStats) {
	for v := range dist {
		dist[v] = infCost
		prevArc[v] = -1
	}
	h.nodeSeq = grow32(h.nodeSeq, len(dist)) //lea:allocs scratch growth on first solve of a larger network
	if cap(h.stack) < len(dist) {
		h.stack = make([]int32, 0, len(dist)) //lea:allocs scratch growth on first solve of a larger network
	}
	nodeSeq := h.nodeSeq
	dist[s] = 0
	seq := int32(0)
	// A node enters the stack once, when its label drops to 0, so appends
	// stay within the stack's capacity of one slot per node.
	stack := append(h.stack[:0], int32(s))
	for len(stack) > 0 {
		u := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		st.DijkstraIters++
		if u == t {
			return
		}
		lo, hi := int(r.start[u]), int(r.start[u+1])
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			for w := r.liveWord(wi, lo, hi); w != 0; w &= w - 1 {
				a := wi<<6 | bits.TrailingZeros64(w)
				v := int(r.to[a])
				if pi[v] >= infCost {
					// Node was unreachable from s when initPotentials ran,
					// and it still is: augmentations add reverse arcs only
					// between nodes on the path. Its potential is
					// meaningless; skip it.
					continue
				}
				if d := r.cost[a] + pi[u] - pi[v]; d < dist[v] {
					dist[v] = d
					prevArc[v] = int32(a)
					seq++
					if d == 0 {
						stack = append(stack, int32(v))
					} else {
						nodeSeq[v] = seq
					}
				}
			}
		}
	}
	// The heap takes room for one live entry per node the first time a
	// network's rounds need it; only stale entries beyond that grow it.
	if cap(h.a) < len(dist) {
		h.a = make([]heapItem, 0, len(dist)) //lea:allocs heap sizing on the first heap stage of a larger network
	}
	h.a = h.a[:0]
	for v, d := range dist {
		if d > 0 && d < infCost {
			h.a = append(h.a, heapItem{d, nodeSeq[v], int32(v)})
		}
	}
	h.heapify()
	for h.len() > 0 {
		it := h.pop()
		st.DijkstraIters++
		u := int(it.node)
		if it.dist > dist[u] {
			continue // stale entry
		}
		if u == t {
			return
		}
		lo, hi := int(r.start[u]), int(r.start[u+1])
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			for w := r.liveWord(wi, lo, hi); w != 0; w &= w - 1 {
				a := wi<<6 | bits.TrailingZeros64(w)
				v := int(r.to[a])
				if pi[v] >= infCost {
					continue // never reachable, as in the distance-0 stage
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

// payHeap is a binary min-heap of (dist, seq, node) with lazy deletion,
// plus the node buffers of a Dijkstra round's distance-0 stage: stack, the
// frontier, and nodeSeq, the sequence number of each node's latest positive
// label. dagRelax and dinic borrow both outside the rounds. The first heap
// stage on a network gives a room for one entry per node.
type payHeap struct {
	a       []heapItem
	stack   []int32
	nodeSeq []int32
}

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
	h.down(0)
	return top
}

// heapify orders entries appended to a in any order into a heap.
//
//lea:noalloc
func (h *payHeap) heapify() {
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts the entry at i down to its place below.
//
//lea:noalloc
func (h *payHeap) down(i int) {
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
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}
