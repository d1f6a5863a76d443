package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// heapOnlyDijkstra is the round dijkstra replaced, kept as its oracle: every
// label, distance 0 included, goes through the binary heap, and the round
// stops once it settles t.
func heapOnlyDijkstra(r *residual, s, t int, pi, dist []int64, prevArc []int32, h *payHeap, st *SolveStats) {
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
		if u == t {
			return
		}
		for a := int(r.start[u]); a < int(r.start[u+1]); a++ {
			if r.capR[a] <= 0 {
				continue
			}
			v := int(r.to[a])
			if pi[v] >= infCost {
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

// tieHeavyNetwork builds a random b-flow network whose arc costs are 0, 1 or
// 2, so that its residuals are full of equal-cost paths and zero reduced
// costs: arcs of capacity one to three, two to four supply nodes and as many
// demand nodes, each supply node joined to each demand node by an
// uncapacitated bypass arc so that every instance is feasible.
func tieHeavyNetwork(rng *rand.Rand) *Network {
	n := 8 + rng.Intn(16)
	nw := NewNetwork(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Intn(3) != 0 {
				continue
			}
			nw.MustArc(u, v, 0, int64(1+rng.Intn(3)), int64(rng.Intn(3)))
		}
	}
	k := 2 + rng.Intn(3)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		src, dst := perm[i], perm[k+i]
		b := int64(1 + rng.Intn(4))
		nw.AddSupply(src, b)
		nw.AddSupply(dst, -b)
		for j := 0; j < k; j++ {
			nw.MustArc(src, perm[k+j], 0, Unbounded, 2)
		}
	}
	return nw
}

// TestDijkstraMatchesHeapOnly: on the residuals of solved tie-heavy networks,
// under the solver's potentials or those shifted by capped reduced distances
// (any potentials with non-negative reduced costs are valid), a round from a
// random source must leave the heap-only oracle's dist and prevArc on every
// node, both when it settles everything (t = -1) and when it stops at a
// random sink. Both ways a round can stop at a sink must occur: at distance
// 0, from the stack, and later, from the heap.
func TestDijkstraMatchesHeapOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var oracle payHeap
	atZero, beyond := 0, 0
	for i := 0; i < 400; i++ {
		nw := tieHeavyNetwork(rng)
		sc := NewScratch()
		if _, _, err := bflow(nw, SSP, nil, sc); err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		r := &sc.r
		pi := sc.pi[:r.n]
		dist, prevArc := sc.dist[:r.n], sc.prevArc[:r.n]
		wantDist, wantPrev := make([]int64, r.n), make([]int32, r.n)
		if rng.Intn(2) == 0 {
			heapOnlyDijkstra(r, rng.Intn(r.n), -1, pi, wantDist, wantPrev, &oracle, &SolveStats{})
			limit := int64(rng.Intn(6))
			for v := range pi {
				pi[v] += min(wantDist[v], limit)
			}
		}
		if a := negativeReducedCost(sc); a >= 0 {
			t.Fatalf("network %d: arc %d has negative reduced cost", i, a)
		}
		for k := 0; k < 8; k++ {
			src := rng.Intn(r.n)
			if pi[src] >= infCost {
				continue
			}
			sink := -1
			if k%2 == 1 {
				sink = rng.Intn(r.n)
			}
			var got, want SolveStats
			dijkstra(r, src, sink, pi, dist, prevArc, &sc.heap, &got)
			heapOnlyDijkstra(r, src, sink, pi, wantDist, wantPrev, &oracle, &want)
			if !slices.Equal(dist, wantDist) || !slices.Equal(prevArc, wantPrev) {
				t.Fatalf("network %d, source %d, sink %d:\ndist    %v\nprevArc %v\nwant dist    %v\nwant prevArc %v",
					i, src, sink, dist, prevArc, wantDist, wantPrev)
			}
			if got.DijkstraIters > want.DijkstraIters {
				t.Fatalf("network %d, source %d, sink %d: %d pops, heap-only %d", i, src, sink, got.DijkstraIters, want.DijkstraIters)
			}
			if sink >= 0 && sink != src && wantDist[sink] < infCost {
				if wantDist[sink] == 0 {
					atZero++
				} else {
					beyond++
				}
			}
		}
	}
	if atZero == 0 || beyond == 0 {
		t.Fatalf("%d rounds stopped at a sink at distance 0, %d beyond it; want both", atZero, beyond)
	}
	t.Logf("%d rounds stopped at a sink at distance 0, %d beyond it", atZero, beyond)
}
