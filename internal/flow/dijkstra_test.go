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

// tieHeavyNetwork builds a random network whose arc costs are 0, 1 or 2, so
// that its residuals are full of equal-cost paths and zero reduced costs:
// arcs of capacity one to three, and two to four supply nodes and as many
// demand nodes, each supply node joined to each demand node by an
// uncapacitated bypass arc so that every instance is feasible. As in
// randomSupplyNetwork, an added source feeds each supply node and each
// demand node drains into an added sink through an arc whose capacity is
// its supply, and the value is their total.
func tieHeavyNetwork(rng *rand.Rand) (nw *Network, s, t int, value int64) {
	n := 8 + rng.Intn(16)
	nw = NewNetwork(n + 2)
	s, t = n, n+1
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
		nw.MustArc(s, src, 0, b, 0)
		nw.MustArc(dst, t, 0, b, 0)
		value += b
		for j := 0; j < k; j++ {
			nw.MustArc(src, perm[k+j], 0, Unbounded, 2)
		}
	}
	return nw, s, t, value
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
		nw, s, tt, value := tieHeavyNetwork(rng)
		sc := NewScratch()
		if _, _, err := solveValue(nw, SSP, nil, sc, s, tt, value); err != nil {
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

// liveMismatch returns a storage position whose live bit disagrees with its
// residual capacity, or -1 when the live set is exactly the positions with
// capacity left: one word per 64 positions and no bit set past the last.
func liveMismatch(r *residual) int {
	if len(r.live) != (len(r.capR)+63)/64 {
		return len(r.capR)
	}
	for p := range 64 * len(r.live) {
		set := r.live[p>>6]>>(p&63)&1 == 1
		if set != (p < len(r.capR) && r.capR[p] > 0) {
			return p
		}
	}
	return -1
}

// TestLiveSetTracksCapacity runs one retained scratch through a corpus of
// networks with lower bounds and an Unbounded s→t bypass. On each network
// it finds the smallest feasible value of at least a random floor by
// solving on another scratch, then solves cold at that value, climbs the value
// incrementally, re-solves under new costs, solves with cost scaling and
// then with SSP again. After every SSP solve the live set must hold exactly
// the positions with residual capacity. Cost scaling leaves the set stale,
// so the SSP solve after it checks the restore a full re-solve makes; it
// must return the flow of the SSP re-solve before it.
func TestLiveSetTracksCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := NewScratch()
	stale := 0
	for i := 0; i < 200; i++ {
		nw, s, tt := randomLowerBoundInstance(rng)
		floor := int64(1 + rng.Intn(3))
		costs := arcCosts(nw)
		// Past the floor, a minimal feasible flow's every s→t path holds
		// some arc at its lower bound of 1, so no first feasible value
		// exceeds the floor by more than their count.
		lo := firstFeasible(t, nw, costs, NewScratch(), s, tt, floor, floor+int64(lowerBounded(nw)))
		if lo < 0 {
			continue // lower bounds no value satisfies
		}
		recosts := make([]int64, len(costs))
		for a, c := range costs {
			recosts[a] = c + int64(rng.Intn(5)-2)
		}
		check := func(step string, e Engine, cv []int64, value int64, incremental bool) *Solution {
			t.Helper()
			sol, st, err := solveValue(nw, e, cv, sc, s, tt, value)
			if err != nil {
				t.Fatalf("network %d, %s: %v", i, step, err)
			}
			if st.Incremental != incremental {
				t.Fatalf("network %d, %s: incremental=%t, want %t", i, step, st.Incremental, incremental)
			}
			if p := liveMismatch(&sc.r); e == SSP && p >= 0 {
				t.Fatalf("network %d, %s: live bit of position %d disagrees with its capacity", i, step, p)
			}
			return sol
		}
		check("cold", SSP, costs, lo, false)
		for v := lo + 1; v <= lo+3; v++ {
			check("climb", SSP, costs, v, true)
		}
		recost := check("recost", SSP, recosts, lo+3, false)
		scaled := check("cost scaling", CostScaling, recosts, lo+3, false)
		if scaled.Cost != recost.Cost {
			t.Fatalf("network %d: cost scaling cost %d, SSP %d", i, scaled.Cost, recost.Cost)
		}
		if liveMismatch(&sc.r) >= 0 {
			stale++
		}
		again := check("ssp after cost scaling", SSP, recosts, lo+3, false)
		if !slices.Equal(again.FlowByArc, recost.FlowByArc) {
			t.Fatalf("network %d: SSP after cost scaling %v, before %v", i, again.FlowByArc, recost.FlowByArc)
		}
	}
	if stale == 0 {
		t.Fatal("cost scaling never left the live set stale, so no restore was checked")
	}
	t.Logf("cost scaling left the live set stale on %d networks", stale)
}
