package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// labelCorrectingRepair is the whole-residual repair that repairPotentials
// replaced, kept as its oracle: label-correcting passes over every
// capacitated arc until a pass changes nothing, giving up after r.n+1
// passes. Without a negative cycle it reaches the largest potentials below
// pi that satisfy every arc; with one it never settles.
func labelCorrectingRepair(r *residual, pi []int64) bool {
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

// negativeReducedCost returns a capacitated residual arc whose reduced cost
// under the scratch's potentials is negative, or -1 when there is none: the
// invariant every SSP round, early-stopped or not, must leave behind. Arcs
// out of nodes no solve ever reached (infinite potential) carry no
// constraint.
func negativeReducedCost(sc *Scratch) int {
	r := &sc.r
	pi := sc.pi[:r.n]
	for a := range r.to {
		if r.capR[a] > 0 && pi[r.tail[a]] < infCost && r.cost[a]+pi[r.tail[a]]-pi[r.to[a]] < 0 {
			return a
		}
	}
	return -1
}

// randomSupplyNetwork builds a random b-flow network of unit-capacity arcs
// with negative costs, lower bounds and cycles: two to four supply nodes and
// as many demand nodes, each supply node joined to each demand node by a
// costly uncapacitated bypass arc so that most supplies stay feasible as
// they grow.
func randomSupplyNetwork(rng *rand.Rand) *Network {
	n := 8 + rng.Intn(10)
	nw := NewNetwork(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Intn(2) != 0 {
				continue
			}
			var lower int64
			if rng.Intn(6) == 0 {
				lower = int64(1 + rng.Intn(2))
			}
			nw.MustArc(u, v, lower, lower+1, int64(rng.Intn(31)-3))
		}
	}
	k := 2 + rng.Intn(3)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		src, dst := perm[i], perm[k+i]
		b := int64(1 + rng.Intn(3))
		nw.AddSupply(src, b)
		nw.AddSupply(dst, -b)
		for j := 0; j < k; j++ {
			nw.MustArc(src, perm[k+j], 0, Unbounded, 20)
		}
	}
	return nw
}

// TestRepairMatchesLabelCorrecting: on random networks solved by SSP and then
// widened by random supply steps, repairPotentials must return the same
// verdict as the whole-residual oracle and, when it succeeds, the identical
// potentials, so every incremental-or-fallback decision and every flow
// built on it stays as the oracle would have it. Both verdicts must occur.
// Every successful solve on the retained scratch must leave non-negative
// reduced costs on every capacitated arc.
func TestRepairMatchesLabelCorrecting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	repaired, cycles := 0, 0
	for i := 0; i < 2000; i++ {
		nw := randomSupplyNetwork(rng)
		sc := NewScratch()
		_, _, err := bflow(nw, SSP, nil, sc)
		for step := 0; err == nil && step < 5; step++ {
			if a := negativeReducedCost(sc); a >= 0 {
				t.Fatalf("network %d step %d: arc %d has negative reduced cost after a solve", i, step, a)
			}
			r := &sc.r
			if rng.Intn(2) == 0 {
				// Any potentials with non-negative reduced costs are a valid
				// start. Shifting the solver's own by capped reduced
				// distances from a random node yields starts that need the
				// repair's second phase, which the solver's rarely do.
				dijkstra(r, rng.Intn(r.n), -1, sc.pi[:r.n], sc.dist, sc.prevArc, &sc.heap, &SolveStats{})
				limit := int64(rng.Intn(30))
				for v := range sc.pi[:r.n] {
					sc.pi[v] += min(sc.dist[v], limit)
				}
			}
			// Widen: grow one to three supply/demand pairs of the
			// prepared imbalances, keeping every sign.
			var pos, neg []int
			for v, x := range sc.prep.excess {
				if x > 0 {
					pos = append(pos, v)
				} else if x < 0 {
					neg = append(neg, v)
				}
			}
			if len(pos) == 0 {
				break
			}
			for j := 1 + rng.Intn(3); j > 0; j-- {
				d := int64(1 + rng.Intn(3))
				nw.AddSupply(pos[rng.Intn(len(pos))], d)
				nw.AddSupply(neg[rng.Intn(len(neg))], -d)
			}
			if ok, grew := sc.patchSupplies(nw); !ok || !grew {
				t.Fatalf("network %d step %d: widening patched ok=%t grew=%t", i, step, ok, grew)
			}
			want := slices.Clone(sc.pi[:r.n])
			wantOK := labelCorrectingRepair(r, want)
			gotOK := repairPotentials(sc, sc.prep.s, sc.prep.t)
			if gotOK != wantOK {
				t.Fatalf("network %d step %d: repair ok=%t, label-correcting ok=%t", i, step, gotOK, wantOK)
			}
			if !gotOK {
				cycles++
			} else {
				repaired++
				if !slices.Equal(sc.pi[:r.n], want) {
					t.Fatalf("network %d step %d: repaired potentials %v, label-correcting %v", i, step, sc.pi[:r.n], want)
				}
			}
			// Solve the widened network on the same scratch, incrementally
			// or through the fallback, as the next step's starting point.
			_, _, err = bflow(nw, SSP, nil, sc)
		}
	}
	if repaired == 0 || cycles == 0 {
		t.Fatalf("%d repairs succeeded, %d found a negative cycle; want both", repaired, cycles)
	}
}
