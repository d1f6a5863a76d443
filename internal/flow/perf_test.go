package flow

import (
	"math/rand"
	"testing"
)

// buildWarmInstance returns a random instance with its value's endpoints
// and two cost vectors to alternate between (forcing real Dijkstra rounds
// on every re-solve rather than the delta-zero fast path).
func buildWarmInstance(rng *rand.Rand) (nw *Network, s, t int, value int64, costsA, costsB []int64) {
	nw, s, t, value = randomInstance(rng)
	costsA = arcCosts(nw)
	costsB = make([]int64, len(costsA))
	for i, c := range costsA {
		costsB[i] = c + int64(rng.Intn(3)) // perturbed second view
	}
	return nw, s, t, value, costsA, costsB
}

// TestWarmSolveZeroAlloc: after the first (preparing) solve, re-solves
// through MinCostFlowValueWithCostsInto must not allocate — with unchanged
// costs (delta-zero path) and with alternating cost vectors (full Dijkstra
// rounds).
func TestWarmSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, s, tt, value, costsA, costsB := buildWarmInstance(rng)
	sc := NewScratch()
	var sol Solution
	var st SolveStats
	if err := nw.MinCostFlowValueWithCostsInto(SSP, costsA, sc, s, tt, value, &sol, &st); err != nil {
		t.Fatal(err)
	}
	// Exercise both cost views once so every buffer reaches final size.
	if err := nw.MinCostFlowValueWithCostsInto(SSP, costsB, sc, s, tt, value, &sol, &st); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(50, func() {
		costs := costsA
		if flip {
			costs = costsB
		}
		flip = !flip
		if err := nw.MinCostFlowValueWithCostsInto(SSP, costs, sc, s, tt, value, &sol, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm MinCostFlowValueWithCostsInto allocates %.1f/op, want 0", allocs)
	}
}

// TestWarmValueSolveZeroAlloc: the register-count re-solve path
// (MinCostFlowValueWithCostsInto with a changing value) must also run
// allocation-free once warm.
func TestWarmValueSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw, s, tt, _ := randomInstance(rng)
	costs := arcCosts(nw)
	sc := NewScratch()
	var sol Solution
	var st SolveStats
	for v := int64(1); v <= 3; v++ {
		if err := nw.MinCostFlowValueWithCostsInto(SSP, costs, sc, s, tt, v, &sol, &st); err != nil {
			t.Fatal(err)
		}
	}
	v := int64(1)
	allocs := testing.AllocsPerRun(50, func() {
		v = v%3 + 1
		if err := nw.MinCostFlowValueWithCostsInto(SSP, costs, sc, s, tt, v, &sol, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm MinCostFlowValueWithCostsInto allocates %.1f/op, want 0", allocs)
	}
}
