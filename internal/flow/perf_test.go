package flow

import (
	"math/rand"
	"testing"
)

// buildWarmInstance returns a prepared-capable network with supplies baked
// in, plus two cost vectors to alternate between (forcing real Dijkstra
// rounds on every re-solve rather than the delta-zero fast path).
func buildWarmInstance(rng *rand.Rand) (*Network, []int64, []int64) {
	nw, s, t, value := randomInstance(rng)
	nw.AddSupply(s, value)
	nw.AddSupply(t, -value)
	costsA := arcCosts(nw)
	costsB := make([]int64, len(costsA))
	for i, c := range costsA {
		costsB[i] = c + int64(rng.Intn(3)) // perturbed second view
	}
	return nw, costsA, costsB
}

// TestWarmSolveZeroAlloc: after the first (preparing) solve, re-solves
// through SolveWithCostsInto must not allocate — with unchanged costs
// (delta-zero path) and with alternating cost vectors (full Dijkstra rounds).
func TestWarmSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, costsA, costsB := buildWarmInstance(rng)
	sc := NewScratchSized(nw.N(), nw.M())
	var sol Solution
	var st SolveStats
	if err := nw.SolveWithCostsInto(SSP, costsA, sc, &sol, &st); err != nil {
		t.Fatal(err)
	}
	// Exercise both cost views once so every buffer reaches final size.
	if err := nw.SolveWithCostsInto(SSP, costsB, sc, &sol, &st); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(50, func() {
		costs := costsA
		if flip {
			costs = costsB
		}
		flip = !flip
		if err := nw.SolveWithCostsInto(SSP, costs, sc, &sol, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm SolveWithCostsInto allocates %.1f/op, want 0", allocs)
	}
}

// TestWarmValueSolveZeroAlloc: the register-count re-solve path
// (MinCostFlowValueWithCostsInto with a changing value) must also run
// allocation-free once warm.
func TestWarmValueSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw, _, _ := buildWarmInstance(rng)
	costs := arcCosts(nw)
	s, tt := nw.N()-2, nw.N()-1
	sc := NewScratchSized(nw.N(), nw.M())
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
