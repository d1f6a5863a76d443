package flow

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// arcCosts extracts the network's built-in costs as a vector: an explicit
// cost vector equal to the nil (own-costs) default.
func arcCosts(nw *Network) []int64 {
	costs := make([]int64, nw.M())
	for i := range costs {
		_, _, _, _, c := nw.Arc(ArcID(i))
		costs[i] = c
	}
	return costs
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

// TestSolveWithCostsMatchesCold: with the identity cost vector a retained
// scratch must agree with a fresh-scratch solve under the network's own
// costs — same objective, feasible flows — and the second solve on the same
// scratch, unchanged in costs and supplies, must keep the first one's flow:
// an incremental solve of a zero delta on the held potentials.
func TestSolveWithCostsMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := NewScratch()
	for i := 0; i < 100; i++ {
		nw, s, tt, value := randomInstance(rng)
		nw.AddSupply(s, value)
		nw.AddSupply(tt, -value)
		costs := arcCosts(nw)
		cold, _, errC := bflow(nw, SSP, nil, nil)
		for round := 0; round < 2; round++ {
			warm, st, errW := bflow(nw, SSP, costs, sc)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("instance %d round %d: cold err %v, warm err %v", i, round, errC, errW)
			}
			if errC != nil {
				if !errors.Is(errW, ErrInfeasible) {
					t.Fatalf("instance %d: unexpected warm error %v", i, errW)
				}
				continue
			}
			if warm.Cost != cold.Cost {
				t.Fatalf("instance %d round %d: warm cost %d != cold %d", i, round, warm.Cost, cold.Cost)
			}
			if err := nw.CheckFeasible(warm); err != nil {
				t.Fatalf("instance %d round %d: %v", i, round, err)
			}
			if round == 1 && !(st.WarmStart && st.Incremental) {
				t.Fatalf("instance %d: repeated solve warm=%t incremental=%t, want both",
					i, st.WarmStart, st.Incremental)
			}
		}
	}
}

// TestWarmStartPropertyAllEngines is the cross-solver property: ~50 random
// b-flow networks solved with SSP cold, SSP warm-started after a
// perturb-then-restore cost round trip, and cycle cancelling must all agree
// on the optimal cost. The perturbed intermediate solve leaves the scratch
// holding another cost vector's optimum, so the restore solve must take the
// full re-solve from fresh potentials, not the incremental path.
func TestWarmStartPropertyAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		nw, s, tt, value := randomInstance(rng)
		nw.AddSupply(s, value)
		nw.AddSupply(tt, -value)
		costs := arcCosts(nw)

		cold, _, errCold := bflow(nw, SSP, nil, nil)
		cc, _, errCC := bflow(nw, CycleCancelling, nil, nil)

		// Perturb every cost, solve, then restore and re-solve warm.
		perturbed := make([]int64, len(costs))
		for a := range perturbed {
			perturbed[a] = costs[a] + int64(rng.Intn(9)-4)
		}
		if _, _, err := bflow(nw, SSP, perturbed, sc); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("instance %d: perturbed solve: %v", i, err)
		}
		warm, wst, errWarm := bflow(nw, SSP, costs, sc)

		if errCold != nil || errCC != nil || errWarm != nil {
			if !errors.Is(errCold, ErrInfeasible) || !errors.Is(errCC, ErrInfeasible) || !errors.Is(errWarm, ErrInfeasible) {
				t.Fatalf("instance %d: feasibility verdicts differ: cold %v, cc %v, warm %v",
					i, errCold, errCC, errWarm)
			}
			continue
		}
		if !wst.WarmStart || wst.Incremental {
			t.Fatalf("instance %d: restore solve warm=%t incremental=%t, want a full warm re-solve",
				i, wst.WarmStart, wst.Incremental)
		}
		if warm.Cost != cold.Cost || warm.Cost != cc.Cost {
			t.Fatalf("instance %d: costs disagree: warm %d, cold %d, cyclecancel %d",
				i, warm.Cost, cold.Cost, cc.Cost)
		}
		if err := nw.CheckFeasible(warm); err != nil {
			t.Fatalf("instance %d: warm solution infeasible: %v", i, err)
		}
	}
}

// TestSolveWithCostsEngines drives the warm path through every engine: the
// residual cost swap and capacity reset are engine-agnostic, so every
// engine's re-solve on a retained scratch must keep the cold objective.
func TestSolveWithCostsEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, e := range engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			sc := NewScratch()
			for i := 0; i < 40; i++ {
				nw, s, tt, value := randomInstance(rng)
				nw.AddSupply(s, value)
				nw.AddSupply(tt, -value)
				costs := arcCosts(nw)
				ref, _, errRef := bflow(nw, SSP, nil, nil)
				for round := 0; round < 2; round++ {
					sol, _, err := bflow(nw, e, costs, sc)
					if (errRef == nil) != (err == nil) {
						t.Fatalf("instance %d: ref err %v, %s err %v", i, errRef, e.Name(), err)
					}
					if errRef != nil {
						break
					}
					if sol.Cost != ref.Cost {
						t.Fatalf("instance %d round %d: cost %d != ref %d", i, round, sol.Cost, ref.Cost)
					}
					if err := nw.CheckFeasible(sol); err != nil {
						t.Fatalf("instance %d: %v", i, err)
					}
				}
			}
		})
	}
}

// TestEnginesKeepResidualTopology: no engine adds or removes residual arcs,
// so after any engine's solve the scratch holds exactly the arcs prepare
// built, with a clean CSR index, and an SSP re-solve on it returns the cold
// flow arc for arc.
func TestEnginesKeepResidualTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := NewScratch()
	for i := 0; i < 60; i++ {
		nw, s, tt, value := randomInstance(rng)
		nw.AddSupply(s, value)
		nw.AddSupply(tt, -value)
		costs := arcCosts(nw)
		cold, _, errCold := bflow(nw, SSP, costs, nil)
		for _, e := range engines() {
			if _, _, err := bflow(nw, e, costs, sc); (err == nil) != (errCold == nil) {
				t.Fatalf("instance %d: %s err %v, cold err %v", i, e.Name(), err, errCold)
			}
			r := &sc.r
			if len(r.to) != len(sc.prep.initCap) || r.dirty || len(r.start) != r.n+1 {
				t.Fatalf("instance %d: after %s the residual holds %d arcs (prepared %d), dirty=%t, %d CSR offsets for %d nodes",
					i, e.Name(), len(r.to), len(sc.prep.initCap), r.dirty, len(r.start), r.n)
			}
			warm, _, err := bflow(nw, SSP, costs, sc)
			if (err == nil) != (errCold == nil) {
				t.Fatalf("instance %d: SSP re-solve after %s err %v, cold err %v", i, e.Name(), err, errCold)
			}
			if errCold == nil && !slices.Equal(warm.FlowByArc, cold.FlowByArc) {
				t.Fatalf("instance %d: SSP re-solve after %s returned flow %v, cold %v",
					i, e.Name(), warm.FlowByArc, cold.FlowByArc)
			}
		}
	}
}

// TestSolveWithCostsValueChange: changing the shipped value keeps the
// prepared topology (the value is not a supply) and still solves correctly
// at each value.
func TestSolveWithCostsValueChange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw, s, tt, _ := randomInstance(rng)
	costs := arcCosts(nw)
	sc := NewScratch()
	for round, value := range []int64{1, 3, 3, 5, 2} {
		warm, st, errW := solveValue(nw, SSP, costs, sc, s, tt, value)
		cold, errC := nw.MinCostFlowValue(s, tt, value)
		if (errC == nil) != (errW == nil) {
			t.Fatalf("value %d: cold err %v, warm err %v", value, errC, errW)
		}
		if round > 0 && !st.WarmStart {
			t.Fatalf("value %d: value change fell back to a cold prepare", value)
		}
		if errC != nil {
			continue
		}
		if warm.Cost != cold.Cost {
			t.Fatalf("value %d: warm cost %d != cold %d (warm-start=%t)", value, warm.Cost, cold.Cost, st.WarmStart)
		}
	}
}

// TestIncrementalValueSweep is the property test for the incremental
// re-solve: random instances swept over ascending flow values must match a
// cold solve at every step (the SSP sensitivity argument — an optimal flow
// plus shortest-path augmentations of the delta stays optimal), and the
// incremental path must actually engage somewhere in the corpus. A
// descending sweep afterwards exercises the shrink fallback.
func TestIncrementalValueSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := NewScratch()
	incrementalHits := 0
	for i := 0; i < 60; i++ {
		nw, s, tt, maxV := randomInstance(rng)
		costs := arcCosts(nw)
		for value := int64(0); value <= maxV; value++ {
			warm, st, errW := solveValue(nw, SSP, costs, sc, s, tt, value)
			cold, errC := nw.MinCostFlowValue(s, tt, value)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("instance %d value %d: cold err %v, warm err %v", i, value, errC, errW)
			}
			if a := negativeReducedCost(sc); a >= 0 {
				t.Fatalf("instance %d value %d: arc %d has negative reduced cost after the solve", i, value, a)
			}
			if st.Incremental {
				incrementalHits++
			}
			if errC != nil {
				continue
			}
			if warm.Cost != cold.Cost {
				t.Fatalf("instance %d value %d: warm cost %d != cold %d (incremental=%t)",
					i, value, warm.Cost, cold.Cost, st.Incremental)
			}
			// CheckFeasible validates against current supplies; re-apply the
			// s→t value the solve used (it restores supplies on return).
			nw.AddSupply(s, value)
			nw.AddSupply(tt, -value)
			err := nw.CheckFeasible(warm)
			nw.AddSupply(s, -value)
			nw.AddSupply(tt, value)
			if err != nil {
				t.Fatalf("instance %d value %d: %v", i, value, err)
			}
		}
		for value := maxV; value >= 0; value-- {
			warm, st, errW := solveValue(nw, SSP, costs, sc, s, tt, value)
			cold, errC := nw.MinCostFlowValue(s, tt, value)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("instance %d value %d (down): cold err %v, warm err %v", i, value, errC, errW)
			}
			if a := negativeReducedCost(sc); a >= 0 {
				t.Fatalf("instance %d value %d (down): arc %d has negative reduced cost after the solve", i, value, a)
			}
			if errC == nil && warm.Cost != cold.Cost {
				t.Fatalf("instance %d value %d (down): warm cost %d != cold %d (incremental=%t)",
					i, value, warm.Cost, cold.Cost, st.Incremental)
			}
		}
	}
	if incrementalHits == 0 {
		t.Error("incremental path never engaged across the corpus")
	}
}

// randomLowerBoundInstance is randomInstance with lower bounds: a random DAG
// between s and t whose arcs each carry a lower bound of 1 with probability
// 1/4, plus the Unbounded s→t bypass, so the smallest feasible value is
// often positive and every larger one stays feasible.
func randomLowerBoundInstance(rng *rand.Rand) (*Network, int, int) {
	n := 3 + rng.Intn(7)
	nw := NewNetwork(n + 2)
	s, t := n, n+1
	arc := func(u, v int) {
		var lower int64
		if rng.Intn(4) == 0 {
			lower = 1
		}
		nw.MustArc(u, v, lower, lower+int64(1+rng.Intn(3)), int64(rng.Intn(11)-5))
	}
	for u := 0; u < n; u++ {
		arc(s, u)
		arc(u, t)
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				arc(u, v)
			}
		}
	}
	nw.MustArc(s, t, 0, Unbounded, 0)
	return nw, s, t
}

// TestValueClimbIsOneRoundPerUnit pins the staged solve on networks with
// lower bounds, where the lower-bound units take super arcs: on one retained
// scratch under fixed costs, the value climbs from the first feasible one.
// Every later step must continue the held flow with exactly one augmentation
// and return a fresh-scratch solve's flow, arc for arc.
func TestValueClimbIsOneRoundPerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	staged := 0
	for i := 0; i < 300; i++ {
		nw, s, tt := randomLowerBoundInstance(rng)
		costs := arcCosts(nw)
		sc := NewScratch()
		lo := int64(0)
		for ; lo <= 8; lo++ {
			if _, _, err := solveValue(nw, SSP, costs, sc, s, tt, lo); err == nil {
				break
			} else if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("instance %d value %d: %v", i, lo, err)
			}
		}
		if lo > 8 {
			continue // lower bounds no value satisfies
		}
		if lo > 0 {
			staged++
		}
		for value := lo + 1; value <= lo+6; value++ {
			warm, st, err := solveValue(nw, SSP, costs, sc, s, tt, value)
			if err != nil {
				t.Fatalf("instance %d value %d: %v", i, value, err)
			}
			if !st.Incremental || st.Augmentations != 1 {
				t.Fatalf("instance %d value %d (lowest %d): incremental=%t with %d augmentations, want one incremental round",
					i, value, lo, st.Incremental, st.Augmentations)
			}
			cold, _, err := solveValue(nw, SSP, costs, nil, s, tt, value)
			if err != nil {
				t.Fatalf("instance %d value %d: cold: %v", i, value, err)
			}
			if !slices.Equal(warm.FlowByArc, cold.FlowByArc) {
				t.Fatalf("instance %d value %d: climbed flow %v, cold %v", i, value, warm.FlowByArc, cold.FlowByArc)
			}
		}
	}
	if staged == 0 {
		t.Fatal("no instance had a positive lowest value")
	}
	t.Logf("%d of 300 instances had a positive lowest value", staged)
}

// TestPatchSuppliesFallback: a supply change re-prepares the topology,
// whether it creates an imbalance on a node that had none or shrinks one
// back to zero, and the solver stays correct across both.
func TestPatchSuppliesFallback(t *testing.T) {
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 0, 5, 2)
	nw.AddArc(1, 2, 0, 5, 1)
	nw.AddArc(1, 3, 0, 5, 4)
	nw.AddArc(2, 3, 0, 5, 1)
	nw.AddSupply(0, 3)
	nw.AddSupply(3, -3)
	costs := arcCosts(nw)
	sc := NewScratch()
	first, _, err := bflow(nw, SSP, costs, sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost != 3*(2+1+1) {
		t.Fatalf("first solve cost %d, want 12", first.Cost)
	}
	// Node 1 had zero imbalance: making it a source changes the supplies,
	// so this must re-prepare.
	nw.AddSupply(1, 2)
	nw.AddSupply(3, -2)
	second, st, err := bflow(nw, SSP, costs, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmStart {
		t.Error("new imbalance on an arc-less node claimed a warm start")
	}
	if want := first.Cost + 2*(1+1); second.Cost != want {
		t.Fatalf("second solve cost %d, want %d", second.Cost, want)
	}
	// Back to the original supplies: another re-prepare.
	nw.AddSupply(1, -2)
	nw.AddSupply(3, 2)
	third, _, err := bflow(nw, SSP, costs, sc)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cost != first.Cost {
		t.Fatalf("third solve cost %d, want %d", third.Cost, first.Cost)
	}
}

// TestSolveWithCostsInvalidatedByColdSolve: solving a different network on
// the same scratch overwrites the residual; the next solve of the first
// network must detect it and re-prepare (WarmStart false) rather than decode
// garbage.
func TestSolveWithCostsInvalidatedByColdSolve(t *testing.T) {
	sc := NewScratch()
	rng := rand.New(rand.NewSource(13))
	nwA, sA, tA, vA := randomInstance(rng)
	nwA.AddSupply(sA, vA)
	nwA.AddSupply(tA, -vA)
	nwB, sB, tB, vB := randomInstance(rng)
	nwB.AddSupply(sB, vB)
	nwB.AddSupply(tB, -vB)

	costsA := arcCosts(nwA)
	want, _, errWant := bflow(nwA, SSP, nil, nil)
	if _, _, err := bflow(nwA, SSP, costsA, sc); (err == nil) != (errWant == nil) {
		t.Fatalf("first warm solve: %v vs %v", err, errWant)
	}
	// A different network through the same scratch, on its own costs.
	if _, _, err := bflow(nwB, SSP, nil, sc); err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	got, st, err := bflow(nwA, SSP, costsA, sc)
	if (err == nil) != (errWant == nil) {
		t.Fatalf("re-solve after another network's solve: %v vs %v", err, errWant)
	}
	if err == nil {
		if st.WarmStart {
			t.Error("warm-start claimed after the scratch was overwritten")
		}
		if got.Cost != want.Cost {
			t.Fatalf("cost %d != %d after re-prepare", got.Cost, want.Cost)
		}
	}
}

// TestSolveWithCostsVectorLength rejects mismatched cost vectors.
func TestSolveWithCostsVectorLength(t *testing.T) {
	nw := NewNetwork(2)
	nw.MustArc(0, 1, 0, 5, 2)
	nw.AddSupply(0, 4)
	nw.AddSupply(1, -4)
	if _, _, err := bflow(nw, SSP, []int64{1, 2}, nil); err == nil {
		t.Fatal("oversized cost vector accepted")
	}
}

// TestInitPotentialsBellmanFordFallback: a capacitated cycle in the initial
// residual defeats the topological pass; the Bellman-Ford fallback must
// still produce a correct solve.
func TestInitPotentialsBellmanFordFallback(t *testing.T) {
	nw := NewNetwork(4)
	// Cycle 1 -> 2 -> 3 -> 1 with positive costs, plus a path 0 -> 1 -> 2.
	nw.MustArc(1, 2, 0, 5, 2)
	nw.MustArc(2, 3, 0, 5, 2)
	nw.MustArc(3, 1, 0, 5, 2)
	nw.MustArc(0, 1, 0, 5, 1)
	nw.AddSupply(0, 3)
	nw.AddSupply(2, -3)
	sol, _, err := bflow(nw, SSP, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 3*(1+2) {
		t.Fatalf("cost %d, want 9", sol.Cost)
	}
	cc, _, err := bflow(nw, CycleCancelling, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Cost != sol.Cost {
		t.Fatalf("cycle cancel cost %d != ssp %d", cc.Cost, sol.Cost)
	}
}
