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
// scratch, unchanged in costs and value, must keep the first one's flow: an
// incremental solve of a zero delta on the held potentials.
func TestSolveWithCostsMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := NewScratch()
	for i := 0; i < 100; i++ {
		nw, s, tt, value := randomInstance(rng)
		costs := arcCosts(nw)
		cold, _, errC := solveValue(nw, SSP, nil, nil, s, tt, value)
		for round := 0; round < 2; round++ {
			warm, st, errW := solveValue(nw, SSP, costs, sc, s, tt, value)
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
			if err := nw.CheckFeasible(warm, s, tt, value); err != nil {
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
// networks solved with SSP cold, SSP warm-started after a
// perturb-then-restore cost round trip, and cycle cancelling must all agree
// on the optimal cost. The perturbed intermediate solve leaves the scratch
// holding another cost vector's optimum, so the restore solve must take the
// full re-solve from fresh potentials, not the incremental path.
func TestWarmStartPropertyAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		nw, s, tt, value := randomInstance(rng)
		costs := arcCosts(nw)

		cold, _, errCold := solveValue(nw, SSP, nil, nil, s, tt, value)
		cc, _, errCC := solveValue(nw, CycleCancelling, nil, nil, s, tt, value)

		// Perturb every cost, solve, then restore and re-solve warm.
		perturbed := make([]int64, len(costs))
		for a := range perturbed {
			perturbed[a] = costs[a] + int64(rng.Intn(9)-4)
		}
		if _, _, err := solveValue(nw, SSP, perturbed, sc, s, tt, value); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("instance %d: perturbed solve: %v", i, err)
		}
		warm, wst, errWarm := solveValue(nw, SSP, costs, sc, s, tt, value)

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
		if err := nw.CheckFeasible(warm, s, tt, value); err != nil {
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
				costs := arcCosts(nw)
				ref, _, errRef := solveValue(nw, SSP, nil, nil, s, tt, value)
				for round := 0; round < 2; round++ {
					sol, _, err := solveValue(nw, e, costs, sc, s, tt, value)
					if (errRef == nil) != (err == nil) {
						t.Fatalf("instance %d: ref err %v, %s err %v", i, errRef, e.Name(), err)
					}
					if errRef != nil {
						break
					}
					if sol.Cost != ref.Cost {
						t.Fatalf("instance %d round %d: cost %d != ref %d", i, round, sol.Cost, ref.Cost)
					}
					if err := nw.CheckFeasible(sol, s, tt, value); err != nil {
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
		costs := arcCosts(nw)
		cold, _, errCold := solveValue(nw, SSP, costs, nil, s, tt, value)
		for _, e := range engines() {
			if _, _, err := solveValue(nw, e, costs, sc, s, tt, value); (err == nil) != (errCold == nil) {
				t.Fatalf("instance %d: %s err %v, cold err %v", i, e.Name(), err, errCold)
			}
			r := &sc.r
			if len(r.to) != len(sc.prep.initCap) || r.dirty || len(r.start) != r.n+1 {
				t.Fatalf("instance %d: after %s the residual holds %d arcs (prepared %d), dirty=%t, %d CSR offsets for %d nodes",
					i, e.Name(), len(r.to), len(sc.prep.initCap), r.dirty, len(r.start), r.n)
			}
			warm, _, err := solveValue(nw, SSP, costs, sc, s, tt, value)
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
// prepared topology and still solves correctly at each value.
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
			if err := nw.CheckFeasible(warm, s, tt, value); err != nil {
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

// firstFeasible solves on sc for the values from, from+1, … up to most and
// returns the first that is feasible, or -1 when none is.
func firstFeasible(t *testing.T, nw *Network, costs []int64, sc *Scratch, s, tt int, from, most int64) int64 {
	t.Helper()
	for v := from; v <= most; v++ {
		_, _, err := solveValue(nw, SSP, costs, sc, s, tt, v)
		if err == nil {
			return v
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("value %d: %v", v, err)
		}
	}
	return -1
}

// TestValueClimbIsOneRoundPerUnit pins the staged solve on networks with
// lower bounds, priced by penalty copies: on one retained scratch under
// fixed costs, the value climbs from the first feasible one.
// Every later step must continue the held flow with exactly one augmentation
// and return a fresh-scratch solve's flow, arc for arc.
func TestValueClimbIsOneRoundPerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	staged := 0
	for i := 0; i < 300; i++ {
		nw, s, tt := randomLowerBoundInstance(rng)
		costs := arcCosts(nw)
		sc := NewScratch()
		lo := firstFeasible(t, nw, costs, sc, s, tt, 0, 8)
		if lo < 0 {
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

// TestLateInfeasibleVerdictIsContinued: a value too small for the lower
// bounds fails only after its rounds, when a penalty copy keeps capacity.
// The scratch holds that flow, cold's state after those rounds, so the next
// larger value under the same costs must continue it incrementally with one
// augmentation and return a fresh-scratch solve's verdict and flow, arc for
// arc.
func TestLateInfeasibleVerdictIsContinued(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	continued := 0
	for i := 0; i < 300; i++ {
		nw, s, tt := randomLowerBoundInstance(rng)
		costs := arcCosts(nw)
		sc := NewScratch()
		_, _, err := solveValue(nw, SSP, costs, sc, s, tt, 0)
		for value := int64(1); errors.Is(err, ErrInfeasible) && value <= 8; value++ {
			var warm *Solution
			var st *SolveStats
			warm, st, err = solveValue(nw, SSP, costs, sc, s, tt, value)
			if !st.Incremental || st.Augmentations != 1 {
				t.Fatalf("instance %d value %d: after an infeasible value, incremental=%t with %d augmentations, want one incremental round",
					i, value, st.Incremental, st.Augmentations)
			}
			cold, _, errC := solveValue(nw, SSP, costs, nil, s, tt, value)
			if (err == nil) != (errC == nil) {
				t.Fatalf("instance %d value %d: continued err %v, cold err %v", i, value, err, errC)
			}
			if err == nil && !slices.Equal(warm.FlowByArc, cold.FlowByArc) {
				t.Fatalf("instance %d value %d: continued flow %v, cold %v", i, value, warm.FlowByArc, cold.FlowByArc)
			}
			continued++
		}
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if continued == 0 {
		t.Fatal("no solve followed an infeasible value")
	}
	t.Logf("%d solves continued an infeasible value's flow", continued)
}

// TestEndpointChangeReprepares: on one network and one scratch, a solve
// from s to t, then from another source s′ to t, then from s to t again.
// The endpoints are all that changes, so each change must re-prepare rather
// than continue the held flow, and return a fresh scratch's flow arc for
// arc; a repeat with unchanged endpoints stays warm.
func TestEndpointChangeReprepares(t *testing.T) {
	nw := NewNetwork(4)
	nw.MustArc(0, 1, 0, 5, 2)
	nw.MustArc(1, 2, 0, 5, 1)
	nw.MustArc(1, 3, 0, 5, 4)
	nw.MustArc(2, 3, 1, 5, 1)
	costs := arcCosts(nw)
	sc := NewScratch()
	steps := []struct {
		s    int
		cost int64
		warm bool
	}{
		{0, 3 * (2 + 1 + 1), false},
		{1, 3 * (1 + 1), false},
		{0, 3 * (2 + 1 + 1), false},
		{0, 3 * (2 + 1 + 1), true},
	}
	for i, step := range steps {
		got, st, err := solveValue(nw, SSP, costs, sc, step.s, 3, 3)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.WarmStart != step.warm {
			t.Fatalf("step %d (source %d): warm=%t, want %t", i, step.s, st.WarmStart, step.warm)
		}
		if got.Cost != step.cost {
			t.Fatalf("step %d (source %d): cost %d, want %d", i, step.s, got.Cost, step.cost)
		}
		fresh, _, err := solveValue(nw, SSP, costs, NewScratch(), step.s, 3, 3)
		if err != nil {
			t.Fatalf("step %d: fresh: %v", i, err)
		}
		if !slices.Equal(got.FlowByArc, fresh.FlowByArc) {
			t.Fatalf("step %d (source %d): flow %v, fresh scratch %v", i, step.s, got.FlowByArc, fresh.FlowByArc)
		}
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
	nwB, sB, tB, vB := randomInstance(rng)

	costsA := arcCosts(nwA)
	want, _, errWant := solveValue(nwA, SSP, nil, nil, sA, tA, vA)
	if _, _, err := solveValue(nwA, SSP, costsA, sc, sA, tA, vA); (err == nil) != (errWant == nil) {
		t.Fatalf("first warm solve: %v vs %v", err, errWant)
	}
	// A different network through the same scratch, on its own costs.
	if _, _, err := solveValue(nwB, SSP, nil, sc, sB, tB, vB); err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	got, st, err := solveValue(nwA, SSP, costsA, sc, sA, tA, vA)
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
	if _, _, err := solveValue(nw, SSP, []int64{1, 2}, nil, 0, 1, 4); err == nil {
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
	sol, _, err := solveValue(nw, SSP, nil, nil, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 3*(1+2) {
		t.Fatalf("cost %d, want 9", sol.Cost)
	}
	cc, _, err := solveValue(nw, CycleCancelling, nil, nil, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Cost != sol.Cost {
		t.Fatalf("cycle cancel cost %d != ssp %d", cc.Cost, sol.Cost)
	}
}
