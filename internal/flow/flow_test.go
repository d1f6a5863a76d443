package flow

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustArc(t *testing.T, nw *Network, from, to int, lower, cap, cost int64) ArcID {
	t.Helper()
	id, err := nw.AddArc(from, to, lower, cap, cost)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// solveValue drives the one solve path with fresh result storage: value
// units from s to t, under costs (nil: the network's own) on scratch sc
// (nil: a cold solve).
func solveValue(nw *Network, e Engine, costs []int64, sc *Scratch, s, t int, value int64) (*Solution, *SolveStats, error) {
	sol, st := &Solution{}, &SolveStats{}
	err := nw.MinCostFlowValueWithCostsInto(e, costs, sc, s, t, value, sol, st)
	return sol, st, err
}

// lowerBounded counts the network's arcs with a positive lower bound.
func lowerBounded(nw *Network) int {
	n := 0
	for id := range nw.M() {
		if _, _, lower, _, _ := nw.Arc(ArcID(id)); lower > 0 {
			n++
		}
	}
	return n
}

func TestSimplePath(t *testing.T) {
	nw := NewNetwork(3)
	a := mustArc(t, nw, 0, 1, 0, 5, 2)
	b := mustArc(t, nw, 1, 2, 0, 5, 3)
	sol, err := nw.MinCostFlowValue(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(a) != 4 || sol.Flow(b) != 4 {
		t.Fatalf("flows %v", sol.FlowByArc)
	}
	if sol.Cost != 4*2+4*3 {
		t.Fatalf("cost %d, want 20", sol.Cost)
	}
	if err := nw.CheckFeasible(sol, 0, 2, 4); err != nil {
		t.Fatal(err)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 2-arc paths; the cheap one saturates first.
	nw := NewNetwork(4)
	cheap1 := mustArc(t, nw, 0, 1, 0, 3, 1)
	cheap2 := mustArc(t, nw, 1, 3, 0, 3, 1)
	exp1 := mustArc(t, nw, 0, 2, 0, 10, 5)
	exp2 := mustArc(t, nw, 2, 3, 0, 10, 5)
	sol, err := nw.MinCostFlowValue(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(cheap1) != 3 || sol.Flow(cheap2) != 3 {
		t.Fatalf("cheap path flow %d/%d, want 3", sol.Flow(cheap1), sol.Flow(cheap2))
	}
	if sol.Flow(exp1) != 2 || sol.Flow(exp2) != 2 {
		t.Fatalf("expensive path flow %d/%d, want 2", sol.Flow(exp1), sol.Flow(exp2))
	}
	if sol.Cost != 3*2+2*10 {
		t.Fatalf("cost %d, want 26", sol.Cost)
	}
}

func TestNegativeCostPreferred(t *testing.T) {
	// A negative-cost detour must be taken even though it is longer.
	nw := NewNetwork(4)
	direct := mustArc(t, nw, 0, 3, 0, 10, 0)
	d1 := mustArc(t, nw, 0, 1, 0, 1, 0)
	d2 := mustArc(t, nw, 1, 2, 0, 1, -7)
	d3 := mustArc(t, nw, 2, 3, 0, 1, 0)
	sol, err := nw.MinCostFlowValue(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(d1) != 1 || sol.Flow(d2) != 1 || sol.Flow(d3) != 1 {
		t.Fatalf("detour not used: %v", sol.FlowByArc)
	}
	if sol.Flow(direct) != 1 {
		t.Fatalf("direct flow %d, want 1", sol.Flow(direct))
	}
	if sol.Cost != -7 {
		t.Fatalf("cost %d, want -7", sol.Cost)
	}
}

func TestLowerBoundsForceFlow(t *testing.T) {
	// The expensive arc has a lower bound, so it must carry flow even though
	// a free arc exists.
	nw := NewNetwork(2)
	free := mustArc(t, nw, 0, 1, 0, 10, 0)
	forced := mustArc(t, nw, 0, 1, 2, 10, 100)
	sol, err := nw.MinCostFlowValue(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(forced) != 2 {
		t.Fatalf("forced arc flow %d, want exactly its lower bound 2", sol.Flow(forced))
	}
	if sol.Flow(free) != 3 {
		t.Fatalf("free arc flow %d, want 3", sol.Flow(free))
	}
	if sol.Cost != 200 {
		t.Fatalf("cost %d, want 200", sol.Cost)
	}
	if err := nw.CheckFeasible(sol, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasibleLowerBound(t *testing.T) {
	// Lower bound on a dead-end arc cannot be satisfied.
	nw := NewNetwork(3)
	mustArc(t, nw, 0, 1, 0, 5, 0)
	mustArc(t, nw, 2, 1, 3, 5, 0) // node 2 has no inflow
	if _, err := nw.MinCostFlowValue(0, 1, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

func TestInfeasibleValue(t *testing.T) {
	nw := NewNetwork(2)
	mustArc(t, nw, 0, 1, 0, 3, 1)
	if _, err := nw.MinCostFlowValue(0, 1, 4); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

func TestAddArcValidation(t *testing.T) {
	nw := NewNetwork(2)
	if _, err := nw.AddArc(0, 5, 0, 1, 0); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := nw.AddArc(0, 1, -1, 1, 0); err == nil {
		t.Error("negative lower bound accepted")
	}
	if _, err := nw.AddArc(0, 1, 3, 2, 0); err == nil {
		t.Error("capacity below lower bound accepted")
	}
}

func TestZeroFlow(t *testing.T) {
	nw := NewNetwork(2)
	mustArc(t, nw, 0, 1, 0, 3, -5)
	sol, err := nw.MinCostFlowValue(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Min-cost flow of value 0 on a DAG ships nothing, even on negative arcs
	// (no cycles exist, so no cost-reducing circulation).
	if sol.Cost != 0 {
		t.Fatalf("cost %d, want 0", sol.Cost)
	}
}

// TestSupplies: two supplies and one demand through a transshipment node,
// as a value from an added source node whose arcs into the two supply nodes
// carry their supplies as capacities.
func TestSupplies(t *testing.T) {
	nw := NewNetwork(5)
	a := mustArc(t, nw, 0, 2, 0, 10, 1)
	b := mustArc(t, nw, 1, 2, 0, 10, 2)
	c := mustArc(t, nw, 2, 3, 0, 10, 0)
	src := 4
	mustArc(t, nw, src, 0, 0, 3, 0)
	mustArc(t, nw, src, 1, 0, 2, 0)
	sol, err := nw.MinCostFlowValue(src, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(a) != 3 || sol.Flow(b) != 2 || sol.Flow(c) != 5 {
		t.Fatalf("flows %v", sol.FlowByArc)
	}
	if err := nw.CheckFeasible(sol, src, 3, 5); err != nil {
		t.Fatal(err)
	}
}

// dinicMax ships as much as Dinic can from s to t over a fresh residual of
// the network's arcs and returns the value and the flow on each arc.
func dinicMax(nw *Network, s, t int) (int64, []int64) {
	sc := NewScratch()
	sc.prepare(nw, s, t)
	v := dinic(sc, s, t, Unbounded)
	flows := make([]int64, nw.M())
	for i := range flows {
		flows[i] = sc.r.flowOn(2 * i)
	}
	return v, flows
}

// TestDinicClassic: Dinic, the reference engines' first step, finds the
// maximum flow of a classic diamond and conserves it.
func TestDinicClassic(t *testing.T) {
	// Classic 4-node diamond with a cross arc.
	nw := NewNetwork(4)
	mustArc(t, nw, 0, 1, 0, 3, 0)
	mustArc(t, nw, 0, 2, 0, 2, 0)
	mustArc(t, nw, 1, 2, 0, 5, 0)
	mustArc(t, nw, 1, 3, 0, 2, 0)
	mustArc(t, nw, 2, 3, 0, 3, 0)
	v, flows := dinicMax(nw, 0, 3)
	if v != 5 {
		t.Fatalf("max flow %d, want 5", v)
	}
	// Conservation at interior nodes.
	net := make([]int64, 4)
	for i := range flows {
		from, to, _, _, _ := nw.Arc(ArcID(i))
		net[from] += flows[i]
		net[to] -= flows[i]
	}
	if net[1] != 0 || net[2] != 0 {
		t.Fatalf("conservation violated: %v", net)
	}
	if net[0] != 5 || net[3] != -5 {
		t.Fatalf("endpoints: %v", net)
	}
}

func TestDinicDisconnected(t *testing.T) {
	nw := NewNetwork(4)
	mustArc(t, nw, 0, 1, 0, 3, 0)
	mustArc(t, nw, 2, 3, 0, 3, 0)
	if v, _ := dinicMax(nw, 0, 3); v != 0 {
		t.Fatalf("max flow %d, want 0", v)
	}
}

// randomInstance builds a random DAG flow network whose costs may be
// negative, as in the paper's energy networks.
func randomInstance(rng *rand.Rand) (*Network, int, int, int64) {
	n := 4 + rng.Intn(8)
	nw := NewNetwork(n + 2)
	s, t := n, n+1
	// Layered DAG: arcs from lower to higher node index.
	for u := 0; u < n; u++ {
		nw.MustArc(s, u, 0, int64(1+rng.Intn(3)), int64(rng.Intn(7)-3))
		nw.MustArc(u, t, 0, int64(1+rng.Intn(3)), int64(rng.Intn(7)-3))
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				nw.MustArc(u, v, 0, int64(1+rng.Intn(4)), int64(rng.Intn(11)-5))
			}
		}
	}
	// Bypass arc keeps every flow value feasible.
	nw.MustArc(s, t, 0, Unbounded, 0)
	value := int64(1 + rng.Intn(6))
	return nw, s, t, value
}

// TestSSPMatchesCycleCancelling cross-checks the two independent min-cost
// flow engines on random instances: identical objective values.
func TestSSPMatchesCycleCancelling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, s, tt, value := randomInstance(rng)
		a, _, errA := solveValue(nw, SSP, nil, nil, s, tt, value)
		b, _, errB := solveValue(nw, CycleCancelling, nil, nil, s, tt, value)
		if errA != nil || errB != nil {
			return errors.Is(errA, ErrInfeasible) && errors.Is(errB, ErrInfeasible)
		}
		if nw.CheckFeasible(a, s, tt, value) != nil || nw.CheckFeasible(b, s, tt, value) != nil {
			return false
		}
		return a.Cost == b.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomSupplyNetwork builds a random network of unit-capacity arcs with
// negative costs, lower bounds and cycles, and two to four supply nodes and
// as many demand nodes, each supply node joined to each demand node by a
// costly Unbounded bypass arc. The supplies and demands become an s→t
// value: an added source node feeds each supply node through an arc whose
// capacity is its supply, each demand node drains into an added sink node
// the same way, and the value is their total, so every flow of the value
// meets them exactly and the supplies themselves never make a network
// infeasible. With acyclic set it keeps only the arcs from a lower node
// index to a higher one and numbers the supply nodes below the demand
// nodes: a DAG, on which lower bounds make no negative cycle.
func randomSupplyNetwork(rng *rand.Rand, acyclic bool) (nw *Network, s, t int, value int64) {
	n := 8 + rng.Intn(10)
	nw = NewNetwork(n + 2)
	s, t = n, n+1
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Intn(2) != 0 || acyclic && u > v {
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
	if acyclic {
		slices.Sort(perm[:2*k])
	}
	for i := 0; i < k; i++ {
		src, dst := perm[i], perm[k+i]
		b := int64(1 + rng.Intn(3))
		nw.MustArc(s, src, 0, b, 0)
		nw.MustArc(dst, t, 0, b, 0)
		value += b
		for j := 0; j < k; j++ {
			nw.MustArc(src, perm[k+j], 0, Unbounded, 20)
		}
	}
	return nw, s, t, value
}

// TestSSPMatchesCostScaling cross-checks the third engine (cost-scaling
// push-relabel) against SSP on random instances, then on fixed corpora of
// random supply networks, cyclic and acyclic, where several Unbounded bypass
// arcs meet at each demand node. Networks SSP rejects for a negative cycle
// are skipped; nearly every cyclic one has a lower-bounded arc on a cycle,
// so the acyclic corpus carries the comparison.
func TestSSPMatchesCostScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, s, tt, value := randomInstance(rng)
		a, _, errA := solveValue(nw, SSP, nil, nil, s, tt, value)
		b, _, errB := solveValue(nw, CostScaling, nil, nil, s, tt, value)
		if errA != nil || errB != nil {
			return errors.Is(errA, ErrInfeasible) && errors.Is(errB, ErrInfeasible)
		}
		if nw.CheckFeasible(b, s, tt, value) != nil {
			return false
		}
		return a.Cost == b.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	for _, acyclic := range []bool{false, true} {
		rng := rand.New(rand.NewSource(23))
		compared := 0
		for i := 0; i < 3000; i++ {
			nw, s, tt, value := randomSupplyNetwork(rng, acyclic)
			a, _, errA := solveValue(nw, SSP, nil, nil, s, tt, value)
			if errors.Is(errA, ErrNegativeCycle) {
				if acyclic {
					t.Fatalf("acyclic network %d: %v", i, errA)
				}
				continue
			}
			b, _, errB := solveValue(nw, CostScaling, nil, nil, s, tt, value)
			if errA != nil || errB != nil {
				if !errors.Is(errA, ErrInfeasible) || !errors.Is(errB, ErrInfeasible) {
					t.Fatalf("network %d (acyclic %t): ssp err %v, costscale err %v", i, acyclic, errA, errB)
				}
				continue
			}
			if err := nw.CheckFeasible(b, s, tt, value); err != nil {
				t.Fatalf("network %d (acyclic %t): costscale flow: %v", i, acyclic, err)
			}
			if a.Cost != b.Cost {
				t.Fatalf("network %d (acyclic %t): costscale cost %d, ssp %d", i, acyclic, b.Cost, a.Cost)
			}
			compared++
		}
		t.Logf("%d of 3000 supply networks (acyclic %t) feasible and compared", compared, acyclic)
	}
}

// TestCostScalingLowerBounds exercises lower bounds, priced by their penalty
// copies, through the cost-scaling engine.
func TestCostScalingLowerBounds(t *testing.T) {
	nw := NewNetwork(2)
	free := nw.MustArc(0, 1, 0, 10, 0)
	forced := nw.MustArc(0, 1, 2, 10, 100)
	sol, _, err := solveValue(nw, CostScaling, nil, nil, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Flow(forced) != 2 || sol.Flow(free) != 3 {
		t.Fatalf("flows %v", sol.FlowByArc)
	}
	if sol.Cost != 200 {
		t.Fatalf("cost %d", sol.Cost)
	}
}

func TestCostScalingZeroFlow(t *testing.T) {
	nw := NewNetwork(2)
	nw.MustArc(0, 1, 0, 3, -5)
	sol, _, err := solveValue(nw, CostScaling, nil, nil, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("cost %d", sol.Cost)
	}
}

// TestSolutionIntegrality: with integer data every flow is integral by
// construction; assert bounds and conservation hold on random instances.
func TestSolutionFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, s, tt, value := randomInstance(rng)
		sol, err := nw.MinCostFlowValue(s, tt, value)
		if err != nil {
			return false // bypass arc guarantees feasibility
		}
		return nw.CheckFeasible(sol, s, tt, value) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneCostInValue: on networks with non-negative costs, the optimal
// cost is non-decreasing in the flow value.
func TestMonotoneCostInValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		nw := NewNetwork(n + 2)
		s, tt := n, n+1
		for u := 0; u < n; u++ {
			nw.MustArc(s, u, 0, 2, int64(rng.Intn(5)))
			nw.MustArc(u, tt, 0, 2, int64(rng.Intn(5)))
			for v := u + 1; v < n; v++ {
				nw.MustArc(u, v, 0, 2, int64(rng.Intn(5)))
			}
		}
		prev := int64(-1)
		for f := int64(0); f <= 4; f++ {
			sol, err := nw.MinCostFlowValue(s, tt, f)
			if err != nil {
				return false
			}
			if sol.Cost < prev {
				return false
			}
			prev = sol.Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMinCost enumerates all integral flows on a tiny network by
// recursing over arc flow values, each arc from its lower bound to its
// capacity, and returns the optimal cost of shipping value units from s to
// t, or false when no flow ships them.
func bruteForceMinCost(nw *Network, s, t int, value int64) (int64, bool) {
	m := nw.M()
	flows := make([]int64, m)
	net := make([]int64, nw.N())
	best := int64(1) << 62
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			clear(net)
			var cost int64
			for j := 0; j < m; j++ {
				from, to, _, _, c := nw.Arc(ArcID(j))
				net[from] += flows[j]
				net[to] -= flows[j]
				cost += flows[j] * c
			}
			net[s] -= value
			net[t] += value
			for v := 0; v < nw.N(); v++ {
				if net[v] != 0 {
					return
				}
			}
			if cost < best {
				best = cost
				found = true
			}
			return
		}
		_, _, lo, hi, _ := nw.Arc(ArcID(i))
		for f := lo; f <= hi; f++ {
			flows[i] = f
			rec(i + 1)
		}
		flows[i] = 0
	}
	rec(0)
	return best, found
}

// TestOptimalityAgainstBruteForce certifies SSP optimality by exhaustive
// enumeration on tiny random instances.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		nw := NewNetwork(n + 2)
		s, tt := n, n+1
		for u := 0; u < n; u++ {
			if rng.Intn(2) == 0 {
				nw.MustArc(s, u, 0, int64(1+rng.Intn(2)), int64(rng.Intn(9)-4))
			}
			if rng.Intn(2) == 0 {
				nw.MustArc(u, tt, 0, int64(1+rng.Intn(2)), int64(rng.Intn(9)-4))
			}
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					nw.MustArc(u, v, 0, int64(1+rng.Intn(2)), int64(rng.Intn(9)-4))
				}
			}
		}
		nw.MustArc(s, tt, 0, 3, 0)
		value := int64(1 + rng.Intn(3))
		want, feasible := bruteForceMinCost(nw, s, tt, value)
		sol, err := nw.MinCostFlowValue(s, tt, value)
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		return sol.Cost == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundsAgainstBruteForce extends the certification to instances
// with lower bounds.
func TestLowerBoundsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		nw := NewNetwork(n + 2)
		s, tt := n, n+1
		for u := 0; u < n; u++ {
			lo := int64(rng.Intn(2))
			nw.MustArc(s, u, 0, 2, int64(rng.Intn(7)-3))
			nw.MustArc(u, tt, lo, 2, int64(rng.Intn(7)-3))
			for v := u + 1; v < n; v++ {
				nw.MustArc(u, v, int64(rng.Intn(2)), 2, int64(rng.Intn(7)-3))
			}
		}
		nw.MustArc(s, tt, 0, 6, 0)
		value := int64(2 + rng.Intn(3))
		want, feasible := bruteForceMinCost(nw, s, tt, value)
		sol, err := nw.MinCostFlowValue(s, tt, value)
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		return sol.Cost == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// randomBoundedDAG builds a tiny random DAG between s and t: three inner
// nodes, arcs from s, into t and from lower to higher inner node each
// present with probability 2/3, each with a lower bound of 0, 1 or 2 and
// one or two units of room above it, and an s→t bypass of capacity 6. An arc
// out of a node nothing enters, or into one nothing leaves, carries a lower
// bound no value satisfies.
func randomBoundedDAG(rng *rand.Rand) (*Network, int, int) {
	const n = 3
	nw := NewNetwork(n + 2)
	s, t := n, n+1
	arc := func(u, v int) {
		if rng.Intn(3) == 0 {
			return
		}
		lower := int64([]int{0, 0, 0, 0, 1, 2}[rng.Intn(6)])
		nw.MustArc(u, v, lower, lower+int64(1+rng.Intn(2)), int64(rng.Intn(11)-5))
	}
	for u := 0; u < n; u++ {
		arc(s, u)
		arc(u, t)
		for v := u + 1; v < n; v++ {
			arc(u, v)
		}
	}
	nw.MustArc(s, t, 0, 6, 0)
	return nw, s, t
}

// TestPenaltyCopiesAgainstBruteForce pins the penalty pricing to an oracle
// that shares none of it: on random DAGs with lower bounds, for every value
// from 0 to 6, the brute-force enumeration of each arc within its real
// bounds decides feasibility and the optimum cost. A cold solve with each
// engine, and SSP climbing the values on one retained scratch (through late
// infeasible verdicts), must return that verdict and cost, and a feasible
// flow. The corpus must hold values infeasible before a feasible one and
// networks no value satisfies.
func TestPenaltyCopiesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lateThenFeasible, neverFeasible := 0, 0
	for i := 0; i < 300; i++ {
		nw, s, tt := randomBoundedDAG(rng)
		if lowerBounded(nw) == 0 {
			continue
		}
		sc := NewScratch()
		infeasibleBefore, feasibleAny := false, false
		for value := int64(0); value <= 6; value++ {
			want, feasible := bruteForceMinCost(nw, s, tt, value)
			check := func(name string, sol *Solution, err error) {
				t.Helper()
				if !feasible {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("network %d value %d, %s: err %v, want ErrInfeasible", i, value, name, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("network %d value %d, %s: %v (oracle cost %d)", i, value, name, err, want)
				}
				if sol.Cost != want {
					t.Fatalf("network %d value %d, %s: cost %d, oracle %d", i, value, name, sol.Cost, want)
				}
				if err := nw.CheckFeasible(sol, s, tt, value); err != nil {
					t.Fatalf("network %d value %d, %s: %v", i, value, name, err)
				}
			}
			for _, e := range engines() {
				sol, _, err := solveValue(nw, e, nil, nil, s, tt, value)
				check(e.Name(), sol, err)
			}
			sol, _, err := solveValue(nw, SSP, nil, sc, s, tt, value)
			check("climb", sol, err)
			if feasible && infeasibleBefore && !feasibleAny {
				lateThenFeasible++
			}
			infeasibleBefore = infeasibleBefore || !feasible
			feasibleAny = feasibleAny || feasible
		}
		if !feasibleAny {
			neverFeasible++
		}
	}
	if lateThenFeasible == 0 || neverFeasible == 0 {
		t.Fatalf("%d networks turned feasible after an infeasible value, %d had no feasible value; want both", lateThenFeasible, neverFeasible)
	}
	t.Logf("%d networks turned feasible after an infeasible value, %d had no feasible value", lateThenFeasible, neverFeasible)
}

func TestCheckFeasibleDetectsViolations(t *testing.T) {
	nw := NewNetwork(2)
	id := mustArc(t, nw, 0, 1, 1, 3, 2)

	good := &Solution{FlowByArc: []int64{2}, Cost: 4}
	if err := nw.CheckFeasible(good, 0, 1, 2); err != nil {
		t.Fatalf("good solution rejected: %v", err)
	}
	cases := []*Solution{
		{FlowByArc: []int64{0}, Cost: 0},    // below lower bound
		{FlowByArc: []int64{4}, Cost: 8},    // above capacity
		{FlowByArc: []int64{3}, Cost: 6},    // ships more than the value
		{FlowByArc: []int64{2}, Cost: 5},    // wrong cost
		{FlowByArc: []int64{2, 2}, Cost: 4}, // wrong arc count
	}
	for i, bad := range cases {
		if err := nw.CheckFeasible(bad, 0, 1, 2); err == nil {
			t.Errorf("case %d: bad solution accepted (arc %d)", i, id)
		}
	}
	if err := nw.CheckFeasible(good, 0, 1, 3); err == nil {
		t.Error("flow short of the value accepted")
	}
	if err := nw.CheckFeasible(good, -1, 1, 2); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestMinCostFlowValueBadArgs(t *testing.T) {
	nw := NewNetwork(2)
	if _, err := nw.MinCostFlowValue(0, 1, -1); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := nw.MinCostFlowValue(0, 9, 1); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}
