package flow

import (
	"errors"
	"strings"
	"testing"
)

// A negative-cost cycle inside the capacity bounds used to panic deep in
// bellmanFord; it must instead surface as ErrNegativeCycle from the solve
// entry points.
func TestNegativeCycleReturnsError(t *testing.T) {
	// s=0, t=1; the cycle 2<->3 has total cost -1 within capacity.
	nw := NewNetwork(4)
	nw.MustArc(0, 2, 0, 1, 0)
	nw.MustArc(2, 3, 0, 5, -1)
	nw.MustArc(3, 2, 0, 5, 0)
	nw.MustArc(2, 1, 0, 1, 0)

	if _, err := nw.MinCostFlowValue(0, 1, 1); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
}

// The same malformed network through the Scratch-based entry point must also
// report the error, not crash, and leave the scratch reusable.
func TestNegativeCycleScratchReuse(t *testing.T) {
	nw := NewNetwork(4)
	nw.MustArc(0, 2, 0, 1, 0)
	nw.MustArc(2, 3, 0, 5, -1)
	nw.MustArc(3, 2, 0, 5, 0)
	nw.MustArc(2, 1, 0, 1, 0)

	var sc Scratch
	if _, _, err := solveValue(nw, SSP, nil, &sc, 0, 1, 1); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}

	// A well-formed network afterwards must solve cleanly with the same
	// scratch.
	ok := NewNetwork(2)
	ok.MustArc(0, 1, 0, 3, 2)
	sol, _, err := solveValue(ok, SSP, nil, &sc, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 6 {
		t.Fatalf("cost=%d, want 6", sol.Cost)
	}
}

// TestLowerBoundOnCycleIsNegativeCycle: a lower-bounded arc on a cycle of
// arcs with capacity makes that cycle negative under its penalty copy, so
// the solve reports ErrNegativeCycle even though the flow 0→1→2 meets the
// bound.
func TestLowerBoundOnCycleIsNegativeCycle(t *testing.T) {
	nw := NewNetwork(3)
	nw.MustArc(0, 1, 1, 1, 0)
	nw.MustArc(1, 0, 0, 1, 0)
	nw.MustArc(1, 2, 0, 1, 0)
	if _, err := nw.MinCostFlowValue(0, 2, 1); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
}

// TestPenaltyCostRangeGuard: on a network with a lower bound, a cost vector
// whose penalty could push a distance past infCost is rejected before any
// round, with an error that names the limit (±48038396025285290 on the 2
// residual nodes of a 2-node network); a cost at the limit solves, and so
// does the same cost without a lower bound, where no penalty applies.
func TestPenaltyCostRangeGuard(t *testing.T) {
	const limit = 48038396025285290
	bounded := NewNetwork(2)
	bounded.MustArc(0, 1, 1, 2, 0)
	free := NewNetwork(2)
	free.MustArc(0, 1, 0, 2, 0)
	_, _, err := solveValue(bounded, SSP, []int64{limit + 1}, nil, 0, 1, 1)
	if err == nil || errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "48038396025285290") {
		t.Fatalf("cost past the limit: err=%v, want an error naming the limit", err)
	}
	if _, _, err := solveValue(bounded, SSP, []int64{-limit - 1}, nil, 0, 1, 1); err == nil {
		t.Fatal("negative cost past the limit accepted")
	}
	sol, _, err := solveValue(bounded, SSP, []int64{-limit}, nil, 0, 1, 1)
	if err != nil || sol.Cost != -limit {
		t.Fatalf("cost at the limit: sol=%v err=%v", sol, err)
	}
	if _, _, err := solveValue(free, SSP, []int64{limit + 1}, nil, 0, 1, 1); err != nil {
		t.Fatalf("no lower bound: %v", err)
	}
}
