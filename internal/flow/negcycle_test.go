package flow

import (
	"errors"
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
	nw.SetSupply(0, 1)
	nw.SetSupply(1, -1)

	var sc Scratch
	if _, _, err := bflow(nw, SSP, nil, &sc); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}

	// A well-formed network afterwards must solve cleanly with the same
	// scratch.
	ok := NewNetwork(2)
	ok.MustArc(0, 1, 0, 3, 2)
	ok.SetSupply(0, 3)
	ok.SetSupply(1, -3)
	sol, _, err := bflow(ok, SSP, nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 6 {
		t.Fatalf("cost=%d, want 6", sol.Cost)
	}
}
