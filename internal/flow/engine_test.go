package flow

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineByName(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "ssp"},
		{"ssp", "ssp"},
		{"cyclecancel", "cyclecancel"},
		{"costscale", "costscale"},
	}
	for _, c := range cases {
		e, err := EngineByName(c.in)
		if err != nil {
			t.Errorf("EngineByName(%q): %v", c.in, err)
			continue
		}
		if e.Name() != c.want {
			t.Errorf("EngineByName(%q) = %q, want %q", c.in, e.Name(), c.want)
		}
	}
	// Only the canonical names resolve: case and hyphen variants are unknown.
	for _, bad := range []string{"simplex", "SSP", "cost-scaling"} {
		if _, err := EngineByName(bad); err == nil {
			t.Errorf("engine %q accepted", bad)
		} else if !strings.Contains(err.Error(), "ssp, cyclecancel, costscale") {
			t.Errorf("error %q does not list the canonical names", err)
		}
	}
}

// engines lists every engine for the cross-engine properties.
func engines() []Engine { return []Engine{SSP, CycleCancelling, CostScaling} }

// TestEnginesAgreeThroughInterface is the cross-engine agreement property
// driven through the exported Engine interface: every engine returns the same
// objective on random instances (and the same feasibility verdict).
func TestEnginesAgreeThroughInterface(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, s, tt, value := randomInstance(rng)
		ref, _, errRef := solveValue(nw, SSP, nil, nil, s, tt, value)
		for _, e := range engines()[1:] {
			sol, _, err := solveValue(nw, e, nil, nil, s, tt, value)
			if errRef != nil || err != nil {
				if !errors.Is(errRef, ErrInfeasible) || !errors.Is(err, ErrInfeasible) {
					return false
				}
				continue
			}
			if nw.CheckFeasible(sol, s, tt, value) != nil || sol.Cost != ref.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuseBitIdentical: solving with a reused Scratch must produce a
// Solution bit-identical to a fresh solver — same objective and the same flow
// on every arc — across random instances and all three engines — and each new
// network must re-prepare rather than claim a warm start. This is the
// contract that lets the pipeline keep one Scratch across many blocks.
func TestScratchReuseBitIdentical(t *testing.T) {
	for _, e := range engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			sc := NewScratch()
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200; i++ {
				nw, s, tt, value := randomInstance(rng)
				fresh, _, errF := solveValue(nw, e, nil, nil, s, tt, value)
				reused, st, errR := solveValue(nw, e, nil, sc, s, tt, value)
				if (errF == nil) != (errR == nil) {
					t.Fatalf("instance %d: fresh err %v, reused err %v", i, errF, errR)
				}
				if st.WarmStart {
					t.Fatalf("instance %d: a new network on a shared scratch claimed a warm start", i)
				}
				if errF != nil {
					if !errors.Is(errF, ErrInfeasible) || !errors.Is(errR, ErrInfeasible) {
						t.Fatalf("instance %d: unexpected errors %v / %v", i, errF, errR)
					}
					continue
				}
				if fresh.Cost != reused.Cost {
					t.Fatalf("instance %d: cost %d (fresh) != %d (reused)", i, fresh.Cost, reused.Cost)
				}
				if len(fresh.FlowByArc) != len(reused.FlowByArc) {
					t.Fatalf("instance %d: arc counts differ", i)
				}
				for a := range fresh.FlowByArc {
					if fresh.FlowByArc[a] != reused.FlowByArc[a] {
						t.Fatalf("instance %d arc %d: flow %d (fresh) != %d (reused)",
							i, a, fresh.FlowByArc[a], reused.FlowByArc[a])
					}
				}
			}
		})
	}
}

// TestSolveStatsPopulated checks each engine fills its own work counters.
func TestSolveStatsPopulated(t *testing.T) {
	build := func() *Network {
		nw := NewNetwork(4)
		nw.MustArc(0, 1, 0, 3, 1)
		nw.MustArc(1, 3, 0, 3, 1)
		nw.MustArc(0, 2, 0, 10, 5)
		nw.MustArc(2, 3, 0, 10, 5)
		return nw
	}
	for _, e := range engines() {
		sol, st, err := solveValue(build(), e, nil, NewScratch(), 0, 3, 5)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if sol.Cost != 3*2+2*10 {
			t.Fatalf("%s: cost %d", e.Name(), sol.Cost)
		}
		if st.Engine != e.Name() {
			t.Errorf("%s: stats engine %q", e.Name(), st.Engine)
		}
		if st.Duration <= 0 {
			t.Errorf("%s: duration %v", e.Name(), st.Duration)
		}
		switch e.Name() {
		case "ssp":
			if st.Augmentations == 0 || st.DijkstraIters == 0 || st.Phases == 0 {
				t.Errorf("ssp counters empty: %+v", st)
			}
		case "cyclecancel":
			if st.Phases == 0 {
				t.Errorf("cyclecancel counters empty: %+v", st)
			}
		case "costscale":
			if st.Pushes == 0 || st.Phases == 0 {
				t.Errorf("costscale counters empty: %+v", st)
			}
		}
		if s := st.String(); !strings.Contains(s, "engine="+e.Name()) {
			t.Errorf("stats string %q", s)
		}
	}
}

// TestSolveWithDefaults: nil engine, nil costs and nil scratch select SSP,
// the network's own arc costs and a private scratch.
func TestSolveWithDefaults(t *testing.T) {
	nw := NewNetwork(2)
	nw.MustArc(0, 1, 0, 5, 2)
	sol, st, err := solveValue(nw, nil, nil, nil, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 8 || st.Engine != "ssp" {
		t.Fatalf("cost %d engine %q", sol.Cost, st.Engine)
	}
}

// TestSolveWithLowerBounds drives lower bounds, priced by their penalty
// copies, through every engine via the one solve path.
func TestSolveWithLowerBounds(t *testing.T) {
	for _, e := range engines() {
		nw := NewNetwork(2)
		free := nw.MustArc(0, 1, 0, 10, 0)
		forced := nw.MustArc(0, 1, 2, 10, 100)
		sol, _, err := solveValue(nw, e, nil, NewScratch(), 0, 1, 5)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if sol.Flow(forced) != 2 || sol.Flow(free) != 3 || sol.Cost != 200 {
			t.Fatalf("%s: flows %v cost %d", e.Name(), sol.FlowByArc, sol.Cost)
		}
	}
}
