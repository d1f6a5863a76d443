package core_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

// TestPreparedMatchesColdAllocate sweeps register counts and cost models
// through one Prepared problem and checks every solve against a fresh cold
// allocation: identical energies, counts and feasibility. This is the
// warm-vs-cold contract the sweep package relies on.
func TestPreparedMatchesColdAllocate(t *testing.T) {
	set := workload.Figure1()
	h := energy.ConstHamming(0.5)
	for _, mem := range []lifetime.MemoryAccess{lifetime.FullSpeed, {Period: 2, Offset: 2}} {
		opts := core.Options{
			Memory: mem,
			Style:  netbuild.DensityRegions,
			Cost:   staticCO(),
		}
		pre, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, co := range []netbuild.CostOptions{staticCO(), activityCO(h)} {
			for regs := 0; regs <= 4; regs++ {
				warm, errW := pre.Allocate(regs, co)
				coldOpts := opts
				coldOpts.Registers = regs
				coldOpts.Cost = co
				cold, errC := core.Allocate(set, coldOpts)
				if (errW == nil) != (errC == nil) {
					t.Fatalf("mem=%+v co=%v R=%d: warm err %v, cold err %v", mem, co.Style, regs, errW, errC)
				}
				if errW != nil {
					continue
				}
				if math.Abs(warm.TotalEnergy-cold.TotalEnergy) > 1e-9 {
					t.Errorf("mem=%+v co=%v R=%d: warm energy %g, cold %g",
						mem, co.Style, regs, warm.TotalEnergy, cold.TotalEnergy)
				}
				if warm.Solution.Cost != cold.Solution.Cost {
					t.Errorf("mem=%+v co=%v R=%d: warm objective %d, cold %d",
						mem, co.Style, regs, warm.Solution.Cost, cold.Solution.Cost)
				}
				if warm.BaselineEnergy != cold.BaselineEnergy {
					t.Errorf("mem=%+v co=%v R=%d: baselines differ: %g vs %g",
						mem, co.Style, regs, warm.BaselineEnergy, cold.BaselineEnergy)
				}
				if err := warm.Validate(); err != nil {
					t.Errorf("mem=%+v co=%v R=%d: warm result invalid: %v", mem, co.Style, regs, err)
				}
			}
		}
	}
}

// TestPreparedAnswersEqualCold is the byte-for-byte half of that contract.
// On random lifetime sets, one Prepared per set serves a random walk of
// register counts, up and down, under static and activity costs in random
// order, at memory divisor 1 or 2. Every answer, whether from a full warm
// re-solve or the incremental path, must equal a cold core.Allocate's: the
// flow on every arc, and every segment's residence and register.
func TestPreparedAnswersEqualCold(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	models := []netbuild.CostOptions{staticCO(), activityCO(energy.ConstHamming(0.5))}
	answers, incremental := 0, 0
	for i := 0; i < 300; i++ {
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 4 + rng.Intn(14), Steps: 6 + rng.Intn(10), MaxReads: 3, ExternalFrac: 0.2, InputFrac: 0.2,
		})
		div := 1 + rng.Intn(2)
		opts := core.Options{
			Memory: lifetime.MemoryAccess{Period: div, Offset: div},
			Style:  netbuild.DensityRegions,
			Cost:   staticCO(),
		}
		pre, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		regs := 1 + rng.Intn(6)
		for call := 0; call < 10; call++ {
			regs = min(max(regs+rng.Intn(5)-2, 0), 6)
			co := models[rng.Intn(len(models))]
			warm, errW := pre.Allocate(regs, co)
			coldOpts := opts
			coldOpts.Registers = regs
			coldOpts.Cost = co
			cold, errC := core.Allocate(set, coldOpts)
			if (errW == nil) != (errC == nil) {
				t.Fatalf("set %d call %d R=%d: warm err %v, cold err %v", i, call, regs, errW, errC)
			}
			if errW != nil {
				continue
			}
			answers++
			if warm.Stats.Solver.Incremental {
				incremental++
			}
			if !slices.Equal(warm.Solution.FlowByArc, cold.Solution.FlowByArc) ||
				!slices.Equal(warm.InRegister, cold.InRegister) || !slices.Equal(warm.RegOf, cold.RegOf) {
				t.Errorf("set %d call %d R=%d div=%d co=%v (incremental=%t): warm answer differs from cold\n warm flow %v regs %v\n cold flow %v regs %v",
					i, call, regs, div, co.Style, warm.Stats.Solver.Incremental,
					warm.Solution.FlowByArc, warm.RegOf, cold.Solution.FlowByArc, cold.RegOf)
			}
		}
	}
	if incremental == 0 || incremental == answers {
		t.Fatalf("%d of %d answers incremental; want both paths exercised", incremental, answers)
	}
}

// TestPreparedRSPClimbIsOneAugmentation: on the radar kernel at memory
// divisors 2 and 4, whose forced register residences put lower bounds on
// the network, raising R from 13 to 14 under one static view continues the
// held optimum with one incremental augmentation, and the answer is a cold
// allocation's.
func TestPreparedRSPClimbIsOneAugmentation(t *testing.T) {
	set, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		t.Fatal(err)
	}
	regs := workload.Table1Registers
	for _, div := range []int{2, 4} {
		opts := core.Options{
			Memory: lifetime.MemoryAccess{Period: div, Offset: div},
			Style:  netbuild.DensityRegions,
			Cost:   staticCO(),
		}
		pre, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if lowerBounded(pre.Template().Build.Net) == 0 {
			t.Fatalf("div=%d: no forced segment", div)
		}
		view, err := pre.CostView(staticCO())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pre.AllocateView(regs, view); err != nil {
			t.Fatalf("div=%d R=%d: %v", div, regs, err)
		}
		warm, err := pre.AllocateView(regs+1, view)
		if err != nil {
			t.Fatalf("div=%d R=%d: %v", div, regs+1, err)
		}
		if st := warm.Stats.Solver; !st.Incremental || st.Augmentations != 1 {
			t.Errorf("div=%d R=%d→%d: incremental=%t with %d augmentations, want one incremental augmentation",
				div, regs, regs+1, st.Incremental, st.Augmentations)
		}
		coldOpts := opts
		coldOpts.Registers = regs + 1
		cold, err := core.Allocate(set, coldOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(warm.Solution.FlowByArc, cold.Solution.FlowByArc) {
			t.Errorf("div=%d R=%d: climbed answer differs from cold", div, regs+1)
		}
	}
}

// TestPreparedMatchesCycleCancelling cross-checks the warm-started optimum
// against the independent cold-start cycle-cancelling engine, solving the
// template's own network under the same cost vector, on every cell of a
// register × cost-model grid — the paper's optimality guarantee must
// survive the warm start.
func TestPreparedMatchesCycleCancelling(t *testing.T) {
	set := workload.Figure1()
	opts := core.Options{Style: netbuild.DensityRegions, Cost: staticCO()}
	pre, err := core.Prepare(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := pre.Template().Build
	for _, co := range []netbuild.CostOptions{staticCO(), activityCO(energy.ConstHamming(0.3))} {
		costs, _, err := pre.Template().CostVector(co)
		if err != nil {
			t.Fatal(err)
		}
		for regs := 0; regs <= 4; regs++ {
			warm, errW := pre.Allocate(regs, co)
			var cc flow.Solution
			var st flow.SolveStats
			errC := b.Net.MinCostFlowValueWithCostsInto(flow.CycleCancelling, costs, nil, b.S, b.T, int64(regs), &cc, &st)
			if (errW == nil) != (errC == nil) {
				t.Fatalf("co=%v R=%d: warm err %v, cyclecancel err %v", co.Style, regs, errW, errC)
			}
			if errW != nil {
				continue
			}
			if warm.Solution.Cost != cc.Cost {
				t.Errorf("co=%v R=%d: warm objective %d, cyclecancel %d",
					co.Style, regs, warm.Solution.Cost, cc.Cost)
			}
		}
	}
}

// TestPreparedWarmStartObserved: repeating a register count must hit the
// solver's warm path, and repeating the same cost model must eventually
// reuse potentials.
func TestPreparedWarmStartObserved(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{Style: netbuild.DensityRegions, Cost: staticCO()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(2, staticCO()); err != nil {
		t.Fatal(err)
	}
	res, err := pre.Allocate(2, staticCO())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Solver.WarmStart {
		t.Error("second identical solve did not warm-start")
	}
	if !res.Stats.Solver.Incremental {
		t.Error("second identical solve did not continue the held flow")
	}
	// Changing R changes only the value, not the network: the prepared
	// topology is reused, and the solve still counts as warm.
	res3, err := pre.Allocate(3, staticCO())
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Stats.Solver.WarmStart {
		t.Error("register-count change fell back to a cold prepare")
	}
}

// TestPreparedInfeasible: infeasibility (forced residences beyond R) must
// surface identically through the warm path.
func TestPreparedInfeasible(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{
		Memory: lifetime.MemoryAccess{Period: 8, Offset: 8},
		Style:  netbuild.DensityRegions,
		Cost:   staticCO(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(0, staticCO()); !errors.Is(err, flow.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// A later feasible cell on the same Prepared must still solve.
	if _, err := pre.Allocate(6, staticCO()); err != nil {
		t.Fatalf("feasible cell after infeasible one: %v", err)
	}
}

// TestPreparedValidation rejects bad inputs.
func TestPreparedValidation(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{Style: netbuild.DensityRegions, Cost: staticCO()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(-1, staticCO()); err == nil {
		t.Error("negative register count accepted")
	}
	if _, err := pre.Allocate(2, netbuild.CostOptions{Style: energy.Activity, Model: energy.OnChip256x16()}); err == nil {
		t.Error("activity cost model without an oracle accepted")
	}
	if _, err := core.Prepare(set, core.Options{Registers: -1, Cost: staticCO()}); err == nil {
		t.Error("invalid pipeline options accepted")
	}
}
