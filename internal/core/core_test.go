package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

func staticCO() netbuild.CostOptions {
	return netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()}
}

func activityCO(h energy.Hamming) netbuild.CostOptions {
	return netbuild.CostOptions{Style: energy.Activity, Model: energy.OnChip256x16(), H: h}
}

func allocate(t *testing.T, set *lifetime.Set, opts core.Options) *core.Result {
	t.Helper()
	r, err := core.Allocate(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lowerBounded counts the network's arcs with a positive lower bound.
func lowerBounded(nw *flow.Network) int {
	n := 0
	for id := 0; id < nw.M(); id++ {
		if _, _, lower, _, _ := nw.Arc(flow.ArcID(id)); lower > 0 {
			n++
		}
	}
	return n
}

func TestFigure1FullRegisters(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{
		Registers: 3, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO(),
	})
	// Density 3 with 3 registers: everything fits; zero memory traffic.
	if r.Counts.Mem() != 0 {
		t.Fatalf("memory accesses %d, want 0", r.Counts.Mem())
	}
	if r.RegistersUsed != 3 {
		t.Fatalf("registers used %d, want 3", r.RegistersUsed)
	}
	if r.MemoryLocations != 0 {
		t.Fatalf("memory locations %d, want 0", r.MemoryLocations)
	}
}

func TestZeroRegistersAllMemory(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{
		Registers: 0, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO(),
	})
	if r.Counts.Reg() != 0 || r.RegistersUsed != 0 {
		t.Fatalf("register traffic with R=0: %+v", r.Counts)
	}
	// 5 variables, no inputs: 5 writes + 5 reads.
	if r.Counts.MemWrites != 5 || r.Counts.MemReads != 5 {
		t.Fatalf("memory counts %+v, want 5/5", r.Counts)
	}
	if math.Abs(r.TotalEnergy-r.BaselineEnergy) > 1e-9 {
		t.Fatalf("R=0 energy %g != baseline %g", r.TotalEnergy, r.BaselineEnergy)
	}
}

func TestSurplusRegistersIdle(t *testing.T) {
	set := workload.Figure1()
	r3 := allocate(t, set, core.Options{Registers: 3, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	r9 := allocate(t, set, core.Options{Registers: 9, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	if r9.TotalEnergy != r3.TotalEnergy {
		t.Fatalf("surplus registers changed energy: %g vs %g", r9.TotalEnergy, r3.TotalEnergy)
	}
	if r9.RegistersUsed > 3 {
		t.Fatalf("registers used %d > density 3", r9.RegistersUsed)
	}
}

func TestEnergyMonotoneInRegisters(t *testing.T) {
	set := workload.Figure3()
	prev := math.Inf(1)
	for regs := 0; regs <= 4; regs++ {
		r := allocate(t, set, core.Options{Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
		if r.TotalEnergy > prev+1e-9 {
			t.Fatalf("energy increased with more registers: R=%d %g > %g", regs, r.TotalEnergy, prev)
		}
		prev = r.TotalEnergy
	}
}

func TestRestrictedMemoryForcedInRegisters(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{
		Registers: 3,
		Memory:    workload.Figure1Memory,
		Split:     lifetime.SplitMinimal,
		Style:     netbuild.DensityRegions,
		Cost:      staticCO(),
	})
	for i := range r.Build.Segments {
		if r.Build.Segments[i].Forced && !r.InRegister[i] {
			t.Fatalf("forced segment %s not in register", r.Build.Segments[i].String())
		}
	}
}

func TestInfeasibleWhenForcedExceedRegisters(t *testing.T) {
	// Two concurrent forced segments with one register.
	set := &lifetime.Set{
		Steps: 4,
		Lifetimes: []lifetime.Lifetime{
			{Var: "u", Write: 2, Reads: []int{4}},
			{Var: "v", Write: 2, Reads: []int{4}},
		},
	}
	// Memory accessible only at step 1: both lifetimes are fully between
	// access times → both forced.
	_, err := core.Allocate(set, core.Options{
		Registers: 1,
		Memory:    lifetime.MemoryAccess{Period: 10, Offset: 1},
		Split:     lifetime.SplitMinimal,
		Style:     netbuild.DensityRegions,
		Cost:      staticCO(),
	})
	if err == nil {
		t.Fatal("infeasible forced residence accepted")
	}
}

func TestNegativeRegistersRejected(t *testing.T) {
	if _, err := core.Allocate(workload.Figure1(), core.Options{Registers: -1, Cost: staticCO()}); err == nil {
		t.Fatal("negative register count accepted")
	}
}

func TestChainsAreTimeOrderedAndDisjoint(t *testing.T) {
	set := workload.Figure4()
	r := allocate(t, set, core.Options{Registers: 2, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	seen := make(map[int]bool)
	for _, chain := range r.Chains {
		for k, idx := range chain {
			if seen[idx] {
				t.Fatalf("segment %d on two chains", idx)
			}
			seen[idx] = true
			if k > 0 {
				prev := r.Build.Segments[chain[k-1]]
				cur := r.Build.Segments[idx]
				if prev.EndPoint() >= cur.StartPoint() {
					t.Fatalf("chain overlap: %s then %s", prev.String(), cur.String())
				}
			}
		}
	}
}

// TestEnergyIdentity: the flow objective plus the constant equals the
// decoded assignment's energy as recomputed by the chain evaluator, under
// every style/graph/memory combination.
func TestEnergyIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 3 + rng.Intn(8), Steps: 6 + rng.Intn(8), MaxReads: 3,
			ExternalFrac: 0.2, InputFrac: 0.25,
		})
		style := netbuild.DensityRegions
		if rng.Intn(2) == 0 {
			style = netbuild.AllCompatible
		}
		mem := lifetime.FullSpeed
		if rng.Intn(2) == 0 {
			period := 2 + rng.Intn(3)
			mem = lifetime.MemoryAccess{Period: period, Offset: 1 + rng.Intn(period)}
		}
		co := staticCO()
		if rng.Intn(2) == 0 {
			co = activityCO(energy.ConstHamming(float64(rng.Intn(10)) / 10))
		}
		r, err := core.Allocate(set, core.Options{
			Registers: rng.Intn(set.MaxDensity() + 2),
			Memory:    mem,
			Split:     lifetime.SplitPolicy(rng.Intn(2)),
			Style:     style,
			Cost:      co,
		})
		if err != nil {
			// Forced residences can exceed R; that's a legitimate outcome.
			return true
		}
		return math.Abs(r.TotalEnergy-r.EnergyUnder(co)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestStaticOptimalityVsBruteForce: on single-read full-speed instances the
// all-compatible flow optimum equals the exhaustive optimum.
func TestStaticOptimalityVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// No external reads: an external read is a second read, which
		// splits the lifetime and gives the flow partial-residence freedom
		// the whole-variable brute force cannot express.
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 2 + rng.Intn(7), Steps: 5 + rng.Intn(6), MaxReads: 1,
			InputFrac: 0.25,
		})
		regs := rng.Intn(set.MaxDensity() + 1)
		co := staticCO()
		r, err := core.Allocate(set, core.Options{
			Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.AllCompatible, Cost: co,
		})
		if err != nil {
			return false
		}
		want, err := exact.StaticOptimal(set, regs, co)
		if err != nil {
			return false
		}
		return math.Abs(r.TotalEnergy-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestActivityOptimalityVsBruteForce does the same under the activity model
// (chains matter, so the brute force searches chainings too).
func TestActivityOptimalityVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 2 + rng.Intn(5), Steps: 5 + rng.Intn(5), MaxReads: 1,
			InputFrac: 0.25,
		})
		regs := rng.Intn(set.MaxDensity() + 1)
		h := energy.ConstHamming(0.4)
		if rng.Intn(2) == 0 {
			h = trigramHamming()
		}
		co := activityCO(h)
		r, err := core.Allocate(set, core.Options{
			Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.AllCompatible, Cost: co,
		})
		if err != nil {
			return false
		}
		want, err := exact.ActivityOptimal(set, regs, co)
		if err != nil {
			return false
		}
		return math.Abs(r.TotalEnergy-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// trigramHamming derives a deterministic pair-dependent activity without
// importing the trace package (keeps the oracle simple and seedless).
func trigramHamming() energy.Hamming {
	return func(v1, v2 string) float64 {
		if v1 == "" {
			return energy.DefaultInitialActivity
		}
		sum := 0
		for _, r := range v1 + v2 {
			sum += int(r)
		}
		return float64(sum%16) / 16.0
	}
}

// TestDensityGraphNeverBeatsAllCompatible: the paper's graph is a restriction
// of the all-compatible graph, so its optimum cannot be lower.
func TestDensityGraphNeverBeatsAllCompatible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 3 + rng.Intn(8), Steps: 6 + rng.Intn(6), MaxReads: 2,
			ExternalFrac: 0.2, InputFrac: 0.2,
		})
		regs := rng.Intn(set.MaxDensity() + 1)
		co := staticCO()
		a, errA := core.Allocate(set, core.Options{Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: co})
		b, errB := core.Allocate(set, core.Options{Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.AllCompatible, Cost: co})
		if errA != nil || errB != nil {
			return false
		}
		return a.TotalEnergy >= b.TotalEnergy-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowBeatsOrMatchesBaselines: the simultaneous optimum is never worse
// than any baseline partition under the same model.
func TestFlowBeatsOrMatchesBaselines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 3 + rng.Intn(8), Steps: 6 + rng.Intn(6), MaxReads: 1,
			ExternalFrac: 0.2, InputFrac: 0.2,
		})
		regs := 1 + rng.Intn(set.MaxDensity()+1)
		co := staticCO()
		r, err := core.Allocate(set, core.Options{Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.AllCompatible, Cost: co})
		if err != nil {
			return false
		}
		best, _, err := exact.BestBaseline(set, regs, co)
		if err != nil {
			return false
		}
		return r.TotalEnergy <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPortReportFigure1(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 0, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	// All in memory: at step 3, variables a and b are read and d is written
	// (2 read ports, 3 combined); at step 1, a and b are both written
	// (2 write ports).
	if r.Ports.MemReadPorts != 2 {
		t.Errorf("mem read ports %d, want 2", r.Ports.MemReadPorts)
	}
	if r.Ports.MemWritePorts != 2 {
		t.Errorf("mem write ports %d, want 2", r.Ports.MemWritePorts)
	}
	if r.Ports.MemTotalPorts != 3 {
		t.Errorf("mem total ports %d, want 3", r.Ports.MemTotalPorts)
	}
}

func TestMemoryLocationsFigure1(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 0, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	if r.MemoryLocations != set.MaxDensity() {
		t.Errorf("all-memory locations %d, want density %d", r.MemoryLocations, set.MaxDensity())
	}
}

func TestEnergyUnderCrossStyle(t *testing.T) {
	set := workload.Figure3()
	h := workload.Figure3Hamming()
	r := allocate(t, set, core.Options{Registers: 1, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	aE := r.EnergyUnder(activityCO(h))
	if aE <= 0 {
		t.Fatalf("cross-style energy %g", aE)
	}
	// Cross-evaluating the same assignment under the same style is the
	// identity.
	if math.Abs(r.EnergyUnder(staticCO())-r.TotalEnergy) > 1e-9 {
		t.Fatal("EnergyUnder(static) != TotalEnergy")
	}
}

func TestAccessCountsHelpers(t *testing.T) {
	c := core.AccessCounts{MemReads: 2, MemWrites: 3, RegReads: 5, RegWrites: 7}
	if c.Mem() != 5 || c.Reg() != 12 {
		t.Fatalf("helpers broken: %d %d", c.Mem(), c.Reg())
	}
}

func TestBreakdownMatchesCounts(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 2, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	m := energy.OnChip256x16()
	b := r.Breakdown(m)
	want := float64(r.Counts.MemReads)*m.EMemRead() + float64(r.Counts.MemWrites)*m.EMemWrite() +
		float64(r.Counts.RegReads)*m.ERegRead() + float64(r.Counts.RegWrites)*m.ERegWrite()
	if math.Abs(b.Total()-want) > 1e-9 {
		t.Fatalf("breakdown total %g, want %g", b.Total(), want)
	}
	if b.Memory < 0 || b.RegisterFile <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
}

// TestDensityGraphMinLocationsGuarantee: §7 claims the paper's graph yields
// a minimum number of memory locations. On tiny single-read instances where
// the density graph reaches the global optimum, its location count must
// equal the best achievable among ALL energy-optimal partitions.
func TestDensityGraphMinLocationsGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 2 + rng.Intn(6), Steps: 5 + rng.Intn(5), MaxReads: 1,
		})
		regs := rng.Intn(set.MaxDensity() + 1)
		co := staticCO()
		res, err := core.Allocate(set, core.Options{
			Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: co,
		})
		if err != nil {
			return false
		}
		optE, optLocs, err := exact.MinLocationsAmongOptima(set, regs, co)
		if err != nil {
			return false
		}
		if math.Abs(res.TotalEnergy-optE) > 1e-6 {
			// The density graph can be restricted below the global optimum
			// on sparse instances; the guarantee applies to its own optimum.
			return true
		}
		return res.MemoryLocations <= optLocs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestResultValidate(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 2, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: put a register segment on no chain.
	for i := range r.InRegister {
		if !r.InRegister[i] {
			r.InRegister[i] = true
			r.RegOf[i] = 0
			break
		}
	}
	if err := r.Validate(); err == nil {
		t.Fatal("corrupted result validated")
	}
}

// TestResultValidateProperty: every solver output validates.
func TestResultValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 3 + rng.Intn(8), Steps: 6 + rng.Intn(6), MaxReads: 2, ExternalFrac: 0.2, InputFrac: 0.2,
		})
		r, err := core.Allocate(set, core.Options{
			Registers: rng.Intn(set.MaxDensity() + 2),
			Memory:    lifetime.FullSpeed,
			Style:     netbuild.DensityRegions,
			Cost:      staticCO(),
		})
		if err != nil {
			return false
		}
		return r.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
