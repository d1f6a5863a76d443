package core_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

func TestForceRegisterPinsSegment(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{
		Registers:     1,
		Memory:        lifetime.FullSpeed,
		Style:         netbuild.DensityRegions,
		Cost:          staticCO(),
		ForceRegister: []core.SegmentRef{{Var: "e", Step: 6}},
	})
	for i := range r.Build.Segments {
		if r.Build.Segments[i].Var == "e" && !r.InRegister[i] {
			t.Fatal("pinned variable e not in register")
		}
	}
}

func TestForceRegisterUnknown(t *testing.T) {
	set := workload.Figure1()
	if _, err := core.Allocate(set, core.Options{
		Registers: 1, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO(),
		ForceRegister: []core.SegmentRef{{Var: "zz", Step: 2}},
	}); err == nil {
		t.Fatal("unknown variable pin accepted")
	}
	if _, err := core.Allocate(set, core.Options{
		Registers: 1, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO(),
		ForceRegister: []core.SegmentRef{{Var: "e", Step: 99}},
	}); err == nil {
		t.Fatal("out-of-lifetime pin accepted")
	}
}

func TestAllocateWithPortsReducesPressure(t *testing.T) {
	set := workload.Figure1()
	opts := core.Options{
		Registers: 2, // too few to hold everything: some memory traffic remains
		Memory:    lifetime.FullSpeed,
		Style:     netbuild.DensityRegions,
		Cost:      staticCO(),
	}
	unconstrained := allocate(t, set, opts)
	if unconstrained.Ports.MemWritePorts < 2 {
		t.Skip("baseline already below the limit; instance too easy")
	}
	res, err := core.AllocateWithPorts(set, opts, core.PortLimits{MemWrites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ports.MemWritePorts > 1 {
		t.Fatalf("write ports %d after constraint, want <= 1", res.Ports.MemWritePorts)
	}
	// The port-feasible solution can only cost more energy.
	if res.TotalEnergy < unconstrained.TotalEnergy-1e-9 {
		t.Fatalf("constrained solution cheaper (%g) than unconstrained (%g)",
			res.TotalEnergy, unconstrained.TotalEnergy)
	}
}

func TestAllocateWithPortsNoLimits(t *testing.T) {
	set := workload.Figure1()
	opts := core.Options{Registers: 1, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()}
	res, err := core.AllocateWithPorts(set, opts, core.PortLimits{})
	if err != nil {
		t.Fatal(err)
	}
	plain := allocate(t, set, opts)
	if res.TotalEnergy != plain.TotalEnergy {
		t.Fatal("no limits should equal plain allocation")
	}
}

func TestAllocateWithPortsInfeasible(t *testing.T) {
	// R=0 and a write-port limit of 1 with two same-step writes: pinning
	// needs registers that don't exist.
	set := workload.Figure1()
	opts := core.Options{Registers: 0, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()}
	if _, err := core.AllocateWithPorts(set, opts, core.PortLimits{MemWrites: 1}); err == nil {
		t.Fatal("impossible port limit accepted")
	}
}

func TestMemTrafficAt(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 0, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	reads, writes := r.MemTrafficAt(3) // a, b read; d written
	if reads != 2 || writes != 1 {
		t.Fatalf("step 3 traffic %d/%d, want 2/1", reads, writes)
	}
	if reads, writes := r.MemTrafficAt(-1); reads != 0 || writes != 0 {
		t.Fatal("out-of-range step should be quiet")
	}
	if reads, writes := r.MemTrafficAt(999); reads != 0 || writes != 0 {
		t.Fatal("out-of-range step should be quiet")
	}
}

func TestForceMemoryBarsSegment(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{
		Registers:   3,
		Memory:      lifetime.FullSpeed,
		Style:       netbuild.DensityRegions,
		Cost:        staticCO(),
		ForceMemory: []core.SegmentRef{{Var: "e", Step: 6}},
	})
	for i := range r.Build.Segments {
		if r.Build.Segments[i].Var == "e" && r.InRegister[i] {
			t.Fatal("barred variable e in a register")
		}
	}
}

func TestForceMemoryConflictsWithForced(t *testing.T) {
	set := workload.Figure1()
	// Under restricted access e is forced into a register; pinning it to
	// memory must be rejected.
	if _, err := core.Allocate(set, core.Options{
		Registers:   3,
		Memory:      workload.Figure1Memory,
		Split:       lifetime.SplitMinimal,
		Style:       netbuild.DensityRegions,
		Cost:        staticCO(),
		ForceMemory: []core.SegmentRef{{Var: "e", Step: 6}},
	}); err == nil {
		t.Fatal("conflicting pins accepted")
	}
}

func TestAllocateWithRegPorts(t *testing.T) {
	set := workload.Figure1()
	opts := core.Options{
		Registers: 3, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO(),
	}
	base := allocate(t, set, opts)
	if base.Ports.RegWritePorts < 2 {
		t.Skip("base register pressure already below limit")
	}
	res, err := core.AllocateWithRegPorts(set, opts, core.RegPortLimits{RegWrites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ports.RegWritePorts > 1 {
		t.Fatalf("register write ports %d after limit 1", res.Ports.RegWritePorts)
	}
	if res.TotalEnergy < base.TotalEnergy-1e-9 {
		t.Fatalf("constrained solution cheaper than unconstrained")
	}
}

func TestRegTrafficAt(t *testing.T) {
	set := workload.Figure1()
	r := allocate(t, set, core.Options{Registers: 3, Memory: lifetime.FullSpeed, Style: netbuild.DensityRegions, Cost: staticCO()})
	// With everything in registers, step 3 has 2 register reads (a, b) and
	// 1 write (d).
	reads, writes := r.RegTrafficAt(3)
	if reads != 2 || writes != 1 {
		t.Fatalf("step 3 register traffic %d/%d, want 2/1", reads, writes)
	}
	if reads, writes := r.RegTrafficAt(-5); reads != 0 || writes != 0 {
		t.Fatal("out-of-range step should be quiet")
	}
}

// randomPins pins about one variable in three at a random step of its
// lifetime, to a register or to memory at random.
func randomPins(rng *rand.Rand, set *lifetime.Set) (toReg, toMem []core.SegmentRef) {
	for i := range set.Lifetimes {
		l := &set.Lifetimes[i]
		if rng.Intn(3) != 0 {
			continue
		}
		ref := core.SegmentRef{Var: l.Var, Step: l.Write + 1 + rng.Intn(l.LastRead()-l.Write)}
		if rng.Intn(2) == 0 {
			toReg = append(toReg, ref)
		} else {
			toMem = append(toMem, ref)
		}
	}
	return toReg, toMem
}

// TestPinnedAllocationsCertified: restricted memory and ForceRegister pins
// are the flow's lower bounds, and ForceMemory pins bar segments. On random
// sets at memory divisors 2–4 with random pins, R climbs from 0 past the
// maximum density on one Prepared. Every verdict must equal a cold
// Allocate's and be monotone in R; every feasible answer must equal the
// cold one arc for arc, keep every pin, and be certified optimal on the
// paper network by check.Certify, which prices the real bounds rather than
// the solver's penalty. The first feasible R after an infeasible one must
// continue the held flow with one augmentation. A set whose memory pins hit
// a forced segment keeps only its register pins.
func TestPinnedAllocationsCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	certified, continued, conflicts := 0, 0, 0
	for i := 0; i < 80; i++ {
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 4 + rng.Intn(8), Steps: 8 + rng.Intn(8), MaxReads: 2,
			ExternalFrac: 0.2, InputFrac: 0.2,
		})
		div := 2 + rng.Intn(3)
		co := staticCO()
		if rng.Intn(2) == 0 {
			co = activityCO(trigramHamming())
		}
		opts := core.Options{
			Memory: lifetime.MemoryAccess{Period: div, Offset: 1 + rng.Intn(div)},
			Split:  lifetime.SplitPolicy(rng.Intn(2)),
			Style:  netbuild.DensityRegions,
			Cost:   co,
		}
		opts.ForceRegister, opts.ForceMemory = randomPins(rng, set)
		pre, err := core.Prepare(set, opts)
		if err != nil && strings.Contains(err.Error(), "cannot be pinned to memory") {
			conflicts++ // a memory pin on a forced segment: keep the register pins
			opts.ForceMemory = nil
			pre, err = core.Prepare(set, opts)
		}
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		feasibleAt := -1
		for regs := 0; regs <= set.MaxDensity()+1; regs++ {
			warm, errW := pre.Allocate(regs, co)
			coldOpts := opts
			coldOpts.Registers = regs
			cold, errC := core.Allocate(set, coldOpts)
			if (errW == nil) != (errC == nil) {
				t.Fatalf("set %d div %d R=%d: warm err %v, cold err %v", i, div, regs, errW, errC)
			}
			if errW != nil {
				if !errors.Is(errW, flow.ErrInfeasible) || feasibleAt >= 0 {
					t.Fatalf("set %d div %d R=%d: %v (first feasible R %d)", i, div, regs, errW, feasibleAt)
				}
				continue
			}
			if feasibleAt < 0 && regs > 0 {
				if st := warm.Stats.Solver; !st.Incremental || st.Augmentations != 1 {
					t.Fatalf("set %d div %d R=%d after an infeasible R: incremental=%t with %d augmentations",
						i, div, regs, st.Incremental, st.Augmentations)
				}
				continued++
			}
			if feasibleAt < 0 {
				feasibleAt = regs
			}
			if !slices.Equal(warm.Solution.FlowByArc, cold.Solution.FlowByArc) {
				t.Fatalf("set %d div %d R=%d: climbed answer differs from cold", i, div, regs)
			}
			for k := range cold.Build.Segments {
				g := &cold.Build.Segments[k]
				if g.Forced && !cold.InRegister[k] || g.Barred && cold.InRegister[k] {
					t.Fatalf("set %d div %d R=%d: segment %s (forced %t, barred %t) in register %t",
						i, div, regs, g.String(), g.Forced, g.Barred, cold.InRegister[k])
				}
			}
			if _, ds := check.Certify(cold.Build.Net, nil, cold.Solution); ds.HasErrors() {
				t.Fatalf("set %d div %d R=%d: %v", i, div, regs, ds.Err())
			}
			certified++
		}
	}
	if certified == 0 || continued == 0 {
		t.Fatalf("%d answers certified, %d continued an infeasible R; want both", certified, continued)
	}
	t.Logf("%d answers certified, %d continued an infeasible R; %d of 80 sets dropped their memory pins", certified, continued, conflicts)
}

// TestPinnedOptimaMatchExact: pins that agree with an optimal allocation
// leave its energy optimal, so on small single-read sets at full speed a
// pinned solve must reach exact's optimum. exact models unrestricted memory
// only, so here the ForceRegister pins are the flow's only lower bounds.
func TestPinnedOptimaMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	bounded := 0
	for i := 0; i < 150; i++ {
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 2 + rng.Intn(6), Steps: 5 + rng.Intn(6), MaxReads: 1,
			InputFrac: 0.25,
		})
		regs := rng.Intn(set.MaxDensity() + 1)
		co := staticCO()
		optimum := exact.StaticOptimal
		if rng.Intn(2) == 0 {
			co = activityCO(trigramHamming())
			optimum = exact.ActivityOptimal
		}
		want, err := optimum(set, regs, co)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Registers: regs, Memory: lifetime.FullSpeed, Style: netbuild.AllCompatible, Cost: co}
		free := allocate(t, set, opts)
		for k := range free.Build.Segments {
			if rng.Intn(2) == 0 {
				continue
			}
			g := &free.Build.Segments[k]
			ref := core.SegmentRef{Var: g.Var, Step: g.End}
			if free.InRegister[k] {
				opts.ForceRegister = append(opts.ForceRegister, ref)
			} else {
				opts.ForceMemory = append(opts.ForceMemory, ref)
			}
		}
		pinned := allocate(t, set, opts)
		if lowerBounded(pinned.Build.Net) > 0 {
			bounded++
		}
		if math.Abs(pinned.TotalEnergy-want) > 1e-6 {
			t.Fatalf("set %d R=%d %v: pinned energy %g, exact optimum %g (unpinned %g)",
				i, regs, co.Style, pinned.TotalEnergy, want, free.TotalEnergy)
		}
	}
	if bounded == 0 {
		t.Fatal("no pinned network had a lower bound")
	}
	t.Logf("%d of 150 pinned networks had lower bounds", bounded)
}
