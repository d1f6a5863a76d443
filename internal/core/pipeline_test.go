package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

func fig1Opts(registers int) core.Options {
	return core.Options{
		Registers: registers, Memory: lifetime.FullSpeed,
		Style: netbuild.DensityRegions, Cost: staticCO(),
	}
}

// TestRunStatsPopulated: a successful allocation reports stage sizes, stage
// times and solver counters, and its total time covers its stage sum — for
// core.Allocate and for the first Result after core.Prepare, the one that
// carries the preparation's Split/Pin/Build times. Several fresh prepares
// are checked because one can pass by luck when the total misses those
// stages.
func TestRunStatsPopulated(t *testing.T) {
	results := []*core.Result{allocate(t, workload.Figure1(), fig1Opts(2))}
	for i := 0; i < 20; i++ {
		pre, err := core.Prepare(workload.Figure1(), fig1Opts(2))
		if err != nil {
			t.Fatal(err)
		}
		r, err := pre.Allocate(2, staticCO())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i, r := range results {
		st := r.Stats
		if st.Variables != 5 || st.Segments != 5 {
			t.Errorf("run %d sizes: %d vars, %d segs", i, st.Variables, st.Segments)
		}
		if st.Nodes == 0 || st.Arcs == 0 {
			t.Errorf("run %d network sizes empty: %+v", i, st)
		}
		if st.TotalTime <= 0 || st.SolveTime <= 0 || st.BuildTime <= 0 {
			t.Errorf("run %d stage times empty: %+v", i, st)
		}
		if sum := st.SplitTime + st.PinTime + st.BuildTime + st.SolveTime + st.DecodeTime; st.TotalTime < sum {
			t.Errorf("run %d total %v below stage sum %v", i, st.TotalTime, sum)
		}
		if st.Solver.Augmentations == 0 {
			t.Errorf("run %d solver counters empty: %+v", i, st.Solver)
		}
		if s := st.String(); !strings.Contains(s, "solve") || !strings.Contains(s, "nodes") {
			t.Errorf("run %d stats string %q", i, s)
		}
	}
}

// TestPipelineReuse: one Pipeline allocated repeatedly (scratch reuse) gives
// the same result as fresh Allocate calls.
func TestPipelineReuse(t *testing.T) {
	p, err := core.NewPipeline(fig1Opts(2))
	if err != nil {
		t.Fatal(err)
	}
	set := workload.Figure1()
	ref := allocate(t, set, fig1Opts(2))
	for i := 0; i < 5; i++ {
		r, err := p.Allocate(set)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalEnergy != ref.TotalEnergy || r.RegistersUsed != ref.RegistersUsed {
			t.Fatalf("run %d: energy %v regs %d, want %v/%d",
				i, r.TotalEnergy, r.RegistersUsed, ref.TotalEnergy, ref.RegistersUsed)
		}
		for j := range ref.InRegister {
			if r.InRegister[j] != ref.InRegister[j] {
				t.Fatalf("run %d: segment %d residence differs", i, j)
			}
		}
	}
}

func TestStatsCollector(t *testing.T) {
	var got []core.RunStats
	core.SetStatsCollector(func(st core.RunStats) { got = append(got, st) })
	defer core.SetStatsCollector(nil)
	allocate(t, workload.Figure1(), fig1Opts(2))
	allocate(t, workload.Figure1(), fig1Opts(3))
	if len(got) != 2 {
		t.Fatalf("collected %d runs, want 2", len(got))
	}
	if got[0].Solver.Engine != "ssp" || got[0].Segments != 5 {
		t.Fatalf("collected %+v", got[0])
	}
}

// TestMemoryVariablesDeterministic pins the output order: first appearance in
// the flat segment order, no duplicates, memory residents only.
func TestMemoryVariablesDeterministic(t *testing.T) {
	set := workload.Figure1()
	ref := allocate(t, set, fig1Opts(1)).MemoryVariables()
	if len(ref) == 0 {
		t.Fatal("expected memory residents with R=1")
	}
	seen := map[string]bool{}
	for _, v := range ref {
		if seen[v] {
			t.Fatalf("duplicate %q in %v", v, ref)
		}
		seen[v] = true
	}
	for i := 0; i < 10; i++ {
		r := allocate(t, set, fig1Opts(1))
		got := r.MemoryVariables()
		if len(got) != len(ref) {
			t.Fatalf("run %d: %v vs %v", i, got, ref)
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("run %d: order differs: %v vs %v", i, got, ref)
			}
		}
		// Every listed variable has a memory-resident segment and vice versa.
		want := map[string]bool{}
		for k := range r.Build.Segments {
			if !r.InRegister[k] {
				want[r.Build.Segments[k].Var] = true
			}
		}
		if len(want) != len(got) {
			t.Fatalf("run %d: residents %v, listed %v", i, want, got)
		}
	}
}
