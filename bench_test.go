// Benchmarks regenerating the paper's evaluation artefacts (one benchmark
// per figure/table — the measured shapes are recorded in EXPERIMENTS.md) and
// scaling benchmarks for the solver and the construction.
package lowenergy_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	lowenergy "repro"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// BenchmarkFigure1 regenerates the Figure 1 construction (E1/E1c).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the sequential-vs-simultaneous comparison
// (E2: paper reports 1.4x static / 1.3x activity improvements).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the graph-style comparison (E3: 1.35x, min
// accesses + min locations).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the RSP frequency/voltage sweep (E4).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.Table1(workload.Table1Registers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGraphStyle measures the graph-style ablation (A1).
func BenchmarkAblationGraphStyle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.GraphStyleAblation(1997, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEq7 measures the eq. (7) fidelity ablation (A2).
func BenchmarkAblationEq7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Eq7Ablation(workload.Table1Registers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateRSP measures one end-to-end allocation of the radar
// kernel at each memory frequency.
func BenchmarkAllocateRSP(b *testing.B) {
	set, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		b.Fatal(err)
	}
	for _, div := range []int{1, 2, 4} {
		name := "f"
		if div > 1 {
			name = "f_div_" + string(rune('0'+div))
		}
		model := lowenergy.DefaultModel().WithMemVoltage(lowenergy.VoltageForDivisor(div))
		opts := lowenergy.Options{
			Registers: workload.Table1Registers,
			Memory:    lowenergy.MemoryAccess{Period: div, Offset: div},
			Split:     lowenergy.SplitMinimal,
			Style:     lowenergy.GraphDensityRegions,
			Cost:      lowenergy.StaticCost(model),
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lowenergy.Allocate(set, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"_reuse", func(b *testing.B) {
			// Same allocation through a reusable Allocator (scratch reuse).
			alloc, err := lowenergy.NewAllocator(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Allocate(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateScaling measures allocation cost against instance size
// (the paper argues the approach scales to very large basic blocks, §7).
func BenchmarkAllocateScaling(b *testing.B) {
	for _, vars := range []int{25, 50, 100, 200, 400} {
		rng := rand.New(rand.NewSource(int64(vars)))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: vars, Steps: vars / 2, MaxReads: 2, ExternalFrac: 0.1, InputFrac: 0.1,
		})
		opts := lowenergy.Options{
			Registers: set.MaxDensity() / 2,
			Memory:    lowenergy.FullSpeedMemory,
			Style:     lowenergy.GraphDensityRegions,
			Cost:      lowenergy.StaticCost(lowenergy.DefaultModel()),
		}
		b.Run(benchName("vars", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lowenergy.Allocate(set, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphStyles compares construction+solve cost of the two graph
// styles: the paper's density-region graph is much sparser.
func BenchmarkGraphStyles(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	set := workload.MustRandom(rng, workload.RandomParams{
		Vars: 150, Steps: 60, MaxReads: 2, ExternalFrac: 0.1, InputFrac: 0.1,
	})
	for _, style := range []netbuild.GraphStyle{netbuild.DensityRegions, netbuild.AllCompatible} {
		opts := lowenergy.Options{
			Registers: set.MaxDensity() / 2,
			Memory:    lowenergy.FullSpeedMemory,
			Style:     style,
			Cost:      lowenergy.StaticCost(lowenergy.DefaultModel()),
		}
		b.Run(style.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lowenergy.Allocate(set, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvers compares the production SSP engine against the
// cycle-cancelling and cost-scaling cross-checkers on the same network.
func BenchmarkSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	set := workload.MustRandom(rng, workload.RandomParams{
		Vars: 80, Steps: 40, MaxReads: 2, ExternalFrac: 0.1, InputFrac: 0.1,
	})
	grouped, err := set.Split(lifetime.FullSpeed, lifetime.SplitMinimal)
	if err != nil {
		b.Fatal(err)
	}
	build, err := netbuild.BuildNetwork(set, grouped, netbuild.DensityRegions,
		netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()})
	if err != nil {
		b.Fatal(err)
	}
	value := int64(set.MaxDensity() / 2)
	// A nil scratch makes every iteration a cold solve.
	solve := func(b *testing.B, e flow.Engine) {
		b.ReportAllocs()
		var sol flow.Solution
		var st flow.SolveStats
		for i := 0; i < b.N; i++ {
			if err := build.Net.MinCostFlowValueWithCostsInto(e, nil, nil, build.S, build.T, value, &sol, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ssp", func(b *testing.B) { solve(b, flow.SSP) })
	b.Run("cyclecancel", func(b *testing.B) { solve(b, flow.CycleCancelling) })
	b.Run("costscaling", func(b *testing.B) { solve(b, flow.CostScaling) })
}

// BenchmarkSweepWarmStart measures the design-space sweep on the Figure 1
// workload grid with and without the warm-started template path (S35). The
// cold variant rebuilds the network for every cell; the warm variant builds
// each divisor column's topology once and re-solves with swapped cost
// vectors on a retained flow.Scratch. warm_par solves the columns on 4
// workers, and rerun repeats the sweep on one persistent sweep.Runner, whose
// columns stay prepared between runs.
func BenchmarkSweepWarmStart(b *testing.B) {
	set := workload.Figure1()
	grid := sweep.Options{
		Registers: []int{0, 1, 2, 3, 4, 5, 6},
		Divisors:  []int{1, 2, 4, 8},
		H:         energy.ConstHamming(0.5),
	}
	sweepRun := func(opt sweep.Options) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(set, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cold, par := grid, grid
	cold.ColdStart = true
	par.Workers = 4
	b.Run("cold", sweepRun(cold))
	b.Run("warm", sweepRun(grid))
	b.Run("warm_par", sweepRun(par))
	b.Run("rerun", func(b *testing.B) {
		rn, err := sweep.NewRunner(set, grid)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rn.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rn.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunnerRSP is the solver-bound sweep over the radar kernel as a
// go-test benchmark, so it can be CPU-profiled: one persistent sweep.Runner
// with R 13–14, memory divisors 1/2/4 and the static and activity models
// under a fixed switching-activity oracle, on one worker. One op is one
// Runner.Run, 12 solves: per divisor column a full solve per model at R = 13
// and an incremental R→R+1 solve. It reports the SSP augmentations and
// Dijkstra pops per solve and the share of solves that ran incrementally.
func BenchmarkRunnerRSP(b *testing.B) {
	set, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		b.Fatal(err)
	}
	rn, err := sweep.NewRunner(set, sweep.Options{
		Registers: []int{workload.Table1Registers, workload.Table1Registers + 1},
		Divisors:  []int{1, 2, 4},
		H:         hashHamming,
		Workers:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rn.Run(); err != nil {
		b.Fatal(err)
	}
	var solves, augmentations, pops, incremental int
	core.SetStatsCollector(func(st core.RunStats) {
		solves++
		augmentations += st.Solver.Augmentations
		pops += st.Solver.DijkstraIters
		if st.Solver.Incremental {
			incremental++
		}
	})
	defer core.SetStatsCollector(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(augmentations)/float64(solves), "augs/solve")
	b.ReportMetric(float64(pops)/float64(solves), "pops/solve")
	b.ReportMetric(float64(incremental)/float64(solves), "incr/solve")
}

// hashHamming is a fixed switching-activity oracle: every unordered variable
// pair gets a fraction in [0.05, 0.95] hashed from the two names, so the
// activity model's arc costs vary from pair to pair as under the seeded
// oracle of allocbench's sweep_rsp.
func hashHamming(v1, v2 string) float64 {
	if v1 == "" {
		return energy.DefaultInitialActivity
	}
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	h := fnv.New64a()
	h.Write([]byte(v1))
	h.Write([]byte{0})
	h.Write([]byte(v2))
	return 0.05 + 0.9*float64(h.Sum64()%1001)/1000
}

// BenchmarkWarmResolve isolates the solver-level warm start: the same
// network re-solved with a fresh Scratch every time (cold) vs on a retained
// Scratch that reuses topology and potentials (warm). recost alternates two
// cost vectors on a retained Scratch, so every re-solve runs full Dijkstra
// rounds on the heap: unchanged costs would continue the held flow and
// never enter the queue.
func BenchmarkWarmResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	set := workload.MustRandom(rng, workload.RandomParams{
		Vars: 80, Steps: 40, MaxReads: 2, ExternalFrac: 0.1, InputFrac: 0.1,
	})
	grouped, err := set.Split(lifetime.FullSpeed, lifetime.SplitMinimal)
	if err != nil {
		b.Fatal(err)
	}
	build, err := netbuild.BuildNetwork(set, grouped, netbuild.DensityRegions,
		netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()})
	if err != nil {
		b.Fatal(err)
	}
	value := int64(set.MaxDensity() / 2)
	var sol flow.Solution
	var st flow.SolveStats
	solve := func(b *testing.B, sc *flow.Scratch) {
		if err := build.Net.MinCostFlowValueWithCostsInto(flow.SSP, nil, sc, build.S, build.T, value, &sol, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solve(b, flow.NewScratch())
		}
	})
	b.Run("warm", func(b *testing.B) {
		sc := flow.NewScratch()
		solve(b, sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solve(b, sc)
		}
	})
	costs := [2][]int64{make([]int64, build.Net.M()), make([]int64, build.Net.M())}
	for a := range costs[0] {
		_, _, _, _, c := build.Net.Arc(flow.ArcID(a))
		costs[0][a], costs[1][a] = c, 2*c
	}
	b.Run("recost", func(b *testing.B) {
		sc := flow.NewScratch()
		recost := func(i int) {
			if err := build.Net.MinCostFlowValueWithCostsInto(flow.SSP, costs[i%2], sc, build.S, build.T, value, &sol, &st); err != nil {
				b.Fatal(err)
			}
		}
		recost(0)
		recost(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recost(i)
		}
	})
}

// BenchmarkPipelineParallel measures whole-program allocation under the
// bounded worker pool: a synthetic program of independent blocks, workers 1
// (sequential baseline) vs several.
func BenchmarkPipelineParallel(b *testing.B) {
	prog := syntheticProgram(b, 12)
	cfg := lowenergy.PipelineConfig{
		Resources: lowenergy.Resources{ALUs: 2, Multipliers: 1},
		Options: lowenergy.Options{
			Registers: 4,
			Memory:    lowenergy.FullSpeedMemory,
			Style:     lowenergy.GraphDensityRegions,
			Cost:      lowenergy.StaticCost(lowenergy.DefaultModel()),
		},
		AllowExternalInputs: true,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := cfg
		cfg.Workers = workers
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lowenergy.RunProgram(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// syntheticProgram builds one task of n independent FIR-ish blocks with
// disjoint value names, big enough that the per-block allocation dominates.
func syntheticProgram(b *testing.B, n int) *lowenergy.Program {
	var sb strings.Builder
	sb.WriteString("task synth\n")
	for k := 0; k < n; k++ {
		p := fmt.Sprintf("b%d_", k)
		fmt.Fprintf(&sb, "block %sblk\nin %sx0 %sx1 %sx2 %sx3\n", p, p, p, p, p)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&sb, "%sm%d = %sx%d * %sx%d\n", p, i, p, i, p, (i+1)%4)
		}
		fmt.Fprintf(&sb, "%ss0 = %sm0 + %sm1\n", p, p, p)
		fmt.Fprintf(&sb, "%ss1 = %sm2 + %sm3\n", p, p, p)
		fmt.Fprintf(&sb, "%sy = %ss0 + %ss1\n", p, p, p)
		fmt.Fprintf(&sb, "out %sy\nend\n", p)
	}
	prog, err := lowenergy.ParseProgramString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkExtensions measures the §7/extension experiments.
func BenchmarkExtensions(b *testing.B) {
	b.Run("offchip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := report.OffChip(workload.Table1Registers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("moa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := report.OffsetAssignment(workload.Table1Registers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("schedulers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := report.Schedulers(6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSplitPolicies compares the lifetime splitting policies under
// restricted memory access.
func BenchmarkSplitPolicies(b *testing.B) {
	set, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		b.Fatal(err)
	}
	mem := lifetime.MemoryAccess{Period: 2, Offset: 2}
	for _, tc := range []struct {
		name   string
		policy lifetime.SplitPolicy
	}{{"minimal", lifetime.SplitMinimal}, {"full", lifetime.SplitFull}} {
		opts := core.Options{
			Registers: workload.Table1Registers,
			Memory:    mem,
			Split:     tc.policy,
			Style:     netbuild.DensityRegions,
			Cost:      netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()},
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Allocate(set, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulePipeline measures the front half of the pipeline
// (generate + schedule + lifetimes) on the radar kernel.
func BenchmarkSchedulePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.RSP(workload.DefaultRSP); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "_" + digits
}

// BenchmarkLowerToMachine measures the §5 instruction-mapping stage on the
// radar kernel.
func BenchmarkLowerToMachine(b *testing.B) {
	set, s, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		b.Fatal(err)
	}
	res, err := lowenergy.Allocate(set, lowenergy.Options{
		Registers: workload.Table1Registers,
		Memory:    lowenergy.FullSpeedMemory,
		Style:     lowenergy.GraphDensityRegions,
		Cost:      lowenergy.StaticCost(lowenergy.DefaultModel()),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lowenergy.LowerToMachine(s, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizePasses measures the CSE+DCE clean-up on the EWF kernel.
func BenchmarkOptimizePasses(b *testing.B) {
	block, err := workload.EllipticWaveFilter()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := lowenergy.OptimizeBlock(block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForceDirected measures FDS against list scheduling on the EWF.
func BenchmarkForceDirected(b *testing.B) {
	block, err := workload.EllipticWaveFilter()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lowenergy.ScheduleForceDirected(block, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lowenergy.ScheduleBlock(block, lowenergy.Resources{ALUs: 2, Multipliers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHLSSuite measures the full benchmark-suite comparison (X6).
func BenchmarkHLSSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := report.HLSBench(); err != nil {
			b.Fatal(err)
		}
	}
}
