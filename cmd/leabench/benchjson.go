package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/perfobs"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchResult is one benchmark's snapshot, the machine-readable form of a
// `go test -bench` line.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchSnapshot is the BENCH_sweep.json document: the sweep and solver
// benchmarks that track the warm-start hot path, plus derived speedups and
// one cold/warm allocation's per-stage stats in the canonical core.RunStats
// JSON schema (shared with leaflow -json, leaload -json and leaserved
// /statsz).
type benchSnapshot struct {
	// Provenance stamps (additive: snapshots written before these fields
	// existed still parse, the gate just reports their provenance as unknown).
	Commit    string        `json:"commit,omitempty"`
	Dirty     bool          `json:"dirty,omitempty"`
	GoVersion string        `json:"go_version,omitempty"`
	Host      *perfobs.Host `json:"host_fingerprint,omitempty"`

	Benchmarks []benchResult            `json:"benchmarks"`
	Speedups   map[string]float64       `json:"speedups"`
	RunStats   map[string]core.RunStats `json:"run_stats"`
}

// runBenchJSON measures the sweep and solver benchmarks via
// testing.Benchmark and writes the snapshot as JSON to path, stamped with
// commit/host provenance.
func runBenchJSON(w io.Writer, path string) error {
	snap, err := measureSnapshot(w)
	if err != nil {
		return err
	}
	snap.stamp(perfobs.CollectMeta())
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// stamp copies the provenance block onto the snapshot.
func (s *benchSnapshot) stamp(meta perfobs.Meta) {
	s.Commit = meta.Commit
	s.Dirty = meta.Dirty
	s.GoVersion = meta.GoVersion
	host := meta.Host
	s.Host = &host
}

// measureSnapshot runs the full benchmark suite once and returns the
// snapshot; per-benchmark lines are printed to w as they finish.
func measureSnapshot(w io.Writer) (*benchSnapshot, error) {
	set := workload.Figure1()
	grid := sweep.Options{
		Registers: []int{0, 1, 2, 3, 4, 5, 6},
		Divisors:  []int{1, 2, 4, 8},
		H:         energy.ConstHamming(0.5),
	}
	sweepBench := func(cold bool) func(b *testing.B) {
		opt := grid
		opt.ColdStart = cold
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(set, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	grouped, err := set.Split(lifetime.FullSpeed, lifetime.SplitMinimal)
	if err != nil {
		return nil, err
	}
	build, err := netbuild.BuildNetwork(set, grouped, netbuild.DensityRegions,
		netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()})
	if err != nil {
		return nil, err
	}
	value := int64(2)
	costs := make([]int64, build.Net.M())
	for i := range costs {
		_, _, _, _, c := build.Net.Arc(flow.ArcID(i))
		costs[i] = c
	}
	solverBench := func(engine flow.Engine, warm bool) func(b *testing.B) {
		return func(b *testing.B) {
			sc := flow.NewScratchSized(build.Net.N(), build.Net.M())
			var sol flow.Solution
			var st flow.SolveStats
			if warm {
				if err := build.Net.MinCostFlowValueWithCostsInto(engine, costs, sc, build.S, build.T, value, &sol, &st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					sc = flow.NewScratch()
				}
				if err := build.Net.MinCostFlowValueWithCostsInto(engine, costs, sc, build.S, build.T, value, &sol, &st); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The re-cost benchmark alternates two cost vectors so every warm
	// re-solve runs real Dijkstra rounds on the heap (unchanged costs hit the
	// delta-zero path and never enter the queue).
	costs2 := make([]int64, len(costs))
	for i, c := range costs {
		costs2[i] = 2 * c
	}
	recostBench := func(b *testing.B) {
		sc := flow.NewScratchSized(build.Net.N(), build.Net.M())
		var sol flow.Solution
		var st flow.SolveStats
		for _, c := range [][]int64{costs, costs2} {
			if err := build.Net.MinCostFlowValueWithCostsInto(flow.SSP, c, sc, build.S, build.T, value, &sol, &st); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := costs
			if i%2 == 1 {
				c = costs2
			}
			if err := build.Net.MinCostFlowValueWithCostsInto(flow.SSP, c, sc, build.S, build.T, value, &sol, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	parGrid := grid
	parGrid.Workers = 4
	runner, err := sweep.NewRunner(set, grid)
	if err != nil {
		return nil, err
	}
	if _, err := runner.Run(); err != nil { // prepare + first warm pass
		return nil, err
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"sweep_cold", sweepBench(true)},
		{"sweep_warm", sweepBench(false)},
		{"sweep_warm_par", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(set, parGrid); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sweep_rerun", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"solver_ssp_cold", solverBench(flow.SSP, false)},
		{"solver_ssp_warm", solverBench(flow.SSP, true)},
		{"solver_recost_heap", recostBench},
		{"solver_cyclecancel", solverBench(flow.CycleCancelling, false)},
	}
	snap := benchSnapshot{Speedups: map[string]float64{}, RunStats: map[string]core.RunStats{}}
	// One cold and one warm allocation of the benchmark instance, recorded in
	// the shared RunStats schema so snapshot consumers see the same field
	// names the serving endpoints emit.
	pre, err := core.Prepare(set, core.Options{Registers: int(value),
		Style: netbuild.DensityRegions,
		Cost:  netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()}})
	if err != nil {
		return nil, err
	}
	co := netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()}
	for _, label := range []string{"alloc_cold", "alloc_warm"} {
		res, err := pre.Allocate(int(value), co)
		if err != nil {
			return nil, err
		}
		snap.RunStats[label] = res.Stats
	}
	byName := map[string]benchResult{}
	for _, bb := range benches {
		r := testing.Benchmark(bb.fn)
		res := benchResult{
			Name:        bb.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		snap.Benchmarks = append(snap.Benchmarks, res)
		byName[bb.name] = res
		fmt.Fprintf(w, "%-20s %10d iters %14.0f ns/op %8d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.AllocsPerOp)
	}
	for _, pair := range [][2]string{
		{"sweep_cold", "sweep_warm"},
		{"sweep_warm", "sweep_warm_par"},
		{"sweep_warm", "sweep_rerun"},
		{"solver_ssp_cold", "solver_ssp_warm"},
	} {
		cold, warm := byName[pair[0]], byName[pair[1]]
		if warm.NsPerOp > 0 {
			snap.Speedups[pair[1]+"_vs_"+pair[0]] = cold.NsPerOp / warm.NsPerOp
		}
	}

	return &snap, nil
}
