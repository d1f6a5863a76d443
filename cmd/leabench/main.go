// Command leabench regenerates the paper's evaluation: every figure and
// Table 1, plus the ablations documented in DESIGN.md. Output is a set of
// text tables (default) or markdown (-md), the format EXPERIMENTS.md is
// built from.
//
// Usage:
//
//	leabench -all
//	leabench -exp fig3
//	leabench -exp table1 -md
//	leabench -json BENCH_sweep.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

type experiment struct {
	name string
	desc string
	run  func() (*report.Table, error)
}

func experiments(registers int) []experiment {
	return []experiment{
		{"fig1", "Figure 1: interval graph & network construction", func() (*report.Table, error) {
			_, t, err := report.Figure1()
			return t, err
		}},
		{"fig2", "Figure 2: split-lifetime arc cost cases (eqs. 4-10)", func() (*report.Table, error) {
			return report.Figure2()
		}},
		{"fig3", "Figure 3: sequential vs simultaneous (1.4x/1.3x)", func() (*report.Table, error) {
			_, t, err := report.Figure3()
			return t, err
		}},
		{"fig4", "Figure 4: graph styles, accesses vs locations (1.35x)", func() (*report.Table, error) {
			_, t, err := report.Figure4()
			return t, err
		}},
		{"table1", "Table 1: RSP with memory frequency/voltage scaling", func() (*report.Table, error) {
			_, t, err := report.Table1(registers)
			return t, err
		}},
		{"ablate-graph", "Ablation: density-region vs all-compatible graph", func() (*report.Table, error) {
			return report.GraphStyleAblation(1997, 6)
		}},
		{"ablate-eq7", "Ablation: literal vs consistent eq. (7)", func() (*report.Table, error) {
			return report.Eq7Ablation(registers)
		}},
		{"offchip", "§7: off-chip memory — larger absolute savings", func() (*report.Table, error) {
			return report.OffChip(registers)
		}},
		{"ports", "§7: port-constrained allocation", func() (*report.Table, error) {
			return report.Ports(registers)
		}},
		{"moa", "Conclusion: multiple offset assignment", func() (*report.Table, error) {
			return report.OffsetAssignment(registers)
		}},
		{"schedulers", "Methodology: initial schedule vs allocation quality", func() (*report.Table, error) {
			return report.Schedulers(6)
		}},
		{"twocommodity", "§7: two-commodity heuristic vs sequential stages", func() (*report.Table, error) {
			return report.TwoCommodity(1997, 5)
		}},
		{"hlsbench", "HLS benchmark suite: flow vs baselines (EWF/ARF/FDCT)", func() (*report.Table, error) {
			_, t, err := report.HLSBench()
			return t, err
		}},
		{"ablate-chaitin", "Ablation: Chaitin spill heuristics vs the flow optimum", func() (*report.Table, error) {
			return report.ChaitinAblation()
		}},
		{"claimband", "Abstract claim: improvement distribution over random instances", func() (*report.Table, error) {
			return report.ClaimBand(1997, 25)
		}},
	}
}

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		exp       = flag.String("exp", "", "run one experiment by name")
		markdown  = flag.Bool("md", false, "emit markdown tables")
		registers = flag.Int("registers", workload.Table1Registers, "register file size for the RSP experiments")
		list      = flag.Bool("list", false, "list experiments")
		stats     = flag.Bool("stats", false, "print an aggregate of every allocation's stage timings and solver work")
		parallel  = flag.Int("parallel", 1, "run up to this many experiments concurrently (output order is unchanged)")
		benchJSON = flag.String("json", "", "measure the sweep/solver benchmarks and write a perf snapshot to this path (e.g. BENCH_sweep.json)")
		gate      = flag.Bool("gate", false, "re-measure the benchmarks and fail when a row allocates more than in -gate-baseline")
		gateBase  = flag.String("gate-baseline", "BENCH_sweep.json", "committed perf snapshot whose allocs/op are the gate's ceilings")
	)
	flag.Parse()
	if *gate {
		if err := runBenchGate(os.Stdout, *gateBase); err != nil {
			fmt.Fprintln(os.Stderr, "leabench:", err)
			os.Exit(1)
		}
		return
	}
	exps := experiments(*registers)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}
	if *benchJSON != "" {
		if err := runBenchJSON(os.Stdout, *benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "leabench:", err)
			os.Exit(1)
		}
		if !*all && *exp == "" {
			return
		}
	}
	if !*all && *exp == "" {
		fmt.Fprintln(os.Stderr, "leabench: pass -all, -exp <name> or -list")
		os.Exit(2)
	}
	var agg *statsAggregate
	if *stats {
		agg = &statsAggregate{}
		core.SetStatsCollector(agg.add)
		defer core.SetStatsCollector(nil)
	}
	if err := runN(os.Stdout, exps, *all, *exp, *markdown, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "leabench:", err)
		os.Exit(1)
	}
	if agg != nil {
		agg.print(os.Stdout)
	}
}

// statsAggregate folds every allocation's RunStats into totals; safe for
// concurrent collection (-parallel).
type statsAggregate struct {
	mu            sync.Mutex
	runs          int
	solve, total  time.Duration
	augmentations int
	dijkstraIters int
}

func (a *statsAggregate) add(st core.RunStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.solve += st.SolveTime
	a.total += st.TotalTime
	a.augmentations += st.Solver.Augmentations
	a.dijkstraIters += st.Solver.DijkstraIters
}

func (a *statsAggregate) print(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fmt.Fprintf(w, "allocation stats: %d runs; solve %s of %s total; %d augmentations, %d dijkstra iters\n",
		a.runs, a.solve, a.total, a.augmentations, a.dijkstraIters)
}

// run keeps the original signature for the tests; runN adds the worker bound.
func run(w io.Writer, exps []experiment, all bool, name string, markdown bool) error {
	return runN(w, exps, all, name, markdown, 1)
}

func runN(w io.Writer, exps []experiment, all bool, name string, markdown bool, parallel int) error {
	var selected []experiment
	var names []string
	for _, e := range exps {
		names = append(names, e.name)
		if all || e.name == name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (have: %s)", name, strings.Join(names, ", "))
	}

	// Each experiment renders into its own buffer; buffers are emitted in
	// selection order, so -parallel only changes wall time, not output.
	outs := make([]bytes.Buffer, len(selected))
	errs := make([]error, len(selected))
	runOne := func(i int) {
		t, err := selected[i].run()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", selected[i].name, err)
			return
		}
		if markdown {
			errs[i] = t.Markdown(&outs[i])
		} else {
			errs[i] = t.Render(&outs[i])
		}
	}
	if parallel <= 1 {
		for i := range selected {
			runOne(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		workers := parallel
		if workers > len(selected) {
			workers = len(selected)
		}
		next := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(i)
				}
			}()
		}
		for i := range selected {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i := range selected {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := io.Copy(w, &outs[i]); err != nil {
			return err
		}
	}
	return nil
}
