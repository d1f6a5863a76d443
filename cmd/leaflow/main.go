// Command leaflow allocates the variables of a TAC program to registers and
// memory for minimum energy, per block, printing an allocation and energy
// report. It is the end-user entry point to the paper's technique.
//
// Usage:
//
//	leaflow [flags] [program.tac]
//
// With no file argument the program is read from stdin. See -help for the
// flags (register count, memory frequency divisor, energy model, graph
// style) and internal/ir for the TAC grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	lowenergy "repro"
)

func main() {
	var (
		registers = flag.Int("registers", 16, "register file size R")
		divisor   = flag.Int("memdiv", 1, "memory frequency divisor c (access every c control steps, supply voltage scaled accordingly)")
		alus      = flag.Int("alus", 2, "ALU-class units for list scheduling (0 = unlimited)")
		muls      = flag.Int("muls", 1, "multiplier-class units for list scheduling (0 = unlimited)")
		styleName = flag.String("graph", "density", `graph style: "density" (paper) or "allcompat" (Chang–Pedram)`)
		costName  = flag.String("cost", "static", `energy model: "static" (eq. 1) or "activity" (eq. 2, synthetic traces)`)
		splitFull = flag.Bool("splitfull", false, "cut lifetimes at every accessible step (default: minimal cuts)")
		dotOut    = flag.String("dot", "", "write the flow network of the first block to this DOT file")
		verbose   = flag.Bool("v", false, "print per-variable assignments")
		gantt     = flag.Bool("gantt", false, "render lifetime and register-occupancy charts")
		schedName = flag.String("sched", "list", `scheduler: "list", "asap" or "fds" (force directed)`)
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		simulate  = flag.Bool("simulate", false, "execute each block under its allocation with synthetic inputs and verify it")
		dimacsOut = flag.String("dimacs", "", "write the flow network of the first block, with its R-unit s→t value, in DIMACS min-cost format")
		asm       = flag.Bool("asm", false, "print the lowered machine instruction stream (loads/stores/moves/ops)")
		profile   = flag.Bool("profile", false, "print the per-step storage energy profile (implies -simulate)")
		stats     = flag.Bool("stats", false, "print per-stage wall time and solver work for every block")
		parallel  = flag.Int("parallel", 1, "allocate up to this many blocks concurrently (output order is unchanged)")
	)
	flag.Parse()
	cfg := config{
		registers: *registers, divisor: *divisor, alus: *alus, muls: *muls,
		style: *styleName, cost: *costName, splitFull: *splitFull,
		dot: *dotOut, verbose: *verbose, gantt: *gantt, sched: *schedName,
		json: *jsonOut, simulate: *simulate || *profile, dimacs: *dimacsOut, asm: *asm, profile: *profile,
		stats: *stats, parallel: *parallel,
	}
	if err := runCfg(os.Stdout, cfg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "leaflow:", err)
		os.Exit(1)
	}
}

type config struct {
	registers, divisor, alus, muls int
	style, cost, sched             string
	splitFull, verbose, gantt      bool
	json, simulate, asm, profile   bool
	dot, dimacs                    string
	stats                          bool
	parallel                       int
}

// run keeps the original positional signature for the tests; runCfg is the
// full-featured entry point.
func run(w io.Writer, registers, divisor, alus, muls int, styleName, costName string, splitFull bool, dotOut string, verbose, gantt bool, schedName string, args []string) error {
	return runCfg(w, config{
		registers: registers, divisor: divisor, alus: alus, muls: muls,
		style: styleName, cost: costName, splitFull: splitFull,
		dot: dotOut, verbose: verbose, gantt: gantt, sched: schedName,
	}, args)
}

func runCfg(w io.Writer, cfg config, args []string) error {
	registers, divisor, alus, muls := cfg.registers, cfg.divisor, cfg.alus, cfg.muls
	styleName, costName, schedName := cfg.style, cfg.cost, cfg.sched
	splitFull, verbose, gantt := cfg.splitFull, cfg.verbose, cfg.gantt
	dotOut := cfg.dot
	var in io.Reader = os.Stdin
	if len(args) > 1 {
		return fmt.Errorf("at most one program file, got %d", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	prog, err := lowenergy.ParseProgram(in)
	if err != nil {
		return err
	}

	style := lowenergy.GraphDensityRegions
	switch styleName {
	case "density":
	case "allcompat":
		style = lowenergy.GraphAllCompatible
	default:
		return fmt.Errorf("unknown graph style %q", styleName)
	}
	model := lowenergy.DefaultModel().WithMemVoltage(lowenergy.VoltageForDivisor(divisor))
	var cost lowenergy.CostOptions
	switch costName {
	case "static":
		cost = lowenergy.StaticCost(model)
	case "activity":
		cost = lowenergy.ActivityCost(model, lowenergy.SyntheticHamming())
	default:
		return fmt.Errorf("unknown cost model %q", costName)
	}
	split := lowenergy.SplitMinimal
	if splitFull {
		split = lowenergy.SplitFull
	}
	opts := lowenergy.Options{
		Registers: registers,
		Memory:    lowenergy.MemoryAccess{Period: divisor, Offset: divisor},
		Split:     split,
		Style:     style,
		Cost:      cost,
	}
	switch schedName {
	case "list", "asap", "fds":
	default:
		return fmt.Errorf("unknown scheduler %q", schedName)
	}

	// Phase 1: schedule, lifetime and allocate every block. The blocks are
	// independent, so with -parallel > 1 they run on a bounded worker pool
	// (one reusable allocator per worker); the output phase below walks the
	// results in program order either way, so the report is identical.
	type work struct {
		task     string
		block    *lowenergy.Block
		schedule *lowenergy.Schedule
		set      *lowenergy.LifetimeSet
		res      *lowenergy.Result
	}
	var jobs []*work
	for _, task := range prog.Tasks {
		for _, block := range task.Blocks {
			jobs = append(jobs, &work{task: task.Name, block: block})
		}
	}
	allocBlock := func(alloc *lowenergy.Allocator, j *work) error {
		var err error
		switch schedName {
		case "list":
			j.schedule, err = lowenergy.ScheduleBlock(j.block, lowenergy.Resources{ALUs: alus, Multipliers: muls})
		case "asap":
			j.schedule, err = lowenergy.ScheduleASAP(j.block)
		case "fds":
			j.schedule, err = lowenergy.ScheduleForceDirected(j.block, 0)
		}
		if err != nil {
			return err
		}
		if j.set, err = lowenergy.Lifetimes(j.schedule); err != nil {
			return err
		}
		j.res, err = alloc.Allocate(j.set)
		return err
	}
	errs := make([]error, len(jobs))
	if cfg.parallel <= 1 {
		alloc, err := lowenergy.NewAllocator(opts)
		if err != nil {
			return err
		}
		for i, j := range jobs {
			if errs[i] = allocBlock(alloc, j); errs[i] != nil {
				break
			}
		}
	} else {
		workers := cfg.parallel
		if workers > len(jobs) {
			workers = len(jobs)
		}
		next := make(chan int)
		var wg sync.WaitGroup
		var startErr error
		for w := 0; w < workers; w++ {
			alloc, err := lowenergy.NewAllocator(opts)
			if err != nil {
				startErr = err
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = allocBlock(alloc, jobs[i])
				}
			}()
		}
		if startErr != nil {
			close(next)
			wg.Wait()
			return startErr
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("block %q: %w", jobs[i].block.Name, e)
		}
	}

	// Phase 2: report in program order.
	first := true
	for _, j := range jobs {
		{
			task, block, schedule, res := j.task, j.block, j.schedule, j.res
			set := j.set
			if cfg.json {
				if err := printJSON(w, task, block.Name, res, cfg.stats); err != nil {
					return err
				}
			} else {
				printBlock(w, task, block.Name, res, verbose, cfg.stats)
			}
			if cfg.simulate {
				if err := simulateBlock(w, schedule, res, block, cfg.json, cfg.profile, model); err != nil {
					return err
				}
			}
			if cfg.asm {
				mp, err := lowenergy.LowerToMachine(schedule, res)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "machine stream (%d loads, %d stores, %d moves, %d memory operands):\n%s\n",
					mp.Loads, mp.Stores, mp.Moves, mp.MemoryOperands, mp.Listing())
			}
			if first && cfg.dimacs != "" {
				f, err := os.Create(cfg.dimacs)
				if err != nil {
					return err
				}
				b := res.Build
				if err := b.Net.WriteDIMACS(f, "lowenergy: "+task+"/"+block.Name, b.S, b.T, int64(res.Options.Registers)); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			if gantt {
				if err := lowenergy.RenderLifetimes(w, set); err != nil {
					return err
				}
				if err := lowenergy.RenderDensity(w, set, registers); err != nil {
					return err
				}
				if err := lowenergy.RenderAllocation(w, res); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			if first && dotOut != "" {
				f, err := os.Create(dotOut)
				if err != nil {
					return err
				}
				if err := res.Build.WriteDot(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(w, "wrote network DOT to %s\n", dotOut)
			}
			first = false
		}
	}
	return nil
}

func printBlock(w io.Writer, task, name string, res *lowenergy.Result, verbose, stats bool) {
	fmt.Fprintf(w, "== task %s, block %s ==\n", task, name)
	fmt.Fprintf(w, "registers used:     %d of %d\n", res.RegistersUsed, res.Options.Registers)
	fmt.Fprintf(w, "memory locations:   %d\n", res.MemoryLocations)
	fmt.Fprintf(w, "energy:             %.3f (all-memory baseline %.3f, saving %.2fx)\n",
		res.TotalEnergy, res.BaselineEnergy, res.BaselineEnergy/res.TotalEnergy)
	fmt.Fprintf(w, "accesses:           mem %dr+%dw, reg %dr+%dw\n",
		res.Counts.MemReads, res.Counts.MemWrites, res.Counts.RegReads, res.Counts.RegWrites)
	fmt.Fprintf(w, "ports required:     mem %dr/%dw, reg %dr/%dw\n",
		res.Ports.MemReadPorts, res.Ports.MemWritePorts, res.Ports.RegReadPorts, res.Ports.RegWritePorts)
	if stats {
		fmt.Fprintf(w, "stats:              %s\n", res.Stats)
	}
	if verbose {
		type resident struct {
			v   string
			reg int
		}
		var rows []resident
		seen := map[string]bool{}
		for i, seg := range res.Build.Segments {
			if seen[seg.Var] {
				continue
			}
			seen[seg.Var] = true
			reg := -1
			if res.InRegister[i] {
				reg = res.RegOf[i]
			}
			rows = append(rows, resident{seg.Var, reg})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].v < rows[j].v })
		for _, r := range rows {
			where := "memory"
			if r.reg >= 0 {
				where = fmt.Sprintf("register r%d (first segment)", r.reg)
			}
			fmt.Fprintf(w, "  %-12s -> %s\n", r.v, where)
		}
	}
	fmt.Fprintln(w)
}

// blockJSON is the machine-readable per-block summary. Stats reuses the
// canonical core.RunStats JSON schema (shared with the leaserved
// /v1/allocate response) instead of an ad-hoc field set.
type blockJSON struct {
	Task            string              `json:"task"`
	Block           string              `json:"block"`
	Registers       int                 `json:"registers"`
	RegistersUsed   int                 `json:"registers_used"`
	MemoryLocations int                 `json:"memory_locations"`
	Energy          float64             `json:"energy"`
	BaselineEnergy  float64             `json:"baseline_energy"`
	MemReads        int                 `json:"mem_reads"`
	MemWrites       int                 `json:"mem_writes"`
	RegReads        int                 `json:"reg_reads"`
	RegWrites       int                 `json:"reg_writes"`
	MemReadPorts    int                 `json:"mem_read_ports"`
	MemWritePorts   int                 `json:"mem_write_ports"`
	RegReadPorts    int                 `json:"reg_read_ports"`
	RegWritePorts   int                 `json:"reg_write_ports"`
	Stats           *lowenergy.RunStats `json:"stats,omitempty"`
}

func printJSON(w io.Writer, task, name string, res *lowenergy.Result, stats bool) error {
	var sj *lowenergy.RunStats
	if stats {
		st := res.Stats
		sj = &st
	}
	enc := json.NewEncoder(w)
	return enc.Encode(blockJSON{
		Task:            task,
		Block:           name,
		Registers:       res.Options.Registers,
		RegistersUsed:   res.RegistersUsed,
		MemoryLocations: res.MemoryLocations,
		Energy:          res.TotalEnergy,
		BaselineEnergy:  res.BaselineEnergy,
		MemReads:        res.Counts.MemReads,
		MemWrites:       res.Counts.MemWrites,
		RegReads:        res.Counts.RegReads,
		RegWrites:       res.Counts.RegWrites,
		MemReadPorts:    res.Ports.MemReadPorts,
		MemWritePorts:   res.Ports.MemWritePorts,
		RegReadPorts:    res.Ports.RegReadPorts,
		RegWritePorts:   res.Ports.RegWritePorts,
		Stats:           sj,
	})
}

// simulateBlock executes the allocation on deterministic synthetic inputs
// and reports the verification outcome.
func simulateBlock(w io.Writer, schedule *lowenergy.Schedule, res *lowenergy.Result, block *lowenergy.Block, jsonOut, profile bool, model lowenergy.Model) error {
	inputs := map[string]lowenergy.Word{}
	for i, v := range block.Inputs {
		inputs[v] = lowenergy.Word((i*37)%64 - 32)
	}
	trace, err := lowenergy.Simulate(schedule, res, inputs)
	if err != nil {
		return fmt.Errorf("simulation failed (allocation invalid): %w", err)
	}
	if trace.Counts != res.Counts {
		return fmt.Errorf("simulation counts %+v disagree with the allocator's %+v", trace.Counts, res.Counts)
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(map[string]any{
			"simulated": true, "outputs": trace.Outputs, "write_backs": trace.WriteBacks, "moves": trace.Moves,
		})
	}
	fmt.Fprintf(w, "simulation:         OK (%d outputs verified, %d write-backs, %d moves)\n",
		len(trace.Outputs), trace.WriteBacks, trace.Moves)
	if profile {
		fmt.Fprint(w, "energy profile:    ")
		for step, e := range trace.EnergyProfile(model) {
			fmt.Fprintf(w, " %d:%.1f", step, e)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
