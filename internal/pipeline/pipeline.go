// Package pipeline drives the paper's full §5 methodology over a whole
// program: each task's basic blocks are scheduled, lifetimed, allocated by
// the min-cost-flow core, and their memory-resident variables bound to
// locations by the second-stage allocator. Values crossing block boundaries
// are handed over through memory (the model behind the paper's external
// lifetimes), which is also statically checked here. This is the "beyond
// basic blocks" direction §7 points at.
package pipeline

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/memmap"
	"repro/internal/sched"
)

// Config parameterises a program run.
type Config struct {
	// Resources bounds the list scheduler per block.
	Resources sched.Resources
	// Options is the per-block allocation configuration (registers, memory
	// restriction, cost model, graph style, solver engine).
	Options core.Options
	// Hamming drives the second-stage memory binding; nil uses the
	// half-switch default.
	Hamming energy.Hamming
	// AllowExternalInputs admits block inputs produced by no earlier block
	// (treated as program inputs). When false such inputs are an error.
	AllowExternalInputs bool
	// Workers bounds the number of blocks allocated concurrently; 0 or 1
	// runs sequentially. Blocks are independent once the dataflow handover
	// is checked, and results are assembled in program order, so any worker
	// count returns identical results.
	Workers int
	// Debug re-validates every block's schedule, lifetimes and solved
	// allocation with internal/check (including an independent optimality
	// certificate for each solve). Off by default; costs a pass over each
	// block's network.
	Debug bool
}

// BlockResult is one block's outcome.
type BlockResult struct {
	Task, Block string
	Schedule    *sched.Schedule
	Set         *lifetime.Set
	Result      *core.Result
	Binding     *memmap.Binding
}

// ProgramResult aggregates a whole program.
type ProgramResult struct {
	Blocks []BlockResult
	// TotalEnergy sums the per-block storage energies.
	TotalEnergy float64
	// BaselineEnergy sums the all-in-memory baselines.
	BaselineEnergy float64
	Counts         core.AccessCounts
	// PeakMemoryLocations is the largest per-block memory word requirement;
	// blocks execute sequentially so words are reused across blocks.
	PeakMemoryLocations int
	// PeakRegistersUsed is the largest per-block register usage.
	PeakRegistersUsed int
}

// Run processes every block of every task. Blocks execute sequentially on
// the target (their values hand over through memory), but their allocation
// problems are independent, so with cfg.Workers > 1 they are solved
// concurrently on a bounded worker pool; results are assembled in program
// order either way, so the output is identical to the sequential path.
func Run(p *ir.Program, cfg Config) (*ProgramResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := check.Dataflow(p, cfg.AllowExternalInputs).Err(); err != nil {
		return nil, err
	}

	type job struct {
		task  string
		block *ir.Block
	}
	var jobs []job
	for _, task := range p.Tasks {
		for _, block := range task.Blocks {
			jobs = append(jobs, job{task.Name, block})
		}
	}

	results := make([]BlockResult, len(jobs))
	errs := make([]error, len(jobs))
	if cfg.Workers <= 1 {
		// Sequential: one allocation pipeline reused across blocks (scratch
		// reuse), stopping at the first error.
		alloc, err := core.NewPipeline(cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		for i, j := range jobs {
			results[i], errs[i] = runBlock(alloc, j.task, j.block, cfg)
			if errs[i] != nil {
				break
			}
		}
	} else {
		// Bounded worker pool; each worker holds its own allocation pipeline
		// (a core.Pipeline is not safe for concurrent use).
		workers := cfg.Workers
		if workers > len(jobs) {
			workers = len(jobs)
		}
		next := make(chan int)
		var wg sync.WaitGroup
		var startErr error
		var startOnce sync.Once
		for w := 0; w < workers; w++ {
			alloc, err := core.NewPipeline(cfg.Options)
			if err != nil {
				startOnce.Do(func() { startErr = err })
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = runBlock(alloc, jobs[i].task, jobs[i].block, cfg)
				}
			}()
		}
		if startErr != nil {
			close(next)
			wg.Wait()
			return nil, fmt.Errorf("pipeline: %w", startErr)
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	// Deterministic error reporting: the first failing block in program
	// order, exactly as the sequential path would surface it.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: task %q block %q: %w", jobs[i].task, jobs[i].block.Name, err)
		}
	}

	out := &ProgramResult{}
	for i := range results {
		br := results[i]
		out.Blocks = append(out.Blocks, br)
		out.TotalEnergy += br.Result.TotalEnergy
		out.BaselineEnergy += br.Result.BaselineEnergy
		out.Counts.MemReads += br.Result.Counts.MemReads
		out.Counts.MemWrites += br.Result.Counts.MemWrites
		out.Counts.RegReads += br.Result.Counts.RegReads
		out.Counts.RegWrites += br.Result.Counts.RegWrites
		if br.Binding.Locations > out.PeakMemoryLocations {
			out.PeakMemoryLocations = br.Binding.Locations
		}
		if br.Result.RegistersUsed > out.PeakRegistersUsed {
			out.PeakRegistersUsed = br.Result.RegistersUsed
		}
	}
	return out, nil
}

func runBlock(alloc *core.Pipeline, taskName string, block *ir.Block, cfg Config) (BlockResult, error) {
	s, err := sched.List(block, cfg.Resources)
	if err != nil {
		return BlockResult{}, err
	}
	set, err := lifetime.FromSchedule(s)
	if err != nil {
		return BlockResult{}, err
	}
	res, err := alloc.Allocate(set)
	if err != nil {
		return BlockResult{}, err
	}
	h := cfg.Hamming
	if h == nil {
		h = energy.ConstHamming(0.5)
	}
	bind, err := memmap.Allocate(set, res.MemoryVariables(), h)
	if err != nil {
		return BlockResult{}, err
	}
	if cfg.Debug {
		ds := check.All(check.Artifacts{
			Schedule:  s,
			Resources: cfg.Resources,
			Set:       set,
			Build:     res.Build,
			Solution:  res.Solution,
			Registers: res.Options.Registers,
		})
		if err := ds.Err(); err != nil {
			return BlockResult{}, fmt.Errorf("debug check: %w", err)
		}
	}
	return BlockResult{
		Task:     taskName,
		Block:    block.Name,
		Schedule: s,
		Set:      set,
		Result:   res,
		Binding:  bind,
	}, nil
}

// Summary renders the program result as an aligned text table, one row per
// block plus a totals line.
func (pr *ProgramResult) Summary(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %8s %10s %10s %8s %6s\n",
		"task", "block", "vars", "energy", "baseline", "mem acc", "regs")
	for _, br := range pr.Blocks {
		fmt.Fprintf(&b, "%-12s %-12s %8d %10.2f %10.2f %8d %6d\n",
			br.Task, br.Block, len(br.Set.Lifetimes),
			br.Result.TotalEnergy, br.Result.BaselineEnergy,
			br.Result.Counts.Mem(), br.Result.RegistersUsed)
	}
	fmt.Fprintf(&b, "%-12s %-12s %8s %10.2f %10.2f %8d %6d\n",
		"total", "", "",
		pr.TotalEnergy, pr.BaselineEnergy, pr.Counts.Mem(), pr.PeakRegistersUsed)
	fmt.Fprintf(&b, "peak memory locations: %d\n", pr.PeakMemoryLocations)
	_, err := io.WriteString(w, b.String())
	return err
}
