package lowenergy

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/memmap"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Core result and option types.
type (
	// Options configures an allocation run (register count, memory access
	// restriction, split policy, graph style, cost model).
	Options = core.Options
	// Result is a decoded allocation: register chains, memory partition,
	// energies, access counts and port requirements.
	Result = core.Result
	// Allocator is a reusable staged allocation pipeline
	// (Split → Pin → Build → Solve → Decode) with its solver scratch space
	// retained across runs. Not safe for concurrent use; give each goroutine
	// its own.
	Allocator = core.Pipeline
	// RunStats reports per-stage wall time and solver work for one run.
	RunStats = core.RunStats
	// SolveStats holds the min-cost-flow engine's work counters.
	SolveStats = flow.SolveStats
	// AccessCounts tallies memory and register-file accesses.
	AccessCounts = core.AccessCounts
	// PortReport gives per-component port requirements (§7).
	PortReport = core.PortReport
	// Prepared is a lifetime set split, pinned and built once, ready for
	// repeated warm-started solves across register counts and cost models.
	Prepared = core.Prepared
	// PreparedCostView is one cost model priced against a Prepared problem's
	// network template, reusable across register counts.
	PreparedCostView = core.CostView
	// CostOptions selects the energy model driving arc costs.
	CostOptions = netbuild.CostOptions
	// GraphStyle selects the network construction.
	GraphStyle = netbuild.GraphStyle
	// Model is a storage energy model with voltage scaling.
	Model = energy.Model
	// Hamming supplies switching activity between variables.
	Hamming = energy.Hamming
	// MemoryAccess restricts memory access times (§5.2).
	MemoryAccess = lifetime.MemoryAccess
	// SplitPolicy selects how lifetimes split at restricted access times.
	SplitPolicy = lifetime.SplitPolicy
	// Lifetime is one variable's write/read profile.
	Lifetime = lifetime.Lifetime
	// LifetimeSet is the lifetimes of a scheduled basic block.
	LifetimeSet = lifetime.Set
	// Segment is one split-lifetime arc.
	Segment = lifetime.Segment
	// Schedule assigns instructions to control steps.
	Schedule = sched.Schedule
	// Resources bounds functional units for list scheduling.
	Resources = sched.Resources
	// Block is a basic block of three-address code.
	Block = ir.Block
	// Instr is a three-address instruction.
	Instr = ir.Instr
	// Program is a set of tasks of basic blocks.
	Program = ir.Program
	// Partition is a whole-lifetime baseline assignment.
	Partition = baseline.Partition
	// MemoryBinding maps memory variables to locations (second-stage
	// allocation).
	MemoryBinding = memmap.Binding
)

// Graph styles.
const (
	// GraphDensityRegions is the paper's construction (minimum memory
	// locations guaranteed).
	GraphDensityRegions = netbuild.DensityRegions
	// GraphAllCompatible is the Chang–Pedram style graph of Figure 4a/b.
	GraphAllCompatible = netbuild.AllCompatible
)

// Split policies.
const (
	// SplitMinimal cuts lifetimes only where restricted memory access
	// requires it (Figure 1c).
	SplitMinimal = lifetime.SplitMinimal
	// SplitFull cuts at every accessible step inside a lifetime.
	SplitFull = lifetime.SplitFull
)

// FullSpeedMemory is the unrestricted memory access pattern.
var FullSpeedMemory = lifetime.FullSpeed

// DefaultModel returns the paper's experimental setup: a single-port
// 256x16-bit on-chip memory and a 16x16-bit register file at 5V, with
// ref. [14]'s energy ratios.
func DefaultModel() Model { return energy.OnChip256x16() }

// OffChipModel returns an external-memory variant.
func OffChipModel() Model { return energy.OffChip() }

// VoltageForDivisor maps a memory frequency divisor (1, 2, 4) to the scaled
// supply voltage of Table 1 (5V, 3.3V, 2V).
func VoltageForDivisor(div int) float64 { return energy.VoltageForDivisor(div) }

// StaticCost builds the eq. (1) static cost model.
func StaticCost(m Model) CostOptions {
	return CostOptions{Style: energy.Static, Model: m}
}

// ActivityCost builds the eq. (2) activity cost model with the given
// switching-activity oracle.
func ActivityCost(m Model, h Hamming) CostOptions {
	return CostOptions{Style: energy.Activity, Model: m, H: h}
}

// SyntheticHamming returns a deterministic trace-based switching-activity
// oracle (see internal/trace).
func SyntheticHamming() Hamming { return trace.Hamming() }

// ConstHamming returns a fixed-fraction oracle.
func ConstHamming(h float64) Hamming { return energy.ConstHamming(h) }

// ParseProgram reads a program in the TAC text format (see ir.Parse for the
// grammar).
func ParseProgram(r io.Reader) (*Program, error) { return ir.Parse(r) }

// ParseProgramString parses TAC text from a string.
func ParseProgramString(s string) (*Program, error) { return ir.ParseString(s) }

// FormatProgram writes a program back as TAC text.
func FormatProgram(w io.Writer, p *Program) error { return ir.Format(w, p) }

// ScheduleBlock list-schedules a block under the given resource bounds
// (zero bounds mean unlimited, i.e. ASAP-like behaviour with unit delays).
func ScheduleBlock(b *Block, res Resources) (*Schedule, error) { return sched.List(b, res) }

// ScheduleASAP schedules every instruction as early as dependencies allow.
func ScheduleASAP(b *Block) (*Schedule, error) { return sched.ASAP(b) }

// ScheduleALAP schedules every instruction as late as the critical path
// allows.
func ScheduleALAP(b *Block) (*Schedule, error) { return sched.ALAP(b) }

// Lifetimes derives the variable lifetimes of a schedule.
func Lifetimes(s *Schedule) (*LifetimeSet, error) { return lifetime.FromSchedule(s) }

// Allocate runs the paper's simultaneous memory partitioning and register
// allocation on a lifetime set.
func Allocate(set *LifetimeSet, opts Options) (*Result, error) { return core.Allocate(set, opts) }

// NewAllocator validates opts and returns a reusable allocation pipeline.
// Allocating many blocks through one Allocator reuses the solver's scratch
// space.
func NewAllocator(opts Options) (*Allocator, error) { return core.NewPipeline(opts) }

// Prepare splits, pins and builds the network for a lifetime set once
// (opts.Registers and opts.Cost only seed the template; both can vary per
// solve). Prepared.Allocate and Prepared.AllocateView then re-solve warm:
// the solver keeps the residual network and node potentials between calls,
// so changing the register count augments only the flow-value delta and
// changing the cost model swaps arc costs without rebuilding. Not safe for
// concurrent use; give each goroutine its own Prepared.
func Prepare(set *LifetimeSet, opts Options) (*Prepared, error) { return core.Prepare(set, opts) }

// AllocateBlock is the full pipeline: schedule the block, derive lifetimes
// and allocate.
func AllocateBlock(b *Block, res Resources, opts Options) (*Result, error) {
	s, err := sched.List(b, res)
	if err != nil {
		return nil, err
	}
	set, err := lifetime.FromSchedule(s)
	if err != nil {
		return nil, err
	}
	return core.Allocate(set, opts)
}

// ChangPedram runs the sequential prior-art flow of [8]: register allocation
// minimising switching activity, then partitioning by descending activity.
func ChangPedram(set *LifetimeSet, registers int, co CostOptions) (*Partition, error) {
	return baseline.ChangPedram(set, registers, co)
}

// LeftEdge runs the classic left-edge allocator with capacity spilling.
func LeftEdge(set *LifetimeSet, registers int) (*Partition, error) {
	return baseline.LeftEdge(set, registers)
}

// Chaitin runs graph-colouring register allocation with degree-based
// spilling.
func Chaitin(set *LifetimeSet, registers int) (*Partition, error) {
	return baseline.Chaitin(set, registers)
}

// BindMemory runs the second-stage memory allocation (§5): memory-resident
// variables are bound to a minimum number of locations minimising switching
// activity.
func BindMemory(set *LifetimeSet, memVars []string, h Hamming) (*MemoryBinding, error) {
	return memmap.Allocate(set, memVars, h)
}

// MemoryVariables lists the variables of a result with at least one
// memory-resident segment, ready for BindMemory. Output order is
// deterministic: first appearance in the flat segment order.
func MemoryVariables(r *Result) []string { return r.MemoryVariables() }
