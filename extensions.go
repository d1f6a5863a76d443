package lowenergy

import (
	"io"

	"repro/internal/actmem"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/moa"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/regen"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Extension types (§7 directions and the conclusion's offset-assignment
// extension).
type (
	// PortLimits bounds per-step memory port usage for AllocateWithPorts.
	PortLimits = core.PortLimits
	// SegmentRef pins a variable's segment (by a covered step) into the
	// register file.
	SegmentRef = core.SegmentRef
	// SimTrace is a cycle-accurate simulation outcome.
	SimTrace = simulate.Trace
	// Word is the simulated datapath word.
	Word = simulate.Word
	// PipelineConfig configures a whole-program run.
	PipelineConfig = pipeline.Config
	// PipelineResult aggregates a whole-program run.
	PipelineResult = pipeline.ProgramResult
	// RegenOptions tunes the data-regeneration transformation.
	RegenOptions = regen.Options
	// RegenDecision records one regeneration verdict.
	RegenDecision = regen.Decision
	// OffsetAssignment is a DSP address-register offset assignment.
	OffsetAssignment = moa.Assignment
)

// AllocateWithPorts allocates under per-step memory port limits by pinning
// segments into the register file until the limits hold (§7: "sets certain
// arc flows to 1").
func AllocateWithPorts(set *LifetimeSet, opts Options, limits PortLimits) (*Result, error) {
	return core.AllocateWithPorts(set, opts, limits)
}

// Simulate executes the schedule under the decoded allocation on a
// cycle-accurate storage model, verifying that every read obtains the right
// value from the claimed location and independently counting accesses.
func Simulate(s *Schedule, res *Result, inputs map[string]Word) (*SimTrace, error) {
	return simulate.Run(s, res, inputs)
}

// Evaluate computes a block's reference dataflow values.
func Evaluate(b *Block, inputs map[string]Word) (map[string]Word, error) {
	return simulate.Evaluate(b, inputs)
}

// RunProgram drives the full §5 methodology over every block of a program.
func RunProgram(p *Program, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.Run(p, cfg)
}

// CheckProgramDataflow verifies block-to-block value handover: every block
// input is an output of an earlier block (in task order) or, when
// allowExternal, a program input, and every value has one producer.
func CheckProgramDataflow(p *Program, allowExternal bool) error {
	return check.Dataflow(p, allowExternal).Err()
}

// Regenerate applies the data-regeneration transformation (§5 methodology):
// values cheaper to recompute than to carry are re-derived at their
// consumers.
func Regenerate(b *Block, options RegenOptions) (*Block, []RegenDecision, error) {
	return regen.Transform(b, options)
}

// AssignOffsets runs simple offset assignment (one address register) on a
// memory access sequence.
func AssignOffsets(sequence []string) (*OffsetAssignment, error) {
	return moa.SOA(sequence)
}

// AssignOffsetsGeneral runs general offset assignment across several address
// registers.
func AssignOffsetsGeneral(sequence []string, addressRegisters int) (*OffsetAssignment, error) {
	return moa.GOA(sequence, addressRegisters)
}

// MemoryAccessSequence derives the ordered memory access stream of a decoded
// allocation, the input to offset assignment.
func MemoryAccessSequence(r *Result) []string {
	return moa.AccessSequence(r)
}

// ScheduleForceDirected runs Paulin–Knight force-directed scheduling at the
// given latency (0 = the ASAP critical path), flattening resource usage and
// lifetime density before allocation.
func ScheduleForceDirected(b *Block, latency int) (*Schedule, error) {
	return sched.ForceDirected(b, latency)
}

// RenderLifetimes writes the ASCII interval chart of a lifetime set (the
// Figure 1 view).
func RenderLifetimes(w io.Writer, set *LifetimeSet) error {
	return viz.Lifetimes(w, set)
}

// RenderAllocation writes the ASCII register-occupancy chart of a decoded
// allocation.
func RenderAllocation(w io.Writer, r *Result) error {
	return viz.Allocation(w, r)
}

// Two-commodity co-optimisation types (§7 calls the exact problem
// NP-complete; this is the alternating heuristic).
type (
	// CoOptimizeOptions configures the partition/binding alternation.
	CoOptimizeOptions = actmem.Options
	// CoOptimizeResult is the converged outcome.
	CoOptimizeResult = actmem.Result
)

// CoOptimizeMemory alternates the register/memory partition with the
// activity-minimal memory binding, approximating the two-commodity problem
// of §7. With CmemV2 = 0 it reduces to the paper's sequential two-stage
// flow.
func CoOptimizeMemory(set *LifetimeSet, opt CoOptimizeOptions) (*CoOptimizeResult, error) {
	return actmem.Optimize(set, opt)
}

// OptStats summarises a clean-up pass.
type OptStats = opt.Stats

// OptimizeBlock runs common-subexpression elimination followed by dead-code
// elimination — the standard clean-up before scheduling and allocation.
func OptimizeBlock(b *Block) (*Block, OptStats, error) {
	return opt.Pipeline(b)
}

// DeadCodeEliminate removes instructions whose results are never used.
func DeadCodeEliminate(b *Block) (*Block, OptStats, error) {
	return opt.DeadCodeEliminate(b)
}

// CommonSubexpressions folds recomputed expressions onto their first
// occurrence.
func CommonSubexpressions(b *Block) (*Block, OptStats, error) {
	return opt.CommonSubexpressions(b)
}

// RegPortLimits bounds register-file port usage for AllocateWithRegPorts.
type RegPortLimits = core.RegPortLimits

// AllocateWithRegPorts is the register-file dual of AllocateWithPorts:
// segments are barred from the register file until the per-step register
// port budget holds (§7 names both components as constrainable).
func AllocateWithRegPorts(set *LifetimeSet, opts Options, limits RegPortLimits) (*Result, error) {
	return core.AllocateWithRegPorts(set, opts, limits)
}

// EnergyBreakdown is the per-component event-accurate energy split.
type EnergyBreakdown = core.EnergyBreakdown

// BenchmarkKernels returns the classic HLS benchmark constructors (elliptic
// wave filter, AR lattice filter, 8-point FDCT) plus the synthetic radar
// kernel of Table 1.
func BenchmarkKernels() map[string]func() (*Block, error) {
	kernels := map[string]func() (*Block, error){
		"rsp": func() (*Block, error) { return workload.RSPBlock(workload.DefaultRSP) },
	}
	for name, mk := range workload.HLSBenchmarks() {
		kernels[name] = mk
	}
	return kernels
}

// Machine-level lowering types (§5's "detailed instruction mapping").
type (
	// MachineProgram is the lowered load/store/move/compute stream.
	MachineProgram = emit.Program
	// MachineOp is one lowered instruction.
	MachineOp = emit.MachineOp
)

// LowerToMachine lowers a schedule plus its decoded allocation into an
// explicit machine instruction stream over the register file and memory —
// the paper's final synthesis stage.
func LowerToMachine(s *Schedule, res *Result) (*MachineProgram, error) {
	return emit.Lower(s, res)
}

// ExecMachine executes a lowered program on the explicit machine with VLIW
// per-step semantics, returning the final value of every variable.
func ExecMachine(p *MachineProgram, b *Block, inputs map[string]Word) (map[string]Word, error) {
	return emit.Exec(p, b, inputs)
}

// ChaitinSpillCost is Chaitin colouring with the classic uses/degree
// spill-cost heuristic instead of pure degree.
func ChaitinSpillCost(set *LifetimeSet, registers int) (*Partition, error) {
	return baseline.ChaitinSpillCost(set, registers)
}

// CopyPropagate replaces reads of move results with their sources and drops
// the dead moves.
func CopyPropagate(b *Block) (*Block, OptStats, error) {
	return opt.CopyPropagate(b)
}

// RenderDensity writes the per-step lifetime density bar chart with the
// register-count waterline.
func RenderDensity(w io.Writer, set *LifetimeSet, registers int) error {
	return viz.Density(w, set, registers)
}

// AGUProgram is the lowered address-generation stream of an offset
// assignment.
type AGUProgram = moa.AGUProgram

// LowerAddressStream turns an offset assignment plus its access sequence
// into concrete AGU actions (post-increment/decrement/ldar), completing the
// conclusion's extension at the instruction level.
func LowerAddressStream(sequence []string, a *OffsetAssignment) (*AGUProgram, error) {
	return moa.LowerAGU(sequence, a)
}
