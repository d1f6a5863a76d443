// Package core is the paper's primary contribution: simultaneous low-energy
// memory partitioning and register allocation of a scheduled basic block via
// minimum-cost network flow. It splits lifetimes, builds the flow network,
// solves it, and decodes the flow into a register binding, a memory
// partition, access counts, port requirements and energy estimates.
package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
)

// Options configures one allocation run.
type Options struct {
	// Registers is the register-file size R; the flow shipped from s to t.
	Registers int
	// Memory restricts memory access times (§5.2); lifetime.FullSpeed means
	// unrestricted.
	Memory lifetime.MemoryAccess
	// Split selects the lifetime splitting policy under restricted memory.
	Split lifetime.SplitPolicy
	// ExtraCuts adds voluntary split points per variable (e.g. the region
	// cuts of Figure 4c, from lifetime.Set.ProposeRegionCuts).
	ExtraCuts map[string][]int
	// ForceRegister pins the segment of each referenced variable covering
	// the referenced step into the register file (flow lower bound 1), the
	// §7 mechanism for honouring port constraints.
	ForceRegister []SegmentRef
	// ForceMemory bars the referenced segments from the register file
	// (segment arc capacity 0) — the dual pin used to honour register-file
	// port limits.
	ForceMemory []SegmentRef
	// Style selects the network construction (paper density-region graph or
	// the Chang–Pedram all-compatible graph of Figure 4a/b).
	Style netbuild.GraphStyle
	// Cost selects the energy model driving arc costs.
	Cost netbuild.CostOptions
	// Debug re-validates the pipeline's intermediate artifacts with
	// internal/check at stage boundaries: split consistency after Split, and
	// construction plus an independent optimality certificate (conservation,
	// complementary slackness, energy re-derivation) after Solve. Costs a
	// pass over the network per allocation; off by default.
	Debug bool
}

// AccessCounts tallies storage accesses of a decoded solution under the
// event model (one count per actual read/write/load/write-back).
type AccessCounts struct {
	MemReads, MemWrites int
	RegReads, RegWrites int
}

// Mem returns total memory accesses.
func (a AccessCounts) Mem() int { return a.MemReads + a.MemWrites }

// Reg returns total register-file accesses.
func (a AccessCounts) Reg() int { return a.RegReads + a.RegWrites }

// PortReport gives the per-control-step concurrency of accesses: the port
// counts a component would need to sustain the solution (§7: "the number of
// memory or register file ports is determined from the solution").
type PortReport struct {
	MemReadPorts, MemWritePorts, MemTotalPorts int
	RegReadPorts, RegWritePorts, RegTotalPorts int
}

// Result is a decoded allocation.
type Result struct {
	Build    *netbuild.Build
	Solution *flow.Solution
	Options  Options
	// Stats reports per-stage wall time and solver work for this run.
	Stats RunStats
	// InRegister[i] reports whether flat segment i lives in the register
	// file; RegOf[i] gives its register index (-1 for memory).
	InRegister []bool
	RegOf      []int
	// Chains lists, per used register, the flat segment indices it holds in
	// time order.
	Chains [][]int
	// RegistersUsed counts registers that actually carry a variable.
	RegistersUsed int
	// Energy figures in normalised units under the configured cost style.
	BaselineEnergy  float64 // all-in-memory constant term
	ObjectiveEnergy float64 // flow objective (savings are negative)
	TotalEnergy     float64 // Baseline + Objective
	Counts          AccessCounts
	Ports           PortReport
	// MemoryLocations is the minimum number of memory words needed for the
	// memory-resident spans (maximum overlap of memory intervals).
	MemoryLocations int
	// Per-step traffic (index = control step; 0 and Steps+1 are the block
	// boundaries), for port analysis.
	memReadsByStep, memWritesByStep []int
	regReadsByStep, regWritesByStep []int
}

// MemTrafficAt reports the memory reads and writes in a control step.
func (r *Result) MemTrafficAt(step int) (reads, writes int) {
	if step < 0 || step >= len(r.memReadsByStep) {
		return 0, 0
	}
	return r.memReadsByStep[step], r.memWritesByStep[step]
}

// RegTrafficAt reports the register-file reads and writes in a control step.
func (r *Result) RegTrafficAt(step int) (reads, writes int) {
	if step < 0 || step >= len(r.regReadsByStep) {
		return 0, 0
	}
	return r.regReadsByStep[step], r.regWritesByStep[step]
}

// Allocate runs the full §5 pipeline on a lifetime set. It is shorthand for
// NewPipeline(opts) followed by one Pipeline.Allocate; callers allocating
// many blocks with the same options should hold a Pipeline to reuse its
// solver scratch space.
func Allocate(set *lifetime.Set, opts Options) (*Result, error) {
	p, err := NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Allocate(set)
}

// decode turns the flow solution into chains, counts, ports and energies.
func decode(b *netbuild.Build, sol *flow.Solution, opts Options) (*Result, error) {
	n := len(b.Segments)
	r := &Result{
		Build:      b,
		Solution:   sol,
		Options:    opts,
		InRegister: make([]bool, n),
		RegOf:      make([]int, n),
	}
	for i := range r.RegOf {
		r.RegOf[i] = -1
	}
	for i := range b.Segments {
		r.InRegister[i] = sol.Flow(b.SegArc[i]) > 0
	}
	// Successor map over transfers that carry flow.
	next := make(map[int]int, n) // fromSeg -> toSeg; -1 keys/values are s/t
	var starts []int
	for _, t := range b.Transfers {
		if t.Kind == netbuild.KindBypass || sol.Flow(t.Arc) == 0 {
			continue
		}
		if t.FromSeg == -1 {
			starts = append(starts, t.ToSeg)
			continue
		}
		if _, dup := next[t.FromSeg]; dup {
			return nil, fmt.Errorf("core: segment %d has two outgoing flow arcs", t.FromSeg)
		}
		next[t.FromSeg] = t.ToSeg
	}
	for reg, start := range starts {
		var chain []int
		for cur := start; cur != -1; {
			if !r.InRegister[cur] {
				return nil, fmt.Errorf("core: flow enters segment %d but its segment arc is empty", cur)
			}
			if r.RegOf[cur] != -1 {
				return nil, fmt.Errorf("core: segment %d assigned to two registers", cur)
			}
			r.RegOf[cur] = reg
			chain = append(chain, cur)
			nxt, ok := next[cur]
			if !ok {
				return nil, fmt.Errorf("core: flow through segment %d does not reach t", cur)
			}
			cur = nxt
		}
		r.Chains = append(r.Chains, chain)
	}
	for i := range b.Segments {
		if r.InRegister[i] && r.RegOf[i] == -1 {
			return nil, fmt.Errorf("core: segment %d carries flow but is on no chain", i)
		}
	}
	r.RegistersUsed = len(r.Chains)

	r.BaselineEnergy = b.ConstantEnergy
	r.ObjectiveEnergy = energy.Unquantize(sol.Cost)
	r.TotalEnergy = r.BaselineEnergy + r.ObjectiveEnergy

	r.tally()
	return r, nil
}

// groupedSegments reconstructs the per-variable grouping from the flat list
// (flat order is grouped by construction).
func (r *Result) groupedSegments() [][]lifetime.Segment {
	var grouped [][]lifetime.Segment
	segs := r.Build.Segments
	for i := 0; i < len(segs); {
		j := i
		for j < len(segs) && segs[j].Var == segs[i].Var {
			j++
		}
		grouped = append(grouped, segs[i:j])
		i = j
	}
	return grouped
}

// EnergyUnder re-evaluates the decoded assignment under a different cost
// model (e.g. report the activity-based energy of a static-optimised
// solution, as Table 1's E and aE columns do).
func (r *Result) EnergyUnder(co netbuild.CostOptions) float64 {
	e := netbuild.BaselineEnergy(co, r.groupedSegments())
	segs := r.Build.Segments
	for _, chain := range r.Chains {
		for k, idx := range chain {
			seg := &segs[idx]
			if k == 0 {
				e += netbuild.SourceCost(co, seg)
				continue
			}
			prev := &segs[chain[k-1]]
			if prev.Var == seg.Var && seg.Index == prev.Index+1 {
				e += netbuild.ChainCost(co, prev)
			} else {
				e += netbuild.CrossCost(co, prev, seg)
			}
		}
		if len(chain) > 0 {
			e += netbuild.SinkCost(co, &segs[chain[len(chain)-1]])
		}
	}
	return e
}

// tally computes event-accurate access counts, port pressure and memory
// location requirements from the decoded residences.
func (r *Result) tally() {
	steps := r.Build.Set.Steps
	memR := make([]int, steps+2) // index = control step; 0 = block entry, steps+1 = exit
	memW := make([]int, steps+2)
	regR := make([]int, steps+2)
	regW := make([]int, steps+2)

	type span struct{ start, end int } // half-points of memory residence
	var memSpans []span

	flat := r.Build.Segments
	for _, group := range r.groupedSegments() {
		// Locate the flat offset of this group.
		base := -1
		for i := range flat {
			if flat[i].Var == group[0].Var {
				base = i
				break
			}
		}
		inReg := func(k int) bool { return r.InRegister[base+k] }

		// Birth.
		first := &group[0]
		if first.StartKind == lifetime.BoundInput {
			if inReg(0) {
				// Load the input from memory into the register file.
				memR[clampStep(first.Start, steps)]++
				regW[clampStep(first.Start, steps)]++
			}
		} else {
			if inReg(0) {
				regW[first.Start]++
			} else {
				memW[first.Start]++
			}
		}

		// Memory-residence spans for location counting.
		spanStart := -1
		for k := range group {
			if !inReg(k) {
				if spanStart < 0 {
					spanStart = group[k].StartPoint()
				}
			} else if spanStart >= 0 {
				memSpans = append(memSpans, span{spanStart, group[k].StartPoint()})
				spanStart = -1
			}
		}
		if spanStart >= 0 {
			memSpans = append(memSpans, span{spanStart, group[len(group)-1].EndPoint()})
		}

		// Boundaries.
		for k := range group {
			seg := &group[k]
			step := clampStep(seg.End, steps)
			switch seg.EndKind {
			case lifetime.BoundRead, lifetime.BoundExternal:
				if inReg(k) {
					regR[step]++
				} else {
					memR[step]++
				}
			case lifetime.BoundCut:
				// No data access by itself.
			}
			if k+1 < len(group) {
				switch {
				case inReg(k) && !inReg(k+1):
					// Write-back to memory.
					regR[step]++
					memW[step]++
				case !inReg(k) && inReg(k+1):
					regW[step]++
					if seg.EndKind == lifetime.BoundCut {
						memR[step]++ // explicit load; read boundaries double as the load
					}
				case inReg(k) && inReg(k+1) && r.RegOf[base+k] != r.RegOf[base+k+1]:
					// Register-to-register move.
					regR[step]++
					regW[step]++
				}
			}
		}
	}

	r.Counts = AccessCounts{
		MemReads:  sum(memR),
		MemWrites: sum(memW),
		RegReads:  sum(regR),
		RegWrites: sum(regW),
	}
	r.memReadsByStep, r.memWritesByStep = memR, memW
	r.regReadsByStep, r.regWritesByStep = regR, regW
	// Port pressure only counts steps inside the block (1..steps); boundary
	// traffic at entry/exit is the neighbouring tasks' business.
	r.Ports = PortReport{
		MemReadPorts:  maxIn(memR, 1, steps),
		MemWritePorts: maxIn(memW, 1, steps),
		MemTotalPorts: maxSumIn(memR, memW, 1, steps),
		RegReadPorts:  maxIn(regR, 1, steps),
		RegWritePorts: maxIn(regW, 1, steps),
		RegTotalPorts: maxSumIn(regR, regW, 1, steps),
	}
	// Minimum memory words = max overlap of memory-resident spans.
	if len(memSpans) > 0 {
		maxPoint := 0
		for _, s := range memSpans {
			if s.end > maxPoint {
				maxPoint = s.end
			}
		}
		depth := make([]int, maxPoint+2)
		for _, s := range memSpans {
			for p := s.start; p <= s.end; p++ {
				depth[p]++
			}
		}
		for _, d := range depth {
			if d > r.MemoryLocations {
				r.MemoryLocations = d
			}
		}
	}
}

func clampStep(step, steps int) int {
	if step < 0 {
		return 0
	}
	if step > steps+1 {
		return steps + 1
	}
	return step
}

func sum(a []int) int {
	t := 0
	for _, v := range a {
		t += v
	}
	return t
}

func maxIn(a []int, lo, hi int) int {
	m := 0
	for i := lo; i <= hi && i < len(a); i++ {
		if a[i] > m {
			m = a[i]
		}
	}
	return m
}

func maxSumIn(a, b []int, lo, hi int) int {
	m := 0
	for i := lo; i <= hi && i < len(a); i++ {
		if s := a[i] + b[i]; s > m {
			m = s
		}
	}
	return m
}

// EnergyBreakdown splits the event-accurate static energy of a decoded
// allocation by storage component — the "where does the power go" view of
// ref. [14]. Event-accurate means per actual access, which can differ
// slightly from TotalEnergy's paper accounting (staged reads, write-back
// conventions); both are exposed deliberately.
type EnergyBreakdown struct {
	Memory       float64
	RegisterFile float64
}

// Total returns the summed breakdown.
func (b EnergyBreakdown) Total() float64 { return b.Memory + b.RegisterFile }

// Breakdown prices the access counts under a static model.
func (r *Result) Breakdown(m energy.Model) EnergyBreakdown {
	return EnergyBreakdown{
		Memory: float64(r.Counts.MemReads)*m.EMemRead() +
			float64(r.Counts.MemWrites)*m.EMemWrite(),
		RegisterFile: float64(r.Counts.RegReads)*m.ERegRead() +
			float64(r.Counts.RegWrites)*m.ERegWrite(),
	}
}

// Validate re-checks the decoded solution's structural invariants: flow
// feasibility on the network, chain disjointness and time order, forced and
// barred residences respected. Returns the first violation. The solver's
// output always passes; exposed so downstream tools can verify results they
// deserialised or mutated.
func (r *Result) Validate() error {
	segs := r.Build.Segments
	if len(r.InRegister) != len(segs) || len(r.RegOf) != len(segs) {
		return fmt.Errorf("core: result arrays sized %d/%d for %d segments", len(r.InRegister), len(r.RegOf), len(segs))
	}
	for i := range segs {
		if segs[i].Forced && !r.InRegister[i] {
			return fmt.Errorf("core: forced segment %s in memory", segs[i].String())
		}
		if segs[i].Barred && r.InRegister[i] {
			return fmt.Errorf("core: barred segment %s in a register", segs[i].String())
		}
		if r.InRegister[i] != (r.RegOf[i] >= 0) {
			return fmt.Errorf("core: segment %s residence flags inconsistent", segs[i].String())
		}
	}
	seen := make(map[int]bool)
	for reg, chain := range r.Chains {
		for k, idx := range chain {
			if idx < 0 || idx >= len(segs) {
				return fmt.Errorf("core: chain %d references segment %d", reg, idx)
			}
			if seen[idx] {
				return fmt.Errorf("core: segment %d on two chains", idx)
			}
			seen[idx] = true
			if r.RegOf[idx] != reg {
				return fmt.Errorf("core: segment %d labelled r%d but chained on r%d", idx, r.RegOf[idx], reg)
			}
			if k > 0 {
				prev := &segs[chain[k-1]]
				if prev.EndPoint() >= segs[idx].StartPoint() {
					return fmt.Errorf("core: chain %d overlaps: %s then %s", reg, prev.String(), segs[idx].String())
				}
			}
		}
	}
	for i := range segs {
		if r.InRegister[i] && !seen[i] {
			return fmt.Errorf("core: register segment %d on no chain", i)
		}
	}
	return nil
}
