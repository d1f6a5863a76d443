package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
)

// Prepared is an allocation problem with the expensive, cost-independent
// half done once: lifetimes split, pins applied and the flow network built
// as a netbuild.Template. Allocate then re-solves it for any register count
// and cost model, swapping cost vectors on the solver's retained scratch
// (flow.Network.MinCostFlowValueWithCostsInto) instead of rebuilding — the
// design-space exploration hot path. Pipeline.Allocate is Prepare plus one
// such solve, so the cold allocation and the warm re-solve share one
// implementation. A Prepared is not safe for concurrent use; give each
// goroutine its own.
type Prepared struct {
	opts      Options
	scratch   *flow.Scratch
	tpl       *netbuild.Template
	baseStats RunStats        // sizes for every run; prepare timings until one run reports them
	costs     []int64         // reusable cost-vector buffer
	sol       flow.Solution   // reusable solve output; aliased by Result.Solution
	sst       flow.SolveStats // reusable solver stats, copied into Result.Stats
}

// Prepare validates the options and runs the cost-independent pipeline
// stages (Split → Pin → Build) once. Options.Registers and Options.Cost act
// as defaults only; Prepared.Allocate chooses both per solve.
func Prepare(set *lifetime.Set, opts Options) (*Prepared, error) {
	p, err := NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Prepare(set)
}

// Prepare runs the pipeline's Split → Pin → Build stages once and returns
// the reusable problem. The Prepared shares the pipeline's solver scratch:
// interleaving Pipeline.Allocate and Prepared.Allocate is legal but
// forfeits the warm start (each Pipeline.Allocate prepares its own network
// on the shared scratch, evicting the prepared residual).
func (p *Pipeline) Prepare(set *lifetime.Set) (*Prepared, error) {
	start := time.Now()
	var stats RunStats
	grouped, err := p.split(set, &stats)
	if err != nil {
		return nil, err
	}
	if err := p.debugSplit(set, grouped); err != nil {
		return nil, err
	}
	if err := p.pin(grouped, &stats); err != nil {
		return nil, err
	}
	t0 := time.Now()
	tpl, err := netbuild.NewTemplate(set, grouped, p.opts.Style, p.opts.Cost)
	stats.BuildTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	stats.Nodes = tpl.Build.Net.N()
	stats.Arcs = tpl.Build.Net.M()
	stats.TotalTime = time.Since(start)
	return &Prepared{
		opts:      p.opts,
		scratch:   p.scratch,
		tpl:       tpl,
		baseStats: stats,
	}, nil
}

// Template exposes the underlying network template (read-only).
func (pre *Prepared) Template() *netbuild.Template { return pre.tpl }

// CostView is one cost model priced against a Prepared problem: the per-arc
// cost vector and the all-in-memory baseline, computed once and reusable
// across any number of AllocateView calls. Sweeps that revisit the same
// model at many register counts (the common grid shape) should price each
// model once instead of per cell.
type CostView struct {
	co       netbuild.CostOptions
	costs    []int64
	baseline float64
}

// CostView prices the prepared problem under co.
func (pre *Prepared) CostView(co netbuild.CostOptions) (*CostView, error) {
	costs, baseline, err := pre.tpl.CostVector(co)
	if err != nil {
		return nil, err
	}
	return &CostView{co: co, costs: costs, baseline: baseline}, nil
}

// Allocate solves the prepared problem for one register count under one cost
// model and decodes the result. Successive calls reuse the built topology
// (Result.Stats.Solver reports WarmStart); a call that keeps or raises the
// previous register count under the same cost model additionally keeps the
// previous optimum and ships only the difference, one augmentation per
// extra register at every memory divisor (Incremental). Every answer equals
// a cold Allocate's, arc for arc. The first Result after Prepare carries
// the one-off SplitTime/PinTime/BuildTime, and its TotalTime includes
// Prepare's wall time; every later Result reports the three as zero and
// times only its own solve and decode, so stage times summed over results
// count the preparation exactly once and every Result's TotalTime covers
// its stage sum.
//
// The Result's Solution field aliases the Prepared's reusable solve buffer:
// it is valid until the next Allocate/AllocateView on this Prepared. Callers
// that keep solutions across solves must copy FlowByArc; everything else in
// the Result (binding, counts, energies) is freshly decoded and safe to
// retain.
func (pre *Prepared) Allocate(registers int, co netbuild.CostOptions) (*Result, error) {
	var baseline float64
	var err error
	pre.costs, baseline, err = pre.tpl.CostVectorInto(pre.costs, co)
	if err != nil {
		return nil, err
	}
	return pre.allocate(registers, co, pre.costs, baseline)
}

// AllocateView is Allocate with the cost model priced ahead of time.
func (pre *Prepared) AllocateView(registers int, view *CostView) (*Result, error) {
	return pre.allocate(registers, view.co, view.costs, view.baseline)
}

func (pre *Prepared) allocate(registers int, co netbuild.CostOptions, costs []int64, baseline float64) (*Result, error) {
	if registers < 0 {
		return nil, fmt.Errorf("core: negative register count %d", registers)
	}
	start := time.Now()
	stats := pre.baseStats

	b := pre.tpl.Build
	t0 := time.Now()
	sol := &pre.sol
	err := b.Net.MinCostFlowValueWithCostsInto(nil, costs, pre.scratch, b.S, b.T, int64(registers), sol, &pre.sst)
	stats.SolveTime = time.Since(t0)
	stats.Solver = pre.sst
	if err != nil {
		if errors.Is(err, flow.ErrInfeasible) {
			return nil, fmt.Errorf("core: %d registers cannot satisfy the forced register residences (raise R or relax memory restrictions): %w", registers, err)
		}
		return nil, err
	}

	opts := pre.opts
	opts.Registers = registers
	opts.Cost = co
	view := pre.tpl.BuildFor(co, baseline)
	if err := debugSolve(opts, view, sol, registers); err != nil {
		return nil, err
	}
	t0 = time.Now()
	res, err := decode(view, sol, opts)
	stats.DecodeTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	stats.TotalTime += time.Since(start)
	res.Stats = stats
	pre.baseStats.SplitTime, pre.baseStats.PinTime, pre.baseStats.BuildTime, pre.baseStats.TotalTime = 0, 0, 0, 0
	if c := statsCollector(); c != nil {
		c(stats)
	}
	return res, nil
}
