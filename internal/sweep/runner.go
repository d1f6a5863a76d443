package sweep

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
)

// Runner is a reusable sweep: the per-divisor column state — the prepared
// problem (topology, solver scratch) and the priced cost views — is built
// once by NewRunner and kept across Run calls. A repeated sweep then
// re-solves every cell through the solver's warm-start path with zero
// rebuild work, the shape of a monitoring dashboard or an interactive
// explorer re-evaluating the same grid as inputs tick. Each column owns its
// engine scratch, so columns solve concurrently (Options.Workers) without
// sharing; a Runner itself must not be used from concurrent Run calls.
type Runner struct {
	set  *lifetime.Set
	opt  Options
	base energy.Model
	cols []column
}

// column is one divisor's persistent solve state.
type column struct {
	div     int
	voltage float64
	model   energy.Model
	// pre is nil when the column's lifetimes cannot be split for this
	// divisor; every cell in the column then stays infeasible.
	pre          *core.Prepared
	staticView   *core.CostView
	activityView *core.CostView
}

// NewRunner validates the options and prepares every divisor column:
// lifetime split, network build and cost-model pricing, the cost-independent
// work a warm re-sweep never repeats. Columns prepare concurrently under
// Options.Workers. With Options.ColdStart set no state is prepared; each Run
// falls back to the original per-cell cold path.
func NewRunner(set *lifetime.Set, opt Options) (*Runner, error) {
	if len(opt.Registers) == 0 || len(opt.Divisors) == 0 {
		return nil, fmt.Errorf("sweep: empty grid axes")
	}
	for _, regs := range opt.Registers {
		if regs < 0 {
			return nil, fmt.Errorf("sweep: invalid register count %d", regs)
		}
	}
	for _, div := range opt.Divisors {
		if div < 1 {
			return nil, fmt.Errorf("sweep: invalid divisor %d", div)
		}
	}
	base := opt.Model
	if base.MemRead == 0 && base.MemWrite == 0 {
		base = energy.OnChip256x16()
	}
	rn := &Runner{set: set, opt: opt, base: base, cols: make([]column, len(opt.Divisors))}
	rn.forEachColumn(func(di int) {
		div := opt.Divisors[di]
		col := &rn.cols[di]
		col.div = div
		col.voltage = energy.VoltageForDivisor(div)
		col.model = base.WithMemVoltage(col.voltage)
		if opt.ColdStart {
			return
		}
		staticCo := netbuild.CostOptions{Style: energy.Static, Model: col.model}
		pre, err := core.Prepare(set, core.Options{
			Memory: lifetime.MemoryAccess{Period: div, Offset: div},
			Split:  opt.Split,
			Style:  netbuild.DensityRegions,
			Cost:   staticCo,
		})
		if err != nil {
			return // unsplittable column: every cell stays infeasible
		}
		staticView, err := pre.CostView(staticCo)
		if err != nil {
			return
		}
		var activityView *core.CostView
		if opt.H != nil {
			activityCo := netbuild.CostOptions{Style: energy.Activity, Model: col.model, H: opt.H}
			if activityView, err = pre.CostView(activityCo); err != nil {
				return
			}
		}
		col.pre, col.staticView, col.activityView = pre, staticView, activityView
	})
	return rn, nil
}

// Run evaluates every grid cell into a fresh Grid. The first call after
// NewRunner solves each column cold-start-free but with empty solver state;
// repeat calls re-solve every cell warm on the retained residuals. Optima
// are identical across calls either way.
func (rn *Runner) Run() (*Grid, error) {
	nd := len(rn.opt.Divisors)
	g := &Grid{Points: make([]Point, len(rn.opt.Registers)*nd)}
	rn.forEachColumn(func(di int) { rn.solveColumn(di, g) })
	return g, nil
}

// solveColumn fills divisor column di of g across all register counts.
// Columns are independent (own Prepared, own scratch) and write disjoint
// cells, so workers parallelise over them; cells within a column share the
// prepared problem and solve warm, one cost model at a time, because R→R+1
// under an unchanged cost vector is an incremental solve that ships only
// the extra unit on the previous optimum.
//
//lea:noalloc
func (rn *Runner) solveColumn(di int, g *Grid) {
	nd := len(rn.opt.Divisors)
	col := &rn.cols[di]
	for ri, regs := range rn.opt.Registers {
		g.Points[ri*nd+di] = Point{Registers: regs, Divisor: col.div, Voltage: col.voltage}
	}
	if rn.opt.ColdStart {
		for ri := range rn.opt.Registers {
			solveCellCold(rn.set, rn.opt, &g.Points[ri*nd+di], col.model)
		}
		return
	}
	if col.pre == nil {
		return // column preparation failed; cells stay infeasible
	}
	for ri, regs := range rn.opt.Registers {
		pt := &g.Points[ri*nd+di]
		rs, err := col.pre.AllocateView(regs, col.staticView)
		if err != nil {
			continue // infeasible cell
		}
		pt.Feasible = true
		pt.StaticEnergy = rs.TotalEnergy
		pt.MemAccesses = rs.Counts.Mem()
		pt.RegAccesses = rs.Counts.Reg()
		pt.Locations = rs.MemoryLocations
		pt.RegistersUsed = rs.RegistersUsed
	}
	if col.activityView != nil {
		for ri := range rn.opt.Registers {
			pt := &g.Points[ri*nd+di]
			if !pt.Feasible {
				continue
			}
			if ra, err := col.pre.AllocateView(pt.Registers, col.activityView); err == nil {
				pt.ActivityEnergy = ra.TotalEnergy
			}
		}
	}
}

// forEachColumn applies f to every divisor index, fanning out over
// Options.Workers goroutines when more than one is configured. f must touch
// only its own column's state.
func (rn *Runner) forEachColumn(f func(di int)) {
	nd := len(rn.opt.Divisors)
	workers := rn.opt.Workers
	if workers > nd {
		workers = nd
	}
	if workers <= 1 {
		for di := 0; di < nd; di++ {
			f(di)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for di := range next {
				f(di)
			}
		}()
	}
	for di := 0; di < nd; di++ {
		next <- di
	}
	close(next)
	wg.Wait()
}
