package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/serve/engine"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepBench is sweep_rsp: sweep.Runner over the radar kernel (105
// variables, density 26) with R climbing from Table1Registers, divisors
// {1, 2, 4}, the static and the activity model priced, and two workers. One
// op is one Runner.Run. The seed draws the activity model's switching
// fractions.
type sweepBench struct {
	set *lifetime.Set
	opt sweep.Options
	ref *sweep.Grid // the ColdStart grid
}

// newSweepBench builds the workload and its reference grid.
func newSweepBench(seed int64) (*sweepBench, error) {
	set, _, err := workload.RSP(workload.DefaultRSP)
	if err != nil {
		return nil, err
	}
	regs := make([]int, sweepRegisters)
	for i := range regs {
		regs[i] = workload.Table1Registers + i
	}
	b := &sweepBench{set: set, opt: sweep.Options{
		Registers: regs,
		Divisors:  []int{1, 2, 4},
		H:         seededHamming(seed),
		Workers:   2,
	}}
	cold := b.opt
	cold.ColdStart = true
	if b.ref, err = sweep.Run(set, cold); err != nil {
		return nil, err
	}
	if countFeasible(b.ref) == 0 {
		return nil, fmt.Errorf("sweep_rsp: no feasible cell in the reference grid")
	}
	return b, nil
}

// seededHamming is a switching-activity oracle drawn from seed: every
// unordered variable pair gets a fixed fraction in [0.05, 0.95].
func seededHamming(seed int64) energy.Hamming {
	return func(v1, v2 string) float64 {
		if v1 == "" {
			return energy.DefaultInitialActivity
		}
		if v2 < v1 {
			v1, v2 = v2, v1
		}
		h := fnv.New64a()
		var s [8]byte
		binary.LittleEndian.PutUint64(s[:], uint64(seed))
		h.Write(s[:])
		h.Write([]byte(v1))
		h.Write([]byte{0})
		h.Write([]byte(v2))
		return 0.05 + 0.9*float64(h.Sum64()%1001)/1000
	}
}

// verify compares a grid with the reference on what the optimum defines:
// feasibility and both energies. Access counts and registers used may differ
// between equally optimal solutions, so they are not compared.
func (b *sweepBench) verify(g *sweep.Grid) error {
	if len(g.Points) != len(b.ref.Points) {
		return fmt.Errorf("grid has %d cells, want %d", len(g.Points), len(b.ref.Points))
	}
	for i, got := range g.Points {
		want := b.ref.Points[i]
		if got.Registers != want.Registers || got.Divisor != want.Divisor || got.Feasible != want.Feasible ||
			want.Feasible && (!sameEnergy(got.StaticEnergy, want.StaticEnergy) || !sameEnergy(got.ActivityEnergy, want.ActivityEnergy)) {
			return fmt.Errorf("cell R=%d div=%d: got %+v, want %+v", want.Registers, want.Divisor, got, want)
		}
	}
	return nil
}

// setUp builds a Runner and runs it once, the set-up a designer pays before
// the first grid. It returns the runner, the NewRunner time and the whole
// set-up time.
func (b *sweepBench) setUp() (*sweep.Runner, time.Duration, time.Duration, error) {
	t0 := time.Now()
	rn, err := sweep.NewRunner(b.set, b.opt)
	if err != nil {
		return nil, 0, 0, err
	}
	newRunner := time.Since(t0)
	g, err := rn.Run()
	setup := time.Since(t0)
	if err == nil {
		err = b.verify(g)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("first run: %w", err)
	}
	return rn, newRunner, setup, nil
}

// setUps runs setUp setupReps times and keeps the last runner; it returns
// the NewRunner times in ms and the set-up times in s.
func (b *sweepBench) setUps() (*sweep.Runner, []float64, []float64, error) {
	var rn *sweep.Runner
	var newRunner, setups []float64
	for i := 0; i < setupReps; i++ {
		var nr, s time.Duration
		var err error
		if rn, nr, s, err = b.setUp(); err != nil {
			return nil, nil, nil, err
		}
		newRunner = append(newRunner, us(nr)/1e3)
		setups = append(setups, s.Seconds())
	}
	return rn, newRunner, setups, nil
}

// drive times Runner.Run on rn, n calls when n > 0, else until d has
// passed, checking every grid.
func (b *sweepBench) drive(rn *sweep.Runner, n int, d time.Duration) (phase, error) {
	runtime.GC()
	cpu0, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var p phase
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		g, err := rn.Run()
		p.lat = append(p.lat, us(time.Since(t0)))
		p.ops++
		if err == nil {
			err = b.verify(g)
		}
		if err != nil {
			p.fail(err)
		}
	}
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	p.cpu = cpu1 - cpu0
	return p, err
}

// measure implements bench.
func (b *sweepBench) measure(d time.Duration) (*report, error) {
	rn, _, setups, err := b.setUps()
	if err != nil {
		return nil, err
	}
	p, err := b.drive(rn, 0, d)
	if err != nil {
		return nil, err
	}
	r := &report{}
	r.count(p)
	return r, r.endToEnd("", p, setups)
}

// traced implements bench. Two runner series are set up alike; rounds of
// Runner.Run alternate between the untraced one, the baseline for the
// tracing overhead and the runtime counters, and the traced one, which runs
// with core's stats collector installed. Then the grid's feasible cells are
// served through the traced serving stack, which gives the serving-layer
// metrics on this kernel.
func (b *sweepBench) traced() (rep *report, err error) {
	rnA, _, setupsA, err := b.setUps()
	if err != nil {
		return nil, err
	}
	rnB, newRunner, setupsB, err := b.setUps()
	if err != nil {
		return nil, err
	}
	var pa, pb phase
	var mem memDelta
	var tally solveTally
	untraced := func() error {
		return mem.measure(func() error {
			p, err := b.drive(rnA, sweepRuns/2, 0)
			pa.then(p)
			return err
		})
	}
	traced := func() error {
		core.SetStatsCollector(tally.add)
		defer core.SetStatsCollector(nil)
		p, err := b.drive(rnB, sweepRuns/2, 0)
		pb.then(p)
		return err
	}
	// ABBA order: a drift that is linear in time cancels out.
	for _, f := range []func() error{untraced, traced, traced, untraced} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	r := &report{}
	r.count(pa)
	r.count(pb)
	tally.metrics(r, pb.ops)
	mem.metrics(r, pa.ops)
	runnerMetrics(r, newRunner, float64(len(b.ref.Points)), float64(countFeasible(b.ref)))
	if err := r.overhead(pa, pb, setupsA, setupsB); err != nil {
		return nil, err
	}

	cells, err := b.cells()
	if err != nil {
		return nil, err
	}
	st := newStack(&tracer{})
	defer func() { err = errors.Join(err, st.close()) }()
	c := &client{entries: cells}
	for range cells {
		c.send(st.handler, c.pick(), nil)
	}
	if c.p.firstErr != nil {
		return nil, fmt.Errorf("service warm-up: %w", c.p.firstErr)
	}
	tp := &tracedPhase{st: st, s0: st.router.Snapshot()}
	if err := tp.round([]*client{c}, servicePasses*len(cells)); err != nil {
		return nil, err
	}
	tp.s1 = st.router.Snapshot()
	r.count(tp.p)
	if err := serviceLayers(r, tp, tp.replay[:len(cells)]); err != nil {
		return nil, err
	}
	return r, nil
}

// cells returns the reference grid's feasible cells as serving requests for
// the kernel's TAC text, in Runner order (divisor by divisor, R climbing),
// each checked against the grid's static optimum.
func (b *sweepBench) cells() ([]*entry, error) {
	blk, err := workload.RSPBlock(workload.DefaultRSP)
	if err != nil {
		return nil, err
	}
	text := format(&ir.Program{Tasks: []*ir.Task{{Name: "rsp", Blocks: []*ir.Block{blk}}}})
	nd := len(b.opt.Divisors)
	var out []*entry
	for di, div := range b.opt.Divisors {
		for ri, regs := range b.opt.Registers {
			pt := b.ref.Points[ri*nd+di]
			if !pt.Feasible {
				continue
			}
			e, err := newEntry(fmt.Sprintf("rsp/R=%d/div=%d", regs, div), text, engine.RequestOptions{
				Registers:   regs,
				MemDivisor:  div,
				ALUs:        workload.DefaultRSP.ALUs,
				Multipliers: workload.DefaultRSP.Multipliers,
			})
			if err != nil {
				return nil, err
			}
			if !sameEnergy(e.ref[0].Energy, pt.StaticEnergy) {
				return nil, fmt.Errorf("%s: served optimum %g, sweep optimum %g", e.name, e.ref[0].Energy, pt.StaticEnergy)
			}
			out = append(out, e)
		}
	}
	return out, nil
}
