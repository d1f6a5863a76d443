package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
)

// RunStats reports what one allocation run did, stage by stage. The §5
// pipeline is Split → Pin → Build → Solve → Decode; each stage's wall time
// is recorded, plus the sizes that drive them and the solver's own work
// counters. The JSON tags are the one canonical machine-readable schema,
// shared by leaflow -json, the run_stats of leabench -json and the stats of
// every block a leaserved /v1/allocate response returns; durations
// serialise as nanoseconds.
type RunStats struct {
	// Per-stage wall times.
	SplitTime  time.Duration `json:"split_ns"`
	PinTime    time.Duration `json:"pin_ns"`
	BuildTime  time.Duration `json:"build_ns"`
	SolveTime  time.Duration `json:"solve_ns"`
	DecodeTime time.Duration `json:"decode_ns"`
	// TotalTime is the end-to-end allocation time (≥ the stage sum).
	TotalTime time.Duration `json:"total_ns"`
	// Variables and Segments size the lifetime model after splitting.
	Variables int `json:"variables"`
	Segments  int `json:"segments"`
	// Nodes and Arcs size the constructed flow network.
	Nodes int `json:"nodes"`
	Arcs  int `json:"arcs"`
	// Solver holds the engine's name and work counters (augmentations,
	// Dijkstra iterations, ...).
	Solver flow.SolveStats `json:"solver"`
}

// String renders the stats as one line per stage.
func (st RunStats) String() string {
	return fmt.Sprintf(
		"split %s (%d vars, %d segs); pin %s; build %s (%d nodes, %d arcs); solve %s [%s]; decode %s; total %s",
		st.SplitTime, st.Variables, st.Segments, st.PinTime,
		st.BuildTime, st.Nodes, st.Arcs,
		st.SolveTime, st.Solver.String(), st.DecodeTime, st.TotalTime)
}

// Pipeline is the §5 allocation pipeline with its solver scratch space
// retained across runs, so allocating many blocks (or re-solving under port
// constraints) stops allocating per solve. A Pipeline is not safe for
// concurrent use; give each goroutine its own.
type Pipeline struct {
	opts    Options
	scratch *flow.Scratch
}

// NewPipeline validates the options and returns a ready pipeline.
func NewPipeline(opts Options) (*Pipeline, error) {
	if opts.Registers < 0 {
		return nil, fmt.Errorf("core: negative register count %d", opts.Registers)
	}
	return &Pipeline{opts: opts, scratch: flow.NewScratch()}, nil
}

// Options returns the pipeline's configuration.
func (p *Pipeline) Options() Options { return p.opts }

// Allocate runs the staged pipeline — Split → Pin → Build → Solve → Decode —
// on a lifetime set, attaching per-stage RunStats to the result. It is
// Prepare followed by one prepared solve under the options' own register
// count and the template's own arc costs, so every stage has exactly one
// implementation.
func (p *Pipeline) Allocate(set *lifetime.Set) (*Result, error) {
	pre, err := p.Prepare(set)
	if err != nil {
		return nil, err
	}
	return pre.allocate(p.opts.Registers, p.opts.Cost, nil, pre.tpl.Build.ConstantEnergy)
}

// split cuts lifetimes at the restricted memory access times plus any
// voluntary extra cuts (§5.2).
func (p *Pipeline) split(set *lifetime.Set, stats *RunStats) ([][]lifetime.Segment, error) {
	t0 := time.Now()
	grouped, err := set.SplitCuts(p.opts.Memory, p.opts.Split, p.opts.ExtraCuts)
	stats.SplitTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	stats.Variables = len(grouped)
	for _, g := range grouped {
		stats.Segments += len(g)
	}
	return grouped, nil
}

// debugSplit re-validates the freshly split segments (before pinning flips
// Forced/Barred) when Options.Debug is set.
func (p *Pipeline) debugSplit(set *lifetime.Set, grouped [][]lifetime.Segment) error {
	if !p.opts.Debug {
		return nil
	}
	ds := check.All(check.Artifacts{Set: set, Grouped: grouped, Memory: p.opts.Memory})
	if err := ds.Err(); err != nil {
		return fmt.Errorf("core: debug check after split: %w", err)
	}
	return nil
}

// debugSolve re-certifies the network construction and the solver's output
// (conservation, complementary slackness, energy re-derivation) when
// Options.Debug is set.
func debugSolve(opts Options, build *netbuild.Build, sol *flow.Solution, registers int) error {
	if !opts.Debug {
		return nil
	}
	ds := check.All(check.Artifacts{Build: build, Solution: sol, Registers: registers})
	if err := ds.Err(); err != nil {
		return fmt.Errorf("core: debug check after solve: %w", err)
	}
	return nil
}

// pin applies the §7 forced/barred residences to the grouped segments.
func (p *Pipeline) pin(grouped [][]lifetime.Segment, stats *RunStats) error {
	t0 := time.Now()
	defer func() { stats.PinTime = time.Since(t0) }()
	for _, ref := range p.opts.ForceRegister {
		if err := pinSegment(grouped, ref, true); err != nil {
			return err
		}
	}
	for _, ref := range p.opts.ForceMemory {
		if err := pinSegment(grouped, ref, false); err != nil {
			return err
		}
	}
	return nil
}

// collector receives every completed run's stats when set (leaflow/leabench
// -stats). The hook must be safe for concurrent calls when allocations run
// in parallel.
var (
	collectorMu sync.RWMutex
	collector   func(RunStats)
)

// SetStatsCollector installs fn as the per-run stats hook; nil removes it.
func SetStatsCollector(fn func(RunStats)) {
	collectorMu.Lock()
	defer collectorMu.Unlock()
	collector = fn
}

func statsCollector() func(RunStats) {
	collectorMu.RLock()
	defer collectorMu.RUnlock()
	return collector
}

// MemoryVariables lists the variables with at least one memory-resident
// segment, in flat segment order (deterministic: first appearance in the
// grouped construction order), ready for second-stage memory binding.
func (r *Result) MemoryVariables() []string {
	segs := r.Build.Segments
	seen := make(map[string]bool, len(segs))
	vars := make([]string, 0, len(segs))
	for i := range segs {
		v := segs[i].Var
		if !r.InRegister[i] && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	return vars
}
