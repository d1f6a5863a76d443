package netbuild

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/lifetime"
)

// Template is a constructed flow network whose topology is fixed but whose
// arc costs can be re-derived under any cost model — the reusable half of
// design-space exploration. The topology (segments, regions, transfer arcs,
// lower bounds) depends only on the lifetimes, the split and the graph
// style; the energy model, supply voltage and switching-activity oracle only
// move the arc costs. Building the network once and swapping cost vectors
// per model turns a sweep's per-cell O(segments²) construction into an
// O(arcs) recompute, feeding the warm-start path of
// flow.Network.MinCostFlowValueWithCostsInto. The template's own network
// costs are those of the baseline options, so a solve with a nil cost
// vector prices it under them.
type Template struct {
	// Build is the underlying construction; its network, segment and
	// transfer metadata are shared by every cost view. Callers must not
	// mutate it.
	Build   *Build
	grouped [][]lifetime.Segment
}

// NewTemplate builds the network topology once under the given baseline cost
// options. CostVector then re-prices it under any other options.
func NewTemplate(set *lifetime.Set, grouped [][]lifetime.Segment, style GraphStyle, co CostOptions) (*Template, error) {
	b, err := BuildNetwork(set, grouped, style, co)
	if err != nil {
		return nil, err
	}
	return &Template{Build: b, grouped: grouped}, nil
}

// Grouped returns the per-variable segment grouping the template was built
// from; callers must not mutate it.
func (t *Template) Grouped() [][]lifetime.Segment { return t.grouped }

// CostVector computes the per-arc quantized cost vector (in ArcID order) and
// the all-in-memory baseline energy under co. The vector is exactly what
// BuildNetwork would have produced arc-by-arc had it been constructed with
// co, so solving the template's network with it yields the same optimum as a
// fresh build.
func (t *Template) CostVector(co CostOptions) ([]int64, float64, error) {
	return t.CostVectorInto(nil, co)
}

// CostVectorInto is CostVector reusing dst's capacity when possible.
func (t *Template) CostVectorInto(dst []int64, co CostOptions) ([]int64, float64, error) {
	if co.Style == energy.Activity && co.H == nil {
		return nil, 0, fmt.Errorf("netbuild: activity style requires a Hamming oracle")
	}
	if err := co.Model.Validate(); err != nil {
		return nil, 0, err
	}
	m := t.Build.Net.M()
	if cap(dst) < m {
		dst = make([]int64, m)
	} else {
		dst = dst[:m]
	}
	// Segment arcs (and the bypass) cost zero; only transfers carry energy.
	for i := range dst {
		dst[i] = 0
	}
	segs := t.Build.Segments
	for i := range t.Build.Transfers {
		tr := &t.Build.Transfers[i]
		var e float64
		switch tr.Kind {
		case KindBypass:
			continue
		case KindSource:
			e = SourceCost(co, &segs[tr.ToSeg])
		case KindSink:
			e = SinkCost(co, &segs[tr.FromSeg])
		case KindEq9:
			e = ChainCost(co, &segs[tr.FromSeg])
		default: // the eq. 4/6/7/8 cross-variable transfers
			e = CrossCost(co, &segs[tr.FromSeg], &segs[tr.ToSeg])
		}
		dst[tr.Arc] = energy.Quantize(e)
	}
	return dst, BaselineEnergy(co, t.grouped), nil
}

// BuildFor returns a shallow view of the template's Build with the cost
// options and baseline constant swapped to co — what decode needs to price a
// solution obtained under a template cost vector. The view shares the
// network, segments and transfer metadata with the template; the per-arc
// Transfer.Energy fields still reflect the baseline build and are not
// recomputed.
func (t *Template) BuildFor(co CostOptions, baseline float64) *Build {
	view := *t.Build
	view.Cost = co
	view.ConstantEnergy = baseline
	return &view
}
