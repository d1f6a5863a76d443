package main

// The statistics of the timing stage: quantiles over repeated benchmark runs
// and the verdict that judges one metric's runs on a change against its runs
// on the parent.
//
// The verdict is the no-regression rule PR review applies to a paired
// benchmark A/B. A metric regresses when the change's median is worse than
// the parent's by more than the metric's bound. That verdict needs the
// parent's own runs to agree: when the distance between their quartiles,
// relative to their median, is wider than the bound, the metric is
// unresolved, unless every run of the change reads better than every run of
// the parent.

import "sort"

// Direction says which way a metric improves: latencies and footprints go
// down, throughputs go up.
type Direction int

// The two metric polarities.
const (
	// LowerIsBetter marks metrics like latency, CPU per op and RSS.
	LowerIsBetter Direction = iota
	// HigherIsBetter marks metrics like throughput.
	HigherIsBetter
)

// Verdict classifies a change's runs of one metric against the parent's.
type Verdict int

// The verdicts Compare can reach.
const (
	// Within means the change's median is inside the bound: no regression.
	Within Verdict = iota
	// Improved means better than the parent by more than the bound.
	Improved
	// Regressed means worse than the parent by more than the bound while the
	// parent's runs agree to within it — the only verdict a gate fails on.
	Regressed
	// Unresolved means the parent's runs spread wider than the bound, so no
	// move inside that spread can be told from noise.
	Unresolved
)

// String renders the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case Improved:
		return "improved"
	case Regressed:
		return "REGRESSED"
	case Unresolved:
		return "unresolved"
	default:
		return "ok"
	}
}

// Quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating linearly
// between the order statistics around rank q·(n−1), or 0 for an empty slice.
// xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// spread returns the distance between the quartiles of xs relative to its
// median: the run-to-run noise a bound is checked against.
func spread(xs []float64) float64 {
	return (Quantile(xs, 0.75) - Quantile(xs, 0.25)) / Median(xs)
}

// Compare judges a change's runs of one metric against the parent's runs
// under a bound given as a fraction of the parent's median (0.25 = 25%).
func Compare(parent, change []float64, dir Direction, bound float64) Verdict {
	mp := Median(parent)
	worse := (Median(change) - mp) / mp
	if dir == HigherIsBetter {
		worse = -worse
	}
	if spread(parent) > bound && !allBetter(parent, change, dir) {
		return Unresolved
	}
	switch {
	case worse > bound:
		return Regressed
	case worse < -bound:
		return Improved
	default:
		return Within
	}
}

// allBetter reports whether every run of change reads better than every run
// of parent.
func allBetter(parent, change []float64, dir Direction) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	if dir == HigherIsBetter {
		return Quantile(change, 0) > Quantile(parent, 1)
	}
	return Quantile(change, 1) < Quantile(parent, 0)
}
