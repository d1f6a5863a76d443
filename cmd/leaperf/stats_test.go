package main

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Input must not be reordered.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Median reordered its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	six := []float64{60, 10, 50, 20, 40, 30}
	cases := []struct {
		q, want float64
	}{
		{0, 10},
		{0.25, 22.5}, // rank 1.25 between 20 and 30
		{0.5, 35},
		{0.75, 47.5}, // rank 3.75 between 40 and 50
		{1, 60},
	}
	for _, c := range cases {
		if got := Quantile(six, c.q); got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", six, c.q, got, c.want)
		}
	}
	if got := spread(six); got != 25.0/35 {
		t.Errorf("spread(%v) = %v, want %v", six, got, 25.0/35)
	}
}

// runs returns six runs with median m and quartiles m·(1 ± width/2).
func runs(m, width float64) []float64 {
	d := m * width / 2
	return []float64{m - 2*d, m - d, m - d, m + d, m + d, m + 2*d}
}

func TestCompareLowerIsBetter(t *testing.T) {
	parent := runs(100, 0.04)
	cases := []struct {
		name   string
		parent []float64
		change []float64
		want   Verdict
	}{
		{"unchanged", parent, runs(100, 0.04), Within},
		{"worse inside the bound", parent, runs(124, 0.04), Within},
		{"worse past the bound", parent, runs(126, 0.04), Regressed},
		{"better past the bound", parent, runs(74, 0.04), Improved},
		{"parent spread wider than the bound", runs(100, 0.6), runs(150, 0.04), Unresolved},
		{"wide spread, every change run better", runs(100, 0.6), runs(20, 0.04), Improved},
		{"wide spread, change runs overlap", runs(100, 0.6), runs(90, 0.04), Unresolved},
	}
	for _, c := range cases {
		if got := Compare(c.parent, c.change, LowerIsBetter, 0.25); got != c.want {
			t.Errorf("%s: Compare = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompareHigherIsBetter(t *testing.T) {
	parent := runs(1000, 0.04)
	cases := []struct {
		name   string
		change []float64
		want   Verdict
	}{
		{"unchanged", runs(1000, 0.04), Within},
		{"fewer ops inside the bound", runs(760, 0.04), Within},
		{"fewer ops past the bound", runs(740, 0.04), Regressed},
		{"more ops past the bound", runs(1260, 0.04), Improved},
	}
	for _, c := range cases {
		if got := Compare(parent, c.change, HigherIsBetter, 0.25); got != c.want {
			t.Errorf("%s: Compare = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	if Within.String() != "ok" || Improved.String() != "improved" ||
		Regressed.String() != "REGRESSED" || Unresolved.String() != "unresolved" {
		t.Errorf("unexpected verdict strings: %v %v %v %v", Within, Improved, Regressed, Unresolved)
	}
}
