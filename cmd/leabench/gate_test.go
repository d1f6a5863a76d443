package main

import "testing"

func TestJudgeAllocs(t *testing.T) {
	base := []benchResult{{Name: "warm", NsPerOp: 100, AllocsPerOp: 0}, {Name: "cold", NsPerOp: 1000, AllocsPerOp: 50}}
	row := func(name string, ns float64, allocs ...int64) []benchResult {
		s := make([]benchResult, len(allocs))
		for i, a := range allocs {
			s[i] = benchResult{Name: name, NsPerOp: ns, AllocsPerOp: a}
		}
		return s
	}
	cases := []struct {
		name     string
		samples  map[string][]benchResult
		wantFail map[string]bool
	}{
		{"at the ceilings", map[string][]benchResult{
			"warm": row("warm", 100, 0, 0, 0), "cold": row("cold", 1000, 50, 50, 50)}, nil},
		{"missing row", map[string][]benchResult{
			"warm": row("warm", 100, 0, 0, 0)}, map[string]bool{"cold": true}},
		{"zero-alloc row now allocates", map[string][]benchResult{
			"warm": row("warm", 100, 1, 1, 1), "cold": row("cold", 1000, 50, 50, 50)}, map[string]bool{"warm": true}},
		{"allocs above the ceiling", map[string][]benchResult{
			"warm": row("warm", 100, 0, 0, 0), "cold": row("cold", 1000, 51, 52, 51)}, map[string]bool{"cold": true}},
		{"one noisy run above the ceiling", map[string][]benchResult{
			"warm": row("warm", 100, 0, 0, 0), "cold": row("cold", 1000, 57, 50, 50)}, nil},
		{"NEW row", map[string][]benchResult{
			"warm": row("warm", 100, 0, 0, 0), "cold": row("cold", 1000, 50, 50, 50), "extra": row("extra", 5, 9, 9, 9)}, nil},
		{"10x slower row", map[string][]benchResult{
			"warm": row("warm", 1000, 0, 0, 0), "cold": row("cold", 10000, 50, 50, 50)}, nil},
	}
	for _, c := range cases {
		rows := judgeAllocs(base, c.samples)
		seen := map[string]bool{}
		for _, r := range rows {
			seen[r.name] = true
			if r.fail != c.wantFail[r.name] {
				t.Errorf("%s: row %s fail = %v (%s), want %v", c.name, r.name, r.fail, r.verdict, c.wantFail[r.name])
			}
			if r.name == "extra" && r.verdict != "NEW (not in baseline)" {
				t.Errorf("%s: row extra verdict %q, want NEW", c.name, r.verdict)
			}
		}
		for name := range c.samples {
			if !seen[name] {
				t.Errorf("%s: measured row %s not reported", c.name, name)
			}
		}
		for _, bb := range base {
			if !seen[bb.Name] {
				t.Errorf("%s: baseline row %s not reported", c.name, bb.Name)
			}
		}
	}
}
