package check

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/sched"
)

// hasCode reports whether ds contains a diagnostic with the code.
func hasCode(ds Diagnostics, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestDiagnosticsErr(t *testing.T) {
	var ds Diagnostics
	if ds.Err() != nil || ds.HasErrors() {
		t.Fatal("empty diagnostics reported an error")
	}
	ds.warnf("LEA9998", "x", "just a warning")
	if ds.Err() != nil || ds.HasErrors() {
		t.Fatal("warnings must not surface as errors")
	}
	ds.errorf("LEA9999", "y", "broken")
	err := ds.Err()
	if err == nil || !ds.HasErrors() {
		t.Fatal("error diagnostic not surfaced")
	}
	if !strings.Contains(err.Error(), "LEA9999") {
		t.Fatalf("error %q does not carry the code", err)
	}
}

func TestProgramCatchesViolations(t *testing.T) {
	p := &ir.Program{Tasks: []*ir.Task{{Name: "t", Blocks: []*ir.Block{{
		Name:   "b",
		Inputs: []string{"a", "a"},
		Instrs: []ir.Instr{
			{Op: ir.OpAdd, Dst: "x", Src: []string{"a", "ghost"}},
			{Op: ir.OpAdd, Dst: "x", Src: []string{"a", "a"}},
			{Op: ir.OpAdd, Dst: "a", Src: []string{"a", "a"}},
			{Op: ir.OpNeg, Dst: "y", Src: []string{"a", "a"}},
		},
		Outputs: []string{"x", "missing"},
	}}}}}
	ds := Program(p)
	for _, code := range []string{"LEA1001", "LEA1002", "LEA1003", "LEA1004", "LEA1005", "LEA1006"} {
		if !hasCode(ds, code) {
			t.Errorf("missing %s in %v", code, ds)
		}
	}
}

func TestProgramCleanOnValid(t *testing.T) {
	p, err := ir.ParseString("block b\nin a\nc = a + a\nout c\n")
	if err != nil {
		t.Fatal(err)
	}
	if ds := Program(p); len(ds) != 0 {
		t.Fatalf("valid program flagged: %v", ds)
	}
}

func TestDataflow(t *testing.T) {
	p := &ir.Program{Tasks: []*ir.Task{{Name: "t", Blocks: []*ir.Block{
		{Name: "b1", Inputs: []string{"ext"}, Outputs: []string{"v"}},
		{Name: "b2", Inputs: []string{"v"}, Outputs: []string{"v"}},
	}}}}
	ds := Dataflow(p, false)
	if !hasCode(ds, "LEA1010") {
		t.Errorf("missing-producer input not flagged: %v", ds)
	}
	if !hasCode(ds, "LEA1011") {
		t.Errorf("duplicate producer not flagged: %v", ds)
	}
	if ds := Dataflow(p, true); hasCode(ds, "LEA1010") {
		t.Errorf("allowExternal still flags external inputs: %v", ds)
	}
}

func TestScheduleChecks(t *testing.T) {
	b := &ir.Block{
		Name:   "b",
		Inputs: []string{"a"},
		Instrs: []ir.Instr{
			{Op: ir.OpMul, Dst: "x", Src: []string{"a", "a"}},
			{Op: ir.OpMul, Dst: "y", Src: []string{"a", "a"}},
			{Op: ir.OpAdd, Dst: "z", Src: []string{"x", "y"}},
		},
		Outputs: []string{"z"},
	}
	good, err := sched.List(b, sched.Resources{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := Schedule(good, sched.Resources{}); len(ds) != 0 {
		t.Fatalf("valid schedule flagged: %v", ds)
	}
	// Both multiplications in one step exceed a single multiplier.
	if ds := Schedule(good, sched.Resources{Multipliers: 1}); !hasCode(ds, "LEA1105") {
		t.Errorf("multiplier overload not flagged: %v", ds)
	}
	// Consumer scheduled with its producer violates the dependence rule.
	bad := &sched.Schedule{Block: b, Step: []int{1, 1, 1}, Length: 1}
	if ds := Schedule(bad, sched.Resources{}); !hasCode(ds, "LEA1103") {
		t.Errorf("dependence violation not flagged: %v", ds)
	}
	short := &sched.Schedule{Block: b, Step: []int{1}, Length: 1}
	if ds := Schedule(short, sched.Resources{}); !hasCode(ds, "LEA1101") {
		t.Errorf("size mismatch not flagged: %v", ds)
	}
	oob := &sched.Schedule{Block: b, Step: []int{1, 1, 9}, Length: 2}
	if ds := Schedule(oob, sched.Resources{}); !hasCode(ds, "LEA1102") {
		t.Errorf("out-of-range step not flagged: %v", ds)
	}
}

func TestLifetimesChecks(t *testing.T) {
	good := &lifetime.Set{Steps: 4, Lifetimes: []lifetime.Lifetime{
		{Var: "a", Write: 1, Reads: []int{2, 4}},
		{Var: "b", Write: 0, Reads: []int{3}, Input: true},
	}}
	if ds := Lifetimes(good); len(ds) != 0 {
		t.Fatalf("valid set flagged: %v", ds)
	}
	bad := &lifetime.Set{Steps: 4, Lifetimes: []lifetime.Lifetime{
		{Var: "a", Write: 1, Reads: []int{2}},
		{Var: "a", Write: 2, Reads: []int{3}},    // duplicate
		{Var: "c", Write: 1, Reads: nil},         // no reads
		{Var: "d", Write: 2, Reads: []int{4, 3}}, // unsorted
		{Var: "e", Write: 0, Reads: []int{2}},    // write 0 without Input
		{Var: "f", Write: 3, Reads: []int{3}},    // read not after write
		{Var: "g", Write: 1, Reads: []int{5}},    // past Steps, not External
	}}
	ds := Lifetimes(bad)
	for _, code := range []string{"LEA1201", "LEA1202", "LEA1203", "LEA1204", "LEA1205", "LEA1206"} {
		if !hasCode(ds, code) {
			t.Errorf("missing %s in %v", code, ds)
		}
	}
}

func TestSegmentsChecks(t *testing.T) {
	set := &lifetime.Set{Steps: 6, Lifetimes: []lifetime.Lifetime{
		{Var: "a", Write: 1, Reads: []int{3, 5}},
		{Var: "b", Write: 2, Reads: []int{4}},
	}}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	mem := lifetime.MemoryAccess{Period: 2, Offset: 1}
	grouped, err := set.Split(mem, lifetime.SplitMinimal)
	if err != nil {
		t.Fatal(err)
	}
	if ds := Segments(set, grouped, mem); len(ds) != 0 {
		t.Fatalf("fresh split flagged: %v", ds)
	}
	// Corrupt the split in several ways and expect each to be caught.
	bad := make([][]lifetime.Segment, len(grouped))
	for i := range grouped {
		bad[i] = append([]lifetime.Segment(nil), grouped[i]...)
	}
	bad[0][0].Index = 7                  // bookkeeping
	bad[0][len(bad[0])-1].End += 1       // last segment end moved
	bad[1][0].Forced = !bad[1][0].Forced // forced flag flipped
	ds := Segments(set, bad, mem)
	for _, code := range []string{"LEA1212", "LEA1216", "LEA1218"} {
		if !hasCode(ds, code) {
			t.Errorf("missing %s in %v", code, ds)
		}
	}
	if ds := Segments(set, grouped[:1], mem); !hasCode(ds, "LEA1210") {
		t.Errorf("group count mismatch not flagged: %v", ds)
	}
}

func TestRegionsClean(t *testing.T) {
	set := &lifetime.Set{Steps: 6, Lifetimes: []lifetime.Lifetime{
		{Var: "a", Write: 1, Reads: []int{3}},
		{Var: "b", Write: 2, Reads: []int{4}},
		{Var: "c", Write: 3, Reads: []int{6}},
		{Var: "d", Write: 5, Reads: []int{6}},
	}}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds := Regions(set); len(ds) != 0 {
		t.Fatalf("regions of a valid set flagged: %v", ds)
	}
}

func TestNetworkChecks(t *testing.T) {
	if Network(nil).Err() == nil {
		t.Error("nil network accepted")
	}
	ok := flow.NewNetwork(2)
	ok.MustArc(0, 1, 1, 2, 5)
	if ds := Network(ok); len(ds) != 0 {
		t.Fatalf("valid network flagged: %v", ds)
	}
}
