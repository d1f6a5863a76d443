package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleProgram = `
task t
block b
in a b c
p = a * b
q = p + c
r = q - a
out r
end
`

func writeProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.tac")
	if err := os.WriteFile(path, []byte(sampleProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, false, "list", []string{writeProgram(t)})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"task t, block b", "registers used:", "energy:", "ports required:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVerboseAndActivity(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, 2, 2, 2, 1, "allcompat", "activity", true, "", true, true, "list", []string{writeProgram(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "->") {
		t.Errorf("verbose assignments missing:\n%s", sb.String())
	}
}

func TestRunWritesDot(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "net.dot")
	var sb strings.Builder
	if err := run(&sb, 4, 1, 2, 1, "density", "static", false, dot, false, false, "list", []string{writeProgram(t)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("dot file malformed:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	prog := writeProgram(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"two files", func() error {
			return run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, false, "list", []string{prog, prog})
		}},
		{"missing file", func() error {
			return run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, false, "list", []string{"/nope/nothing.tac"})
		}},
		{"bad style", func() error {
			return run(&sb, 4, 1, 2, 1, "wiggly", "static", false, "", false, false, "list", []string{prog})
		}},
		{"bad cost", func() error {
			return run(&sb, 4, 1, 2, 1, "density", "banana", false, "", false, false, "list", []string{prog})
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestRunBadProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tac")
	if err := os.WriteFile(path, []byte("block b\ny = undefined + x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, false, "list", []string{path}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestRunInfeasiblePropagates(t *testing.T) {
	// memdiv 8 with 0 registers: forced residences cannot be satisfied.
	var sb strings.Builder
	if err := run(&sb, 0, 8, 2, 1, "density", "static", false, "", false, false, "list", []string{writeProgram(t)}); err == nil {
		t.Fatal("infeasible configuration accepted")
	}
}

func TestRunGanttAndSchedulers(t *testing.T) {
	prog := writeProgram(t)
	for _, schedName := range []string{"list", "asap", "fds"} {
		var sb strings.Builder
		if err := run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, true, schedName, []string{prog}); err != nil {
			t.Fatalf("%s: %v", schedName, err)
		}
		out := sb.String()
		if !strings.Contains(out, "max density") || !strings.Contains(out, "mem ") {
			t.Errorf("%s: gantt charts missing:\n%s", schedName, out)
		}
	}
	var sb strings.Builder
	if err := run(&sb, 4, 1, 2, 1, "density", "static", false, "", false, false, "wat", []string{prog}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestRunJSONAndSimulate(t *testing.T) {
	prog := writeProgram(t)
	var sb strings.Builder
	cfg := config{registers: 4, divisor: 1, alus: 2, muls: 1, style: "density", cost: "static", sched: "list", json: true, simulate: true}
	if err := runCfg(&sb, cfg, []string{prog}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"block":"b"`) || !strings.Contains(out, `"energy"`) {
		t.Errorf("json output malformed:\n%s", out)
	}
	if !strings.Contains(out, `"simulated":true`) {
		t.Errorf("simulation record missing:\n%s", out)
	}
}

func TestRunDimacsExport(t *testing.T) {
	prog := writeProgram(t)
	path := filepath.Join(t.TempDir(), "net.dimacs")
	var sb strings.Builder
	cfg := config{registers: 4, divisor: 1, alus: 2, muls: 1, style: "density", cost: "static", sched: "list", dimacs: path}
	if err := runCfg(&sb, cfg, []string{prog}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "p min ") {
		t.Errorf("dimacs file malformed:\n%s", data)
	}
	// The export states the allocation it solves: 4 register units shipped
	// from s (node 1) to t (node 2).
	if !strings.Contains(string(data), "\nn 1 4\nn 2 -4\n") {
		t.Errorf("dimacs file lacks the value lines of s and t:\n%s", data)
	}
}

func TestRunTextSimulate(t *testing.T) {
	prog := writeProgram(t)
	var sb strings.Builder
	cfg := config{registers: 4, divisor: 2, alus: 2, muls: 1, style: "density", cost: "static", sched: "list", simulate: true}
	if err := runCfg(&sb, cfg, []string{prog}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "simulation:         OK") {
		t.Errorf("simulation line missing:\n%s", sb.String())
	}
}

func TestRunAsm(t *testing.T) {
	prog := writeProgram(t)
	var sb strings.Builder
	cfg := config{registers: 2, divisor: 1, alus: 2, muls: 1, style: "density", cost: "static", sched: "list", asm: true}
	if err := runCfg(&sb, cfg, []string{prog}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "machine stream") || !strings.Contains(out, "mul") {
		t.Errorf("asm output missing:\n%s", out)
	}
}

func TestRunProfile(t *testing.T) {
	prog := writeProgram(t)
	var sb strings.Builder
	cfg := config{registers: 3, divisor: 1, alus: 2, muls: 1, style: "density", cost: "static", sched: "list", simulate: true, profile: true}
	if err := runCfg(&sb, cfg, []string{prog}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "energy profile:") {
		t.Errorf("profile missing:\n%s", sb.String())
	}
}
