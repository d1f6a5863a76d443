package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

// fastExperiments avoids rerunning the heavy RSP sweeps in unit tests.
func fastExperiments() []experiment {
	return []experiment{
		{"fig1", "figure 1", func() (*report.Table, error) {
			_, t, err := report.Figure1()
			return t, err
		}},
		{"fig3", "figure 3", func() (*report.Table, error) {
			_, t, err := report.Figure3()
			return t, err
		}},
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, fastExperiments(), false, "fig1", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Errorf("missing figure 1 table:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "Figure 3") {
		t.Error("ran more than requested")
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, fastExperiments(), true, "", false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Figure 3") {
		t.Errorf("missing tables:\n%s", out)
	}
}

func TestRunMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, fastExperiments(), false, "fig1", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "### Figure 1") || !strings.Contains(sb.String(), "| --- |") {
		t.Errorf("markdown missing:\n%s", sb.String())
	}
}

func TestRunUnknown(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, fastExperiments(), false, "bogus", false)
	if err == nil || !strings.Contains(err.Error(), "fig1") {
		t.Fatalf("unknown experiment error should list names, got %v", err)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, e := range experiments(13) {
		if names[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		names[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Fatalf("incomplete experiment %+v", e.name)
		}
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "table1", "ablate-graph", "ablate-eq7", "offchip", "ports", "moa", "schedulers", "twocommodity", "hlsbench", "ablate-chaitin", "claimband"} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

// TestAllGolden pins the full registry's -all output, every reproduced
// figure, table and ablation, byte for byte. Equal-cost tie-breaks in the
// solver reach these tables (memory locations, port-limited energies, the
// offset assignment, baselines built on an allocation), so a change to the
// order in which the solver explores ties shows here even where the
// warm-vs-cold identity tests, which run the same code on both sides, cannot
// see it. Rewrite the golden only with -update, and explain every moved line.
func TestAllGolden(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, experiments(workload.Table1Registers), true, "", false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}
