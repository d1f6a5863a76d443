package analysis

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/violations.golden from current linter output")

// TestRepoIsClean is the self-hosting acceptance check: the default pass set
// over the whole module must produce zero findings. Regressions here mean a
// new layering/determinism/panic/doc violation slipped into production code.
func TestRepoIsClean(t *testing.T) {
	findings, err := Run("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestViolationsGolden pins the linter's output on the seeded-violation
// corpus: every pass must fire with the exact position, code and message
// recorded in testdata/violations.golden. The corpus also carries one
// suppressed finding (lealint:ignore), which must NOT appear. Regenerate
// with `go test ./internal/analysis -run Golden -update`.
func TestViolationsGolden(t *testing.T) {
	findings, err := Run(".", []string{"internal/analysis/testdata/violations"})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range findings {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile("testdata/violations.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/violations.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if len(findings) == 0 {
		t.Fatal("seeded corpus produced no findings")
	}
	// The corpus suppresses exactly one LEA0102; only the unsuppressed read
	// may surface.
	n := 0
	for _, f := range findings {
		if f.Code == "LEA0102" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 LEA0102 (the second is lealint:ignore-suppressed), got %d", n)
	}
}

// TestRecursiveWalkSkipsTestdata: the corpus must be invisible to "./..."
// patterns or the repo could never be lint-clean.
func TestRecursiveWalkSkipsTestdata(t *testing.T) {
	findings, err := Run(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.Contains(f.Pos.Filename, "testdata") {
			t.Errorf("recursive walk reached testdata: %s", f)
		}
	}
}

// TestLayerRank spot-checks the exported rank accessor against the
// architecture: flow below core, core below pipeline.
func TestLayerRank(t *testing.T) {
	flowR, ok := LayerRank("internal/flow")
	if !ok {
		t.Fatal("internal/flow unmapped")
	}
	coreR, ok := LayerRank("internal/core")
	if !ok {
		t.Fatal("internal/core unmapped")
	}
	pipeR, ok := LayerRank("internal/pipeline")
	if !ok {
		t.Fatal("internal/pipeline unmapped")
	}
	if !(flowR < coreR && coreR < pipeR) {
		t.Errorf("rank order broken: flow=%d core=%d pipeline=%d", flowR, coreR, pipeR)
	}
	if _, ok := LayerRank("internal/no-such-package"); ok {
		t.Error("unknown package reported as mapped")
	}
}

// TestServingStackRanks pins the serving subsystem's place in the layer DAG:
// the pure engine sits above core (it drives Prepare/Allocate) and strictly
// below shard and transport; shard and transport share a rank, so the lint
// forbids the transport importing the shard router and vice versa — both may
// only compose downward through the engine. The serving commands sit above
// all three, and the retired monolithic internal/serve must stay unmapped.
func TestServingStackRanks(t *testing.T) {
	engineRank, ok := LayerRank("internal/serve/engine")
	if !ok {
		t.Fatal("internal/serve/engine missing from the layer map")
	}
	coreRank, ok := LayerRank("internal/core")
	if !ok {
		t.Fatal("internal/core missing from the layer map")
	}
	if engineRank <= coreRank {
		t.Errorf("internal/serve/engine rank %d must be above internal/core rank %d", engineRank, coreRank)
	}
	shardRank, ok := LayerRank("internal/serve/shard")
	if !ok {
		t.Fatal("internal/serve/shard missing from the layer map")
	}
	transportRank, ok := LayerRank("internal/serve/transport")
	if !ok {
		t.Fatal("internal/serve/transport missing from the layer map")
	}
	if shardRank <= engineRank || transportRank <= engineRank {
		t.Errorf("shard (%d) and transport (%d) must rank above engine (%d)", shardRank, transportRank, engineRank)
	}
	if shardRank != transportRank {
		t.Errorf("shard rank %d and transport rank %d must be equal so neither can import the other", shardRank, transportRank)
	}
	if _, ok := LayerRank("internal/serve"); ok {
		t.Error("retired monolithic internal/serve still mapped")
	}
	for _, cmd := range []string{"cmd/leaserved", "cmd/leaload"} {
		r, ok := LayerRank(cmd)
		if !ok {
			t.Errorf("%s missing from the layer map", cmd)
			continue
		}
		if r <= shardRank || r <= transportRank {
			t.Errorf("%s rank %d must be above the serving stack (shard %d, transport %d)", cmd, r, shardRank, transportRank)
		}
	}
}

// TestParseIgnoreDirective pins the suppression grammar: a code list with
// optional per-code parenthesised reasons, terminated by the first non-code
// token, which becomes the shared trailing reason.
func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		in     string
		codes  []suppressedCode
		shared string
	}{
		{" LEA0102 corpus reason", []suppressedCode{{code: "LEA0102"}}, "corpus reason"},
		{" LEA0101(a) LEA0102(b)", []suppressedCode{{code: "LEA0101", reason: "a"}, {code: "LEA0102", reason: "b"}}, ""},
		{" LEA0101(a) LEA0102 shared tail", []suppressedCode{{code: "LEA0101", reason: "a"}, {code: "LEA0102"}}, "shared tail"},
		{" LEA0201", []suppressedCode{{code: "LEA0201"}}, ""},
		{"", nil, ""},
		{" just words, no codes", nil, "just words, no codes"},
		{" LEA01 truncated", nil, "LEA01 truncated"},
		{" LEA0101x not a boundary", nil, "LEA0101x not a boundary"},
		{" LEA0101(unterminated reason", []suppressedCode{{code: "LEA0101", reason: "unterminated reason"}}, ""},
	}
	for _, c := range cases {
		codes, shared := parseIgnoreDirective(c.in)
		if shared != c.shared || len(codes) != len(c.codes) {
			t.Errorf("parseIgnoreDirective(%q) = (%v, %q), want (%v, %q)", c.in, codes, shared, c.codes, c.shared)
			continue
		}
		for i := range codes {
			if codes[i] != c.codes[i] {
				t.Errorf("parseIgnoreDirective(%q) code %d = %+v, want %+v", c.in, i, codes[i], c.codes[i])
			}
		}
	}
}

// TestSelectPasses: the empty selection is every registered pass, a named
// subset resolves in registry order, and unknown names error with the valid
// list so the CLI message stays actionable.
func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Passes()) {
		t.Errorf("empty selection returned %d passes, want all %d", len(all), len(Passes()))
	}
	subset, err := SelectPasses([]string{"locks", "goroutines"})
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name() != "locks" || subset[1].Name() != "goroutines" {
		t.Errorf("subset selection wrong: %v", subset)
	}
	if _, err := SelectPasses([]string{"nosuchpass"}); err == nil {
		t.Error("unknown pass name did not error")
	} else if !strings.Contains(err.Error(), "locks") {
		t.Errorf("error does not list the valid passes: %v", err)
	}
}

// TestKnownCodes: the registry's code table must cover every family the
// passes and the directive validator emit, including the directive and
// escape codes that have no AST pass behind them.
func TestKnownCodes(t *testing.T) {
	known := KnownCodes()
	for _, id := range []string{
		"LEA0001", "LEA0002", "LEA0010", "LEA0011", "LEA0012",
		"LEA0101", "LEA0102", "LEA0201", "LEA0301", "LEA0302",
		"LEA0401", "LEA0402", "LEA0403", "LEA0404", "LEA0410", "LEA0411",
		"LEA0501", "LEA0502", "LEA0503",
	} {
		if _, ok := known[id]; !ok {
			t.Errorf("KnownCodes missing %s", id)
		}
	}
	for _, id := range []string{"LEA0010", "LEA0011", "LEA0012", "LEA0501", "LEA0502", "LEA0503"} {
		if _, no := nonIgnorable[id]; !no {
			t.Errorf("%s should be non-ignorable", id)
		}
	}
}
