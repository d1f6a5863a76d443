package core_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/flows.golden")

// flowDigest solves 40 random lifetime sets cold at memory divisors 1 to 4,
// in both graph styles, under both cost models and at every register count
// from 0 to one past the set's density. It writes one line per set and
// divisor: the feasible count, the summed objective and an FNV-64 digest of
// every verdict and every arc's flow, in solve order. Energies are floats
// and stay out, so the text does not depend on float rounding.
func flowDigest(t *testing.T) string {
	t.Helper()
	models := []netbuild.CostOptions{staticCO(), activityCO(energy.ConstHamming(0.5))}
	var sb strings.Builder
	var buf [8]byte
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := workload.MustRandom(rng, workload.RandomParams{
			Vars: 4 + rng.Intn(12), Steps: 6 + rng.Intn(10), MaxReads: 3, ExternalFrac: 0.2, InputFrac: 0.2,
		})
		for div := 1; div <= 4; div++ {
			h := fnv.New64a()
			feasible := 0
			var cost int64
			for _, style := range []netbuild.GraphStyle{netbuild.DensityRegions, netbuild.AllCompatible} {
				for _, co := range models {
					for regs := 0; regs <= set.MaxDensity()+1; regs++ {
						res, err := core.Allocate(set, core.Options{
							Registers: regs,
							Memory:    lifetime.MemoryAccess{Period: div, Offset: div},
							Style:     style,
							Cost:      co,
						})
						if errors.Is(err, flow.ErrInfeasible) {
							h.Write([]byte{0})
							continue
						}
						if err != nil {
							t.Fatalf("seed %d div %d %v %v R=%d: %v", seed, div, style, co.Style, regs, err)
						}
						h.Write([]byte{1})
						feasible++
						cost += res.Solution.Cost
						for _, f := range res.Solution.FlowByArc {
							for i := range buf {
								buf[i] = byte(uint64(f) >> (8 * i))
							}
							h.Write(buf[:])
						}
					}
				}
			}
			fmt.Fprintf(&sb, "seed %d div %d: feasible %d cost %d flows %016x\n", seed, div, feasible, cost, h.Sum64())
		}
	}
	return sb.String()
}

// TestFlowDigestGolden pins the flow of every cold allocation in
// flowDigest's corpus, arc for arc, to testdata/flows.golden. A solver change
// that claims to leave every flow as it was must pass it unedited; rewrite
// it only with -update, and explain every moved line.
func TestFlowDigestGolden(t *testing.T) {
	got := flowDigest(t)
	path := filepath.Join("testdata", "flows.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
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
