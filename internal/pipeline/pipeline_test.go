package pipeline

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/sched"
	"repro/internal/workload"
)

const twoBlockSrc = `
task chain
block stage1
in x y
s = x + y
d = x - y
p = s * d
out p s
end
block stage2
in p s
q = p * s
r = q + p
out r
end
`

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func config() Config {
	return Config{
		Resources: sched.Resources{ALUs: 1, Multipliers: 1},
		Options: core.Options{
			Registers: 2,
			Memory:    lifetime.FullSpeed,
			Style:     netbuild.DensityRegions,
			Cost:      netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()},
		},
		AllowExternalInputs: true,
	}
}

func TestRunTwoBlocks(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	res, err := Run(prog, config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks %d", len(res.Blocks))
	}
	if res.TotalEnergy <= 0 || res.TotalEnergy >= res.BaselineEnergy {
		t.Fatalf("energy %g vs baseline %g", res.TotalEnergy, res.BaselineEnergy)
	}
	var sumE float64
	for _, b := range res.Blocks {
		sumE += b.Result.TotalEnergy
		if b.Schedule == nil || b.Set == nil || b.Binding == nil {
			t.Fatalf("incomplete block result %+v", b)
		}
	}
	if sumE != res.TotalEnergy {
		t.Fatalf("total %g != sum %g", res.TotalEnergy, sumE)
	}
	if res.PeakRegistersUsed > 2 {
		t.Fatalf("peak registers %d with R=2", res.PeakRegistersUsed)
	}
}

func TestCheckDataflowHandover(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	// stage2's inputs p and s are stage1 outputs: strict mode passes except
	// for the program-level inputs x, y of stage1.
	if err := check.Dataflow(prog, true).Err(); err != nil {
		t.Fatal(err)
	}
	if err := check.Dataflow(prog, false).Err(); err == nil {
		t.Fatal("strict mode should reject program inputs x, y")
	}
}

func TestCheckDataflowMissingProducer(t *testing.T) {
	src := `
task t
block b1
in x
y = neg x
out y
end
block b2
in ghost
z = neg ghost
out z
end
`
	prog := parse(t, src)
	cfg := config()
	cfg.AllowExternalInputs = false
	if _, err := Run(prog, cfg); err == nil {
		t.Fatal("missing producer accepted in strict mode")
	}
	cfg.AllowExternalInputs = true
	if _, err := Run(prog, cfg); err != nil {
		t.Fatalf("permissive mode rejected: %v", err)
	}
}

func TestCheckDataflowDuplicateProducer(t *testing.T) {
	src := `
task t
block b1
in x
y = neg x
out y
end
block b2
in x2
y = neg x2
out y
end
`
	// Duplicate block-level variable names are legal per block, but two
	// blocks exporting the same value is a handover ambiguity.
	prog := parse(t, src)
	if err := check.Dataflow(prog, true).Err(); err == nil {
		t.Fatal("duplicate producer accepted")
	}
}

func TestRunPropagatesAllocationErrors(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	cfg := config()
	cfg.Options.Registers = 0
	cfg.Options.Memory = lifetime.MemoryAccess{Period: 40, Offset: 1}
	cfg.Options.Split = lifetime.SplitMinimal
	if _, err := Run(prog, cfg); err == nil {
		t.Fatal("forced-residence infeasibility not propagated")
	}
}

func TestRunInvalidProgram(t *testing.T) {
	prog := &ir.Program{Tasks: []*ir.Task{{Name: "t", Blocks: []*ir.Block{{
		Name:   "bad",
		Instrs: []ir.Instr{{Op: ir.OpNeg, Dst: "y", Src: []string{"undefined"}}},
	}}}}}
	if _, err := Run(prog, config()); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestMemoryWordsReusedAcrossBlocks(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	cfg := config()
	cfg.Options.Registers = 0 // everything in memory
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxPerBlock int
	for _, b := range res.Blocks {
		if b.Binding.Locations > maxPerBlock {
			maxPerBlock = b.Binding.Locations
		}
	}
	if res.PeakMemoryLocations != maxPerBlock {
		t.Fatalf("peak %d != max per block %d (sequential blocks reuse words)",
			res.PeakMemoryLocations, maxPerBlock)
	}
}

func TestSummaryRenders(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	res, err := Run(prog, config())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Summary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"stage1", "stage2", "total", "peak memory locations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestVideoPipelineEndToEnd(t *testing.T) {
	prog, err := workload.VideoPipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{
		Resources: sched.Resources{ALUs: 2, Multipliers: 1},
		Options: core.Options{
			Registers: 6,
			Memory:    lifetime.FullSpeed,
			Style:     netbuild.DensityRegions,
			Cost:      netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()},
		},
		AllowExternalInputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 3 {
		t.Fatalf("blocks %d", len(res.Blocks))
	}
	if res.TotalEnergy >= res.BaselineEnergy {
		t.Fatalf("no saving on the video pipeline: %g vs %g", res.TotalEnergy, res.BaselineEnergy)
	}
	var sb strings.Builder
	if err := res.Summary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rowdct", "coldct", "quant"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

// TestParallelMatchesSequential: Run with a worker pool must return results
// byte-identical to the sequential path on the multimedia task workload
// (S33), across engines.
func TestParallelMatchesSequential(t *testing.T) {
	prog, err := workload.VideoPipeline()
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := Config{
		Resources: sched.Resources{ALUs: 2, Multipliers: 1},
		Options: core.Options{
			Registers: 6,
			Memory:    lifetime.FullSpeed,
			Style:     netbuild.DensityRegions,
			Cost:      netbuild.CostOptions{Style: energy.Static, Model: energy.OnChip256x16()},
		},
		AllowExternalInputs: true,
	}
	for _, engine := range []string{"", "ssp", "cyclecancel", "costscale"} {
		cfg := baseCfg
		cfg.Options.Engine = engine
		cfg.Workers = 1
		seq, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("engine %q sequential: %v", engine, err)
		}
		var seqSum strings.Builder
		if err := seq.Summary(&seqSum); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			cfg.Workers = workers
			par, err := Run(prog, cfg)
			if err != nil {
				t.Fatalf("engine %q workers %d: %v", engine, workers, err)
			}
			var parSum strings.Builder
			if err := par.Summary(&parSum); err != nil {
				t.Fatal(err)
			}
			if seqSum.String() != parSum.String() {
				t.Fatalf("engine %q workers %d: summary differs:\n--- sequential ---\n%s--- parallel ---\n%s",
					engine, workers, seqSum.String(), parSum.String())
			}
			if par.TotalEnergy != seq.TotalEnergy || par.BaselineEnergy != seq.BaselineEnergy ||
				par.Counts != seq.Counts || par.PeakMemoryLocations != seq.PeakMemoryLocations ||
				par.PeakRegistersUsed != seq.PeakRegistersUsed {
				t.Fatalf("engine %q workers %d: aggregates differ: %+v vs %+v", engine, workers, par, seq)
			}
			if len(par.Blocks) != len(seq.Blocks) {
				t.Fatalf("engine %q workers %d: %d blocks vs %d", engine, workers, len(par.Blocks), len(seq.Blocks))
			}
			for i := range par.Blocks {
				pb, sb := par.Blocks[i], seq.Blocks[i]
				if pb.Task != sb.Task || pb.Block != sb.Block {
					t.Fatalf("block order differs at %d: %s/%s vs %s/%s", i, pb.Task, pb.Block, sb.Task, sb.Block)
				}
				if pb.Result.TotalEnergy != sb.Result.TotalEnergy ||
					pb.Result.RegistersUsed != sb.Result.RegistersUsed ||
					pb.Result.Counts != sb.Result.Counts {
					t.Fatalf("block %s: result differs", pb.Block)
				}
				if len(pb.Result.InRegister) != len(sb.Result.InRegister) {
					t.Fatalf("block %s: segment count differs", pb.Block)
				}
				for k := range pb.Result.InRegister {
					if pb.Result.InRegister[k] != sb.Result.InRegister[k] || pb.Result.RegOf[k] != sb.Result.RegOf[k] {
						t.Fatalf("block %s: segment %d residence differs", pb.Block, k)
					}
				}
				if pb.Binding.Locations != sb.Binding.Locations {
					t.Fatalf("block %s: binding differs", pb.Block)
				}
			}
		}
	}
}

// TestRunRejectsUnknownEngine: an invalid engine name surfaces as a
// configuration error from both the sequential and parallel paths.
func TestRunRejectsUnknownEngine(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	for _, workers := range []int{1, 4} {
		cfg := config()
		cfg.Options.Engine = "simplex"
		cfg.Workers = workers
		if _, err := Run(prog, cfg); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Fatalf("workers %d: err %v, want unknown engine", workers, err)
		}
	}
}

// TestParallelErrorDeterministic: the parallel path reports the same first
// failing block as the sequential path.
func TestParallelErrorDeterministic(t *testing.T) {
	prog := parse(t, twoBlockSrc)
	cfg := config()
	cfg.Options.Registers = 0
	cfg.Options.Memory = lifetime.MemoryAccess{Period: 40, Offset: 1}
	cfg.Options.Split = lifetime.SplitMinimal
	cfg.Workers = 1
	_, seqErr := Run(prog, cfg)
	if seqErr == nil {
		t.Fatal("sequential path accepted infeasible config")
	}
	cfg.Workers = 4
	_, parErr := Run(prog, cfg)
	if parErr == nil {
		t.Fatal("parallel path accepted infeasible config")
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error differs:\nseq: %v\npar: %v", seqErr, parErr)
	}
}
