package analysis

import (
	"fmt"
	"strings"
)

// Layer ranks for every internal package: a package may import another
// internal package only when the importee's rank is strictly lower. The ranks
// encode the repo's architecture — solver substrate (flow, graph) at the
// bottom, the lifetime/netbuild model in the middle, core stitching the
// allocation pipeline together, and the program-level drivers (pipeline,
// report) on top. In particular internal/flow and internal/graph can never
// reach internal/ir or internal/sched, and nothing below internal/core may
// depend on it.
//
// New internal and cmd packages must be added here; an unmapped package is
// itself a finding (LEA0002), so the map cannot silently rot. The cmd tier
// (rank 100) sits above every library rank: commands may import any internal
// package but nothing may import a command.
var layerRank = map[string]int{
	"internal/analysis": 0,
	"internal/graph":    0,
	"internal/energy":   0,
	// The escape gate drives the real compiler and reports through the
	// analysis Finding type, so it sits one rank above the pure-AST linter.
	"internal/analysis/escape": 1,
	"internal/flow":            1,
	"internal/ir":              1,
	"internal/trace":           1,
	"internal/sched":           2,
	"internal/opt":             2,
	"internal/regen":           2,
	"internal/lifetime":        3,
	"internal/netbuild":        4,
	"internal/workload":        4,
	"internal/check":           5,
	"internal/core":            6,
	"internal/baseline":        7,
	"internal/moa":             7,
	"internal/viz":             7,
	"internal/sweep":           7,
	"internal/simulate":        7,
	// The serving stack: the pure request engine sits below the shard router
	// and the HTTP transport; shard and transport share a rank, so neither
	// can import the other — both compose only downward through the engine.
	"internal/serve/engine":    7,
	"internal/serve/shard":     8,
	"internal/serve/transport": 8,
	"internal/memmap":          8,
	"internal/exact":           8,
	"internal/emit":            8,
	"internal/actmem":          9,
	"internal/pipeline":        9,
	"internal/report":          10,
	"cmd/leabench":             100,
	"cmd/leaflow":              100,
	"cmd/leagen":               100,
	"cmd/lealint":              100,
	"cmd/leaload":              100,
	"cmd/leaperf":              100,
	"cmd/leaserved":            100,
	"cmd/leasweep":             100,
}

// layeringPass enforces the layer ranks (codes LEA0001, LEA0002) over
// internal/ and cmd/ packages. The root package and examples/ sit above the
// whole DAG and may import anything.
type layeringPass struct{}

// Name implements Pass.
func (layeringPass) Name() string { return "layering" }

// Doc implements Pass.
func (layeringPass) Doc() string {
	return "internal packages import strictly downward through the layer ranks"
}

// Codes implements Pass.
func (layeringPass) Codes() []Code {
	return []Code{
		{ID: "LEA0001", Summary: "internal import goes upward or sideways through the layer ranks"},
		{ID: "LEA0002", Summary: "internal or cmd package missing from the layer map"},
	}
}

// Run implements Pass.
func (layeringPass) Run(p *Package) []Finding {
	if !p.Internal() && !strings.HasPrefix(p.Rel, "cmd/") {
		return nil
	}
	var out []Finding
	rank, mapped := layerRank[p.Rel]
	if !mapped {
		pos := p.Fset.Position(p.Files[0].Name.Pos())
		out = append(out, Finding{
			Pos:  pos,
			Code: "LEA0002",
			Msg:  fmt.Sprintf("package %s is not in the layer map (internal/analysis/layering.go); assign it a rank", p.Rel),
		})
	}
	prefix := p.Module + "/internal/"
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, prefix) {
				continue
			}
			depRel := strings.TrimPrefix(path, p.Module+"/")
			depRank, ok := layerRank[depRel]
			if !ok {
				out = append(out, Finding{
					Pos:  p.Fset.Position(imp.Pos()),
					Code: "LEA0002",
					Msg:  fmt.Sprintf("import of unmapped internal package %s; assign it a rank in the layer map", depRel),
				})
				continue
			}
			if mapped && depRank >= rank {
				out = append(out, Finding{
					Pos:  p.Fset.Position(imp.Pos()),
					Code: "LEA0001",
					Msg: fmt.Sprintf("layering violation: %s (rank %d) imports %s (rank %d); imports must go strictly downward",
						p.Rel, rank, depRel, depRank),
				})
			}
		}
	}
	return out
}

// LayerRank exposes the configured rank of an internal package (by
// module-relative path) for tests and tooling.
func LayerRank(rel string) (int, bool) {
	r, ok := layerRank[rel]
	return r, ok
}
