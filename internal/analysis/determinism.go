package analysis

import (
	"fmt"
	"go/ast"
)

// timeAllowed lists the internal packages permitted to read the wall clock:
// the solver stats plumbing times its own stages there, and the serving
// layer measures request latency. Everything else in internal/ must stay
// clock-free — the warm-start equality and byte-identical parallelism
// guarantees depend on replayable behaviour.
var timeAllowed = map[string]bool{
	"internal/flow":         true,
	"internal/core":         true,
	"internal/serve/engine": true,
	// The open-loop scheduler's whole job is wall-clock pacing and
	// intended-start latency measurement; its *schedules* stay deterministic
	// (seeded generators), only the measurement reads the clock.
	"internal/workload/generator": true,
}

// randConstructors are the math/rand package-level names that do NOT touch
// the unseeded global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// determinismPass flags unseeded global math/rand use (LEA0101) anywhere in
// production code and wall-clock reads (LEA0102) outside the stats allowlist.
// Seeded sources (rand.New(rand.NewSource(seed))) are fine everywhere:
// experiments must be replayable, so randomness flows through an explicit
// *rand.Rand.
type determinismPass struct{}

// Name implements Pass.
func (determinismPass) Name() string { return "determinism" }

// Doc implements Pass.
func (determinismPass) Doc() string {
	return "no unseeded global math/rand; wall clock only in the stats allowlist"
}

// Codes implements Pass.
func (determinismPass) Codes() []Code {
	return []Code{
		{ID: "LEA0101", Summary: "unseeded global math/rand source in production code"},
		{ID: "LEA0102", Summary: "wall-clock read outside the stats allowlist"},
	}
}

// Run implements Pass.
func (determinismPass) Run(p *Package) []Finding {
	var out []Finding
	clockFree := p.Internal() && !timeAllowed[p.Rel]
	for _, file := range p.Files {
		randName := importAlias(file, "math/rand", "rand")
		timeName := importAlias(file, "time", "time")
		if randName == "" && (timeName == "" || !clockFree) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Obj != nil { // id.Obj != nil: a local shadowing the import
				return true
			}
			switch {
			case randName != "" && id.Name == randName && !randConstructors[sel.Sel.Name]:
				out = append(out, Finding{
					Pos:  p.Fset.Position(call.Pos()),
					Code: "LEA0101",
					Msg: fmt.Sprintf("rand.%s uses the unseeded global source; thread a seeded *rand.Rand instead",
						sel.Sel.Name),
				})
			case clockFree && timeName != "" && id.Name == timeName &&
				(sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until"):
				out = append(out, Finding{
					Pos:  p.Fset.Position(call.Pos()),
					Code: "LEA0102",
					Msg: fmt.Sprintf("time.%s reads the wall clock in %s, which is outside the stats allowlist (internal/analysis/determinism.go)",
						sel.Sel.Name, p.Rel),
				})
			}
			return true
		})
	}
	return out
}
