package escape

// ZoneFunc names one function of a zone package that must stay
// allocation-free on its steady-state path. Names are unqualified for
// package-level functions ("dijkstra") and "Type.Method" for methods, with
// pointer receivers stripped ("Network.SolveWithCostsInto").
type ZoneFunc struct {
	// Name identifies the function within its package.
	Name string
	// Root marks the zone's public entry points: exactly the functions the
	// runtime AllocsPerRun tests assert at 0 allocs/op. CrossCheck keeps the
	// two lists equal so the static gate and the runtime tests cannot drift.
	Root bool
}

// Zone is one package's noalloc region: the set of functions on a
// steady-state hot path. Every listed function must carry a //lea:noalloc
// annotation at its declaration (and vice versa — an annotated function must
// be listed here); the gate reports drift in either direction as LEA0503.
type Zone struct {
	// Pkg is the module-relative package directory.
	Pkg string
	// Funcs are the zone's member functions.
	Funcs []ZoneFunc
}

// Zones returns the checked-in noalloc zone map: the warm `…Into` solve path
// in internal/flow (PR 7's zero-alloc contract), the sweep runner's column
// loop, and the serve engine's worker loop. Cold sub-paths
// inside these functions (error formatting, first-use growth) are declared
// per line with //lea:allocs markers; everything else must not allocate.
func Zones() []Zone {
	return []Zone{
		{Pkg: "internal/flow", Funcs: []ZoneFunc{
			// The warm-solve public entry points, AllocsPerRun-asserted.
			{Name: "Network.SolveWithCostsInto", Root: true},
			{Name: "Network.MinCostFlowValueWithCostsInto", Root: true},
			// The shared warm-solve internals those entry points drive.
			{Name: "Network.solveWithCosts"},
			{Name: "Scratch.installCosts"},
			{Name: "Scratch.preparedFor"},
			{Name: "Scratch.patchSupplies"},
			{Name: "Scratch.restoreResidual"},
			{Name: "Scratch.validPotentials"},
			{Name: "costsEqual"},
			// The SSP engine under the warm path: pathfinding, potentials and
			// the priority queue.
			{Name: "ssp"},
			{Name: "initPotentials"},
			{Name: "dagRelax"},
			{Name: "repairPotentials"},
			{Name: "bellmanFord"},
			{Name: "dijkstra"},
			{Name: "payHeap.push"},
			{Name: "payHeap.pop"},
		}},
		{Pkg: "internal/sweep", Funcs: []ZoneFunc{
			// The per-divisor warm column solve inside Runner.Run's sweep.
			{Name: "Runner.solveColumn"},
		}},
		{Pkg: "internal/serve/engine", Funcs: []ZoneFunc{
			// The worker's dequeue loop.
			{Name: "Engine.worker"},
		}},
	}
}
