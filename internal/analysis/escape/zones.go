package escape

// ZoneFunc names one function of a zone package that must stay
// allocation-free on its steady-state path. Names are unqualified for
// package-level functions ("dijkstra") and "Type.Method" for methods, with
// pointer receivers stripped ("Network.MinCostFlowValueWithCostsInto").
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

// Zones returns the checked-in noalloc zone map: the one solve path in
// internal/flow (zero allocations once warm), the sweep runner's column
// loop, and the serve engine's worker loop. Cold sub-paths
// inside these functions (error formatting, first-use growth) are declared
// per line with //lea:allocs markers; everything else must not allocate.
func Zones() []Zone {
	return []Zone{
		{Pkg: "internal/flow", Funcs: []ZoneFunc{
			// The one solve entry point, AllocsPerRun-asserted.
			{Name: "Network.MinCostFlowValueWithCostsInto", Root: true},
			// The solve internals it drives.
			{Name: "Network.solveWithCosts"},
			{Name: "Network.readFlow"},
			{Name: "Scratch.installCosts"},
			{Name: "Scratch.preparedFor"},
			{Name: "costsEqual"},
			// The SSP engine under the warm path: pathfinding, potentials and
			// the priority queue.
			{Name: "ssp"},
			{Name: "initPotentials"},
			{Name: "dagRelax"},
			{Name: "bellmanFord"},
			{Name: "dijkstra"},
			// The live-arc set those rounds walk.
			{Name: "fillLive"},
			{Name: "residual.syncLive"},
			{Name: "residual.liveWord"},
			{Name: "payHeap.push"},
			{Name: "payHeap.pop"},
			{Name: "payHeap.heapify"},
			{Name: "payHeap.down"},
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
