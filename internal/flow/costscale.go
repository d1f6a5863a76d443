package flow

// costScale ships `required` units from s to t with Dinic, as cycleCancel
// does, then refines that feasible flow to a minimum-cost one by ε-scaling
// push-relabel. Refinement only reroutes flow around residual cycles, so the
// shipped value stays at required and the residual keeps its arcs.
func costScale(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	r := &sc.r
	if required == 0 {
		return 0, nil
	}
	shipped := dinic(sc, s, t, required)
	if shipped < required {
		return shipped, nil // caller reports ErrInfeasible
	}

	// Saturating an Unbounded arc whole overflows its head's int64 excess.
	// Some optimum differs from Dinic's flow on every arc by at most the
	// residual's total finite capacity, so refinement runs with each
	// residual capacity clamped to that total plus the required flow and
	// hands the clamped remainder back at the end.
	bound := required
	for _, c := range r.capR {
		if c < Unbounded/2 {
			bound += c
		}
	}
	held := make([]int64, len(r.capR))
	for a, c := range r.capR {
		if c > bound {
			held[a] = c - bound
			r.capR[a] = bound
		}
	}
	defer func() {
		for a, h := range held {
			r.capR[a] += h
		}
	}()

	// Work with costs scaled by n+1: a flow that is 1-optimal under the
	// scaled costs is 1/(n+1)-optimal under the integer ones, which
	// certifies optimality because every residual cycle has at most n arcs.
	n := int64(r.n) + 1
	cost := make([]int64, len(r.cost))
	var maxC int64
	for i, c := range r.cost {
		cost[i] = c * n
		if c < 0 {
			c = -c
		}
		if c*n > maxC {
			maxC = c * n
		}
	}
	// With zero prices every residual arc's reduced cost is at least -maxC:
	// Dinic's flow is maxC-optimal, where the first phase starts.
	price := make([]int64, r.n)
	excess := make([]int64, r.n)
	// The active nodes' FIFO: a ring of one slot per node, since a node is
	// queued at most once at a time.
	queue := make([]int32, r.n)
	inQueue := make([]bool, r.n)
	head, queued := 0, 0
	enqueue := func(v int) {
		queue[(head+queued)%r.n] = int32(v)
		queued++
		inQueue[v] = true
	}

	rc := func(a int32, u int) int64 {
		return cost[a] + price[u] - price[r.to[a]]
	}
	push := func(a int32, u int, amt int64) {
		r.capR[a] -= amt
		r.capR[r.rev[a]] += amt
		excess[u] -= amt
		excess[r.to[a]] += amt
		st.Pushes++
	}

	for eps := maxC; eps >= 1; eps /= 2 {
		st.Phases++
		// Saturate every negative-reduced-cost arc.
		for u := 0; u < r.n; u++ {
			for a := r.start[u]; a < r.start[u+1]; a++ {
				if r.capR[a] > 0 && rc(a, u) < 0 {
					push(a, u, r.capR[a])
				}
			}
		}
		// Discharge active nodes.
		for u := 0; u < r.n; u++ {
			if excess[u] > 0 {
				enqueue(u)
			}
		}
		for queued > 0 {
			u := int(queue[head])
			head = (head + 1) % r.n
			queued--
			inQueue[u] = false
			for excess[u] > 0 {
				pushed := false
				for a := r.start[u]; a < r.start[u+1]; a++ {
					if r.capR[a] <= 0 || rc(a, u) >= 0 {
						continue
					}
					amt := excess[u]
					if r.capR[a] < amt {
						amt = r.capR[a]
					}
					v := int(r.to[a])
					push(a, u, amt)
					pushed = true
					if excess[v] > 0 && !inQueue[v] {
						enqueue(v)
					}
					if excess[u] == 0 {
						break
					}
				}
				if excess[u] > 0 && !pushed {
					// Relabel: the largest price keeping some residual arc
					// admissible.
					st.Relabels++
					newPrice := int64(-1) << 62
					for a := r.start[u]; a < r.start[u+1]; a++ {
						if r.capR[a] <= 0 {
							continue
						}
						if p := price[r.to[a]] - cost[a] - eps; p > newPrice {
							newPrice = p
						}
					}
					if newPrice == int64(-1)<<62 {
						// No residual arc at all: the excess is stuck, which
						// cannot happen on our connected constructions.
						return 0, ErrInfeasible
					}
					price[u] = newPrice
				}
			}
		}
	}
	return shipped, nil
}
