package flow

// costScale solves for a flow of `required` units from s to t on the
// residual network by reducing to a minimum-cost circulation: a t->s return
// arc with a strongly negative cost forces the flow value to the maximum
// (capped at required), after which ε-scaling drives the circulation to
// optimality.
func costScale(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	r := &sc.r
	if required == 0 {
		return 0, nil
	}
	// Return arc: cheaper than any simple path's total cost, so every unit
	// of s->t flow pays for itself. Storage holds each cost twice (forward
	// and negated reverse), so the absolute sum halves.
	var absSum int64
	for _, c := range r.cost {
		if c < 0 {
			c = -c
		}
		absSum += c
	}
	costSum := 1 + absSum/2
	back := r.addPair(t, s, required, -costSum)
	r.ensureCSR()

	n := int64(r.n)
	// Work with costs scaled by n so ε < 1 certifies optimality.
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
	price := make([]int64, r.n)
	excess := make([]int64, r.n)

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
		queue := make([]int, 0, r.n)
		inQueue := make([]bool, r.n)
		for u := 0; u < r.n; u++ {
			if excess[u] > 0 {
				queue = append(queue, u)
				inQueue[u] = true
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
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
						queue = append(queue, v)
						inQueue[v] = true
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

	shipped := r.flowOn(back)
	// Neutralise the return arc so the caller's flow extraction sees pure
	// s->t flow.
	r.capR[r.pos[back]] = 0
	r.capR[r.pos[back^1]] = 0
	return shipped, nil
}
