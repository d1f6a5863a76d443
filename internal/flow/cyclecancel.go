package flow

// cycleCancel establishes any feasible s->t flow of `required` units with
// Dinic, then repeatedly cancels negative-cost residual cycles until none
// remain. With integer costs every cancellation reduces total cost by at
// least one, so the algorithm terminates. It is slower than ssp and exists
// as an independent implementation for cross-checking.
func cycleCancel(sc *Scratch, s, t int, required int64, st *SolveStats) (int64, error) {
	r := &sc.r
	shipped := dinic(sc, s, t, required)
	if shipped < required {
		return shipped, nil // caller reports ErrInfeasible
	}
	for {
		st.Phases++
		cyc := findNegativeCycle(r, sc)
		if cyc == nil {
			break
		}
		bottleneck := Unbounded
		for _, a := range cyc {
			if r.capR[a] < bottleneck {
				bottleneck = r.capR[a]
			}
		}
		for _, a := range cyc {
			r.capR[a] -= bottleneck
			r.capR[r.rev[a]] += bottleneck
		}
		st.Augmentations++
	}
	return shipped, nil
}

// findNegativeCycle returns the arc indices of one negative-cost cycle in the
// residual, or nil when none exists. Bellman-Ford from a virtual source
// connected to every node, using the scratch's dist/prevArc buffers.
func findNegativeCycle(r *residual, sc *Scratch) []int32 {
	sc.dist = grow64(sc.dist, r.n)
	sc.prevArc = grow32(sc.prevArc, r.n)
	dist, prevArc := sc.dist, sc.prevArc
	for i := 0; i < r.n; i++ {
		dist[i] = 0
		prevArc[i] = -1
	}
	var witness int32 = -1
	for round := 0; round <= r.n; round++ {
		witness = -1
		for a := 0; a < len(r.to); a++ {
			if r.capR[a] <= 0 {
				continue
			}
			u := r.tail[a]
			v := r.to[a]
			if d := dist[u] + r.cost[a]; d < dist[v] {
				dist[v] = d
				prevArc[v] = int32(a)
				witness = v
			}
		}
		if witness < 0 {
			return nil
		}
	}
	// witness was relaxed on round n: it is reachable from a negative cycle.
	// Walk back n steps to land on the cycle, then collect it.
	v := witness
	for i := 0; i < r.n; i++ {
		v = r.tail[prevArc[v]]
	}
	var cyc []int32
	for u := v; ; {
		a := prevArc[u]
		cyc = append(cyc, a)
		u = r.tail[a]
		if u == v {
			break
		}
	}
	return cyc
}
