package flow

// dinic pushes up to `limit` units from s to t in the scratch's residual,
// returning the amount pushed. It borrows the Dijkstra rounds' node buffers:
// prevArc holds the BFS levels, the heap's nodeSeq each node's cursor into
// its CSR storage run and its stack the BFS queue.
func dinic(sc *Scratch, s, t int, limit int64) int64 {
	r := &sc.r
	r.ensureCSR()
	sc.prevArc = grow32(sc.prevArc, r.n)
	sc.heap.nodeSeq = grow32(sc.heap.nodeSeq, r.n)
	if cap(sc.heap.stack) < r.n {
		sc.heap.stack = make([]int32, 0, r.n)
	}
	level, iter, queue := sc.prevArc, sc.heap.nodeSeq, sc.heap.stack[:0]
	var total int64
	for total < limit {
		// BFS levels.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for a := r.start[u]; a < r.start[u+1]; a++ {
				v := r.to[a]
				if r.capR[a] > 0 && level[v] < 0 {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if level[t] < 0 {
			break
		}
		copy(iter, r.start[:r.n])
		for {
			pushed := dinicDFS(r, level, iter, s, t, limit-total)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

func dinicDFS(r *residual, level, iter []int32, u, t int, f int64) int64 {
	if u == t || f == 0 {
		return f
	}
	for ; iter[u] < r.start[u+1]; iter[u]++ {
		a := iter[u]
		v := int(r.to[a])
		if r.capR[a] <= 0 || level[v] != level[u]+1 {
			continue
		}
		avail := f
		if r.capR[a] < avail {
			avail = r.capR[a]
		}
		if d := dinicDFS(r, level, iter, v, t, avail); d > 0 {
			r.capR[a] -= d
			r.capR[r.rev[a]] += d
			return d
		}
	}
	return 0
}
