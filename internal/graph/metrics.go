package graph

// BFS returns the distance (in hops) from src to every vertex, with -1 for
// unreachable vertices, together with a BFS parent array (parent[src] = src,
// parent[v] = -1 for unreachable v). Neighbors are visited in ascending
// order, so the result is deterministic.
func (g *Graph) BFS(src int) (dist, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single vertex are connected.
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum distance from v to any vertex, or -1 if
// some vertex is unreachable from v.
func (g *Graph) Eccentricity(v int) int {
	dist, queue := g.searchBuffers()
	return g.eccentricity(v, dist, queue, g.N())
}

// Center returns a vertex of least eccentricity, the smallest id among
// ties, or -1 if g is empty or disconnected. It runs a BFS from every
// vertex over one distance array and one queue, so it costs O(n·m) time
// and two allocations; each search stops once it is as deep as the least
// eccentricity found so far.
func (g *Graph) Center() int {
	dist, queue := g.searchBuffers()
	center, best := -1, g.N()
	for v := 0; v < g.N(); v++ {
		ecc := g.eccentricity(v, dist, queue, best)
		if ecc < 0 {
			return -1
		}
		if ecc < best {
			center, best = v, ecc
		}
	}
	return center
}

// searchBuffers returns eccentricity's buffers: every distance unset, and
// an empty queue with room for every vertex.
func (g *Graph) searchBuffers() (dist, queue []int) {
	dist = make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	return dist, make([]int, 0, g.N())
}

// eccentricity is Eccentricity over buffers from searchBuffers, which it
// leaves as it found them. A search that reaches depth bound stops there
// and returns bound, since its caller only needs to know the eccentricity
// is at least that; only a search that completes can report -1.
func (g *Graph) eccentricity(src int, dist, queue []int, bound int) int {
	dist[src] = 0
	queue = append(queue[:0], src)
	ecc := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if ecc = dist[u]; ecc >= bound {
			break
		}
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = ecc + 1
				queue = append(queue, v)
			}
		}
	}
	for _, v := range queue {
		dist[v] = -1
	}
	switch {
	case ecc >= bound:
		return bound
	case len(queue) < len(dist):
		return -1
	}
	return ecc
}

// Diameter returns the exact diameter by running a BFS from every vertex
// (O(n·m)); it returns -1 for disconnected graphs. Intended for the problem
// sizes used in the experiments (n up to a few thousand).
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return 0
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc := g.Eccentricity(v)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterDoubleSweep returns a fast lower bound on the diameter using the
// double-sweep heuristic (exact on trees). Useful for large instances where
// the exact all-pairs computation is too slow.
func (g *Graph) DiameterDoubleSweep() int {
	if g.N() == 0 {
		return 0
	}
	dist, _ := g.BFS(0)
	far := argmax(dist)
	dist2, _ := g.BFS(far)
	return dist2[argmax(dist2)]
}

func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		h[g.Degree(v)]++
	}
	return h
}
