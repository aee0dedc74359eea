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
	queue = g.search(v, dist, queue)
	if len(queue) < g.N() {
		return -1
	}
	return dist[queue[len(queue)-1]]
}

// Center returns a vertex of least eccentricity, the smallest id among
// ties, or -1 if g is empty or disconnected. It searches from as few
// sources as it can prove it needs: a completed search from s shows that
// every vertex v has ecc(v) ≥ max(d(s,v), ecc(s) − d(s,v)), so the next
// source is the unsearched vertex of least such bound (the smaller id on
// ties), and the search ends when that vertex could neither beat the best
// eccentricity found nor tie it with a smaller id. The second and third
// searches instead start where the one before ended, its last vertex
// reached (a double sweep): on a tree the two ends of a longest path that
// gives bound every eccentricity exactly, so a tree takes at most four
// searches. A graph its constructor knows to be vertex-transitive
// (hypercube, cube-connected cycles) takes none: every vertex has one
// eccentricity, so the answer is vertex 0. The worst case is a search
// from every vertex, O(n·m) time; on a vertex-transitive graph nobody
// marked, no bound prunes and it is half of them. Three allocations.
func (g *Graph) Center() int {
	center, _ := g.center()
	return center
}

// center is Center, also reporting how many searches it ran.
func (g *Graph) center() (center, searches int) {
	n := g.N()
	if g.known != nil && g.known.transitive && n > 0 {
		return 0, 0
	}
	dist, queue := g.searchBuffers()
	// lb[v] is a proven lower bound on ecc(v); a searched vertex's is n,
	// above any eccentricity, so it is never chosen again.
	lb := make([]int, n)
	center, best := -1, n
	far := 0 // the vertex the last search reached last
	for {
		s := -1
		for v, b := range lb {
			if s < 0 || b < lb[s] {
				s = v
			}
		}
		if s < 0 || lb[s] > best || (lb[s] == best && s > center) {
			return center, searches
		}
		if searches < 3 && lb[far] < n {
			s = far
		}
		searches++
		queue = g.search(s, dist, queue)
		if len(queue) < n {
			return -1, searches
		}
		far = queue[len(queue)-1]
		ecc := dist[far]
		if ecc < best || (ecc == best && s < center) {
			center, best = s, ecc
		}
		for _, v := range queue {
			d := dist[v]
			lb[v] = max(lb[v], d, ecc-d)
			dist[v] = -1
		}
		lb[s] = n
	}
}

// searchBuffers returns search's buffers: every distance unset, and an
// empty queue with room for every vertex.
func (g *Graph) searchBuffers() (dist, queue []int) {
	dist = make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	return dist, make([]int, 0, g.N())
}

// search runs a BFS from src over buffers from searchBuffers: it sets the
// distance of every vertex it reaches and returns those vertices in the
// order it reached them, so the last is a farthest one. A caller that
// searches again first unsets the distances of the returned vertices.
func (g *Graph) search(src int, dist, queue []int) []int {
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
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
