package graph

import "fmt"

// HamiltonPath returns a Hamilton path — a permutation of the vertices in
// which consecutive vertices are adjacent. The constructors of the
// topologies for which the paper establishes one (Lemma 4.6) record it:
// the complete graph, the list and the ring (0, 1, …, n−1), d-dimensional
// meshes and tori (MeshHamiltonPath) and hypercubes
// (HypercubeHamiltonPath). Any other graph of at most 16 vertices is
// searched by backtracking; larger ones report an error. The returned
// slice is the caller's.
//
// The arrow protocol of Theorem 4.5 uses this path as its spanning tree;
// combined with Lemma 4.3 (nearest-neighbour TSP on a list costs ≤ 3n) that
// makes the queuing complexity O(n) on all of these graphs.
func HamiltonPath(g *Graph) ([]int, error) {
	if g.known != nil && g.known.hamilton != nil && g.N() > 0 {
		return g.known.hamilton(), nil
	}
	if g.N() <= 16 {
		if order, ok := hamiltonBacktrack(g); ok {
			return order, nil
		}
	}
	return nil, fmt.Errorf("graph: no Hamilton path construction for %s", g.Name())
}

// VerifyHamiltonPath reports whether order is a Hamilton path of g: a
// permutation of 0..n-1 whose consecutive entries are adjacent in g.
func VerifyHamiltonPath(g *Graph, order []int) error {
	n := g.N()
	if len(order) != n {
		return fmt.Errorf("graph: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n {
			return fmt.Errorf("graph: vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("graph: vertex %d repeated", v)
		}
		seen[v] = true
	}
	for i := 1; i < len(order); i++ {
		if !g.HasEdge(order[i-1], order[i]) {
			return fmt.Errorf("graph: consecutive vertices %d,%d not adjacent", order[i-1], order[i])
		}
	}
	return nil
}

// MeshHamiltonPath returns the boustrophedon ("snake") Hamilton path of the
// d-dimensional mesh with the given side lengths, following the inductive
// proof of Lemma 4.6: a d-dimensional mesh is a stack of (d-1)-dimensional
// meshes; traverse each slab with the inductively constructed path,
// alternating its direction so consecutive slab traversals abut.
func MeshHamiltonPath(dims ...int) []int {
	if len(dims) == 0 {
		return []int{0}
	}
	inner := MeshHamiltonPath(dims[1:]...)
	stride := len(inner) // vertices per slab = product of trailing dims
	order := make([]int, 0, stride*dims[0])
	for i := 0; i < dims[0]; i++ {
		base := i * stride
		if i%2 == 0 {
			for _, off := range inner {
				order = append(order, base+off)
			}
		} else {
			for j := len(inner) - 1; j >= 0; j-- {
				order = append(order, base+inner[j])
			}
		}
	}
	return order
}

// HypercubeHamiltonPath returns the Gray-code Hamilton path of the
// d-dimensional hypercube: vertex i of the path is i ^ (i >> 1).
func HypercubeHamiltonPath(d int) []int {
	n := 1 << d
	order := make([]int, n)
	for i := 0; i < n; i++ {
		order[i] = i ^ (i >> 1)
	}
	return order
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// hamiltonBacktrack searches for a Hamilton path by depth-first backtracking.
// Exponential in n: HamiltonPath calls it only for graphs of at most 16
// vertices whose constructor recorded no path (e.g. star(9), debruijn(4)).
func hamiltonBacktrack(g *Graph) ([]int, bool) {
	n := g.N()
	used := make([]bool, n)
	order := make([]int, 0, n)
	var dfs func(v int) bool
	dfs = func(v int) bool {
		used[v] = true
		order = append(order, v)
		if len(order) == n {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if !used[w] && dfs(w) {
				return true
			}
		}
		used[v] = false
		order = order[:len(order)-1]
		return false
	}
	for s := 0; s < n; s++ {
		if dfs(s) {
			return order, true
		}
	}
	return nil, false
}
