// Package tree provides rooted spanning trees of graphs, the structure on
// which both the arrow protocol (queuing upper bound, Section 4 of the
// paper) and the tree-based counting protocols run.
//
// A Tree records, for each vertex of the host graph, its parent in the tree
// (the root is its own parent), the children lists, and depths. Distances on
// the tree metric are answered in O(log n) via binary-lifting LCA; the
// nearest-neighbour TSP analysis of Lemmas 4.3–4.10 is computed on this
// metric.
package tree

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Tree is a rooted spanning tree over vertices 0..N-1. Construct with
// FromParents, BFSTree, PathTree, Perfect, ForQueuing or ForCounting; the
// zero value is not useful.
type Tree struct {
	root     int
	parent   []int   // parent[v]; parent[root] == root
	children [][]int // children[v], in ascending order
	depth    []int   // depth[root] == 0
	order    []int   // vertices in BFS order from the root
	up       [][]int // binary lifting table: up[k][v] = 2^k-th ancestor

	routerOnce sync.Once // guards router, built by the first Router call
	router     *Router
}

// FromParents builds a Tree from a parent array. parent[root] must equal
// root and every other vertex must reach the root by following parents.
func FromParents(root int, parent []int) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("tree: root %d out of range [0,%d)", root, n)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("tree: parent[root=%d] = %d, want %d", root, parent[root], root)
	}
	t := &Tree{
		root:     root,
		parent:   append([]int(nil), parent...),
		children: make([][]int, n),
		depth:    make([]int, n),
	}
	for v := 0; v < n; v++ {
		if parent[v] < 0 || parent[v] >= n {
			return nil, fmt.Errorf("tree: parent[%d] = %d out of range", v, parent[v])
		}
		if v != root {
			t.children[parent[v]] = append(t.children[parent[v]], v)
		}
	}
	// BFS from the root assigns depths and detects unreachable vertices
	// (which would indicate a cycle or a second component).
	t.order = make([]int, 0, n)
	seen := make([]bool, n)
	seen[root] = true
	t.order = append(t.order, root)
	for i := 0; i < len(t.order); i++ {
		u := t.order[i]
		for _, c := range t.children[u] {
			if seen[c] {
				return nil, fmt.Errorf("tree: vertex %d reached twice", c)
			}
			seen[c] = true
			t.depth[c] = t.depth[u] + 1
			t.order = append(t.order, c)
		}
	}
	if len(t.order) != n {
		return nil, fmt.Errorf("tree: only %d of %d vertices reachable from root", len(t.order), n)
	}
	t.buildLifting()
	return t, nil
}

// MustFromParents is FromParents but panics on error; for use by
// constructors whose parent arrays are correct by construction.
func MustFromParents(root int, parent []int) *Tree {
	t, err := FromParents(root, parent)
	if err != nil {
		panic(err)
	}
	return t
}

// BFSTree returns the breadth-first spanning tree of g rooted at root.
// g must be connected.
func BFSTree(g *graph.Graph, root int) (*Tree, error) {
	_, parent := g.BFS(root)
	for v, p := range parent {
		if p < 0 {
			return nil, fmt.Errorf("tree: vertex %d unreachable from root %d", v, root)
		}
	}
	return FromParents(root, parent)
}

// PathTree returns the spanning tree that is the given path (typically a
// Hamilton path of the host graph), rooted at its first vertex. Theorem 4.5
// runs the arrow protocol on exactly this tree.
func PathTree(order []int) (*Tree, error) {
	n := len(order)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty path")
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[order[0]] = order[0]
	for i := 1; i < n; i++ {
		v := order[i]
		if v < 0 || v >= n || parent[v] != -1 {
			return nil, fmt.Errorf("tree: path is not a permutation at position %d", i)
		}
		parent[v] = order[i-1]
	}
	return FromParents(order[0], parent)
}

// ForQueuing returns the spanning tree the arrow protocol runs on: g's
// Hamilton path when it has one (Theorem 4.5, Lemma 4.6), otherwise the
// BFS tree from node 0, with the label a comparison table prints for it.
func ForQueuing(g *graph.Graph) (*Tree, string, error) {
	if order, err := graph.HamiltonPath(g); err == nil {
		t, err := PathTree(order)
		return t, "hamilton path", err
	}
	t, err := BFSTree(g, 0)
	return t, "BFS tree", err
}

// ForCounting returns the spanning tree the rooted protocols (every
// counter, and the central queue) run on: on a complete graph the balanced
// binary heap tree (parent(v) = ⌊(v−1)/2⌋, constant degree and logarithmic
// depth, Theorem 3.5's setting), otherwise the BFS tree from a centre of
// g (graph.Center: least eccentricity, smallest id among ties), so the
// root that serializes the operations sits as close to every requester
// as any node can.
func ForCounting(g *graph.Graph) (*Tree, error) {
	if n := g.N(); n > 1 && g.M() == n*(n-1)/2 {
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = (v - 1) / 2
		}
		return FromParents(0, parent)
	}
	c := g.Center()
	if c < 0 {
		return nil, fmt.Errorf("tree: %s has no centre (empty or disconnected)", g.Name())
	}
	return BFSTree(g, c)
}

// Perfect returns the perfect m-ary tree with the given number of levels in
// heap numbering (root 0, children of v are m·v+1 … m·v+m).
func Perfect(m, levels int) *Tree {
	if m < 2 || levels < 1 {
		panic(fmt.Sprintf("tree: bad perfect tree shape m=%d levels=%d", m, levels))
	}
	n := 0
	for i, p := 0, 1; i < levels; i, p = i+1, p*m {
		n += p
	}
	parent := make([]int, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = (v - 1) / m
	}
	return MustFromParents(0, parent)
}

// N reports the number of vertices.
func (t *Tree) N() int { return len(t.parent) }

// Root reports the root vertex.
func (t *Tree) Root() int { return t.root }

// Parent reports the tree parent of v (the root is its own parent).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Children returns the children of v in ascending order. The slice is shared
// and must not be modified.
func (t *Tree) Children(v int) []int { return t.children[v] }

// Depth reports the depth of v (root has depth 0).
func (t *Tree) Depth(v int) int { return t.depth[v] }

// Height reports the maximum depth of any vertex.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// BFSOrder returns the vertices in breadth-first order from the root. The
// slice is shared and must not be modified.
func (t *Tree) BFSOrder() []int { return t.order }

// TreeDegree reports the degree of v in the tree (children plus parent).
func (t *Tree) TreeDegree(v int) int {
	d := len(t.children[v])
	if v != t.root {
		d++
	}
	return d
}

// MaxDegree reports the maximum tree degree. The arrow protocol's expanded
// time steps multiply delays by (at most) this constant; Theorem 4.1 requires
// it to be bounded.
func (t *Tree) MaxDegree() int {
	max := 0
	for v := range t.parent {
		if d := t.TreeDegree(v); d > max {
			max = d
		}
	}
	return max
}

// buildLifting fills the binary-lifting ancestor table.
func (t *Tree) buildLifting() {
	n := t.N()
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n - 1))
	}
	t.up = make([][]int, levels)
	t.up[0] = t.parent
	for k := 1; k < levels; k++ {
		prev := t.up[k-1]
		cur := make([]int, n)
		for v := 0; v < n; v++ {
			cur[v] = prev[prev[v]]
		}
		t.up[k] = cur
	}
}

// LCA returns the lowest common ancestor of u and v.
func (t *Tree) LCA(u, v int) int {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff != 0; k++ {
		if diff&1 == 1 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return t.parent[u]
}

// Dist returns the number of tree edges on the path between u and v — the
// tree metric used by the nearest-neighbour TSP analysis.
func (t *Tree) Dist(u, v int) int {
	l := t.LCA(u, v)
	return t.depth[u] + t.depth[v] - 2*t.depth[l]
}

// PathBetween returns the sequence of vertices on the tree path from u to v,
// inclusive of both endpoints.
func (t *Tree) PathBetween(u, v int) []int {
	l := t.LCA(u, v)
	var upPart []int
	for x := u; x != l; x = t.parent[x] {
		upPart = append(upPart, x)
	}
	upPart = append(upPart, l)
	var downPart []int
	for x := v; x != l; x = t.parent[x] {
		downPart = append(downPart, x)
	}
	for i := len(downPart) - 1; i >= 0; i-- {
		upPart = append(upPart, downPart[i])
	}
	return upPart
}

// NextHop returns the neighbor of from that is one step closer to target on
// the tree (from must differ from target).
func (t *Tree) NextHop(from, to int) int {
	if from == to {
		panic("tree: NextHop with from == to")
	}
	l := t.LCA(from, to)
	if from != l {
		return t.parent[from]
	}
	// from is an ancestor of to: step down toward to.
	x := to
	for t.parent[x] != from {
		x = t.parent[x]
	}
	return x
}

// IsSpanningOf reports whether every tree edge exists in g and the tree
// covers exactly g's vertices — i.e. whether t is a spanning tree of g.
func (t *Tree) IsSpanningOf(g *graph.Graph) error {
	if t.N() != g.N() {
		return fmt.Errorf("tree: has %d vertices, graph has %d", t.N(), g.N())
	}
	for v := 0; v < t.N(); v++ {
		if v == t.root {
			continue
		}
		if !g.HasEdge(v, t.parent[v]) {
			return fmt.Errorf("tree: edge (%d,%d) not in graph", v, t.parent[v])
		}
	}
	return nil
}

// SubtreeSizes returns, for every vertex, the number of vertices in its
// subtree (including itself).
func (t *Tree) SubtreeSizes() []int {
	size := make([]int, t.N())
	for i := len(t.order) - 1; i >= 0; i-- {
		v := t.order[i]
		size[v] = 1
		for _, c := range t.children[v] {
			size[v] += size[c]
		}
	}
	return size
}

// Leaves returns the vertices with no children, in ascending order.
func (t *Tree) Leaves() []int {
	var ls []int
	for v := 0; v < t.N(); v++ {
		if len(t.children[v]) == 0 {
			ls = append(ls, v)
		}
	}
	return ls
}
