// Package graph provides undirected graphs and the interconnection
// topologies studied in Busch & Tirthapura, "Concurrent counting is harder
// than queuing" (TCS 411, 2010): the complete graph, the list, the
// d-dimensional mesh, the hypercube, the star, perfect m-ary trees, and a
// high-diameter caterpillar family.
//
// Vertices are the integers 0..N-1. Graphs are immutable after construction
// through the Builder; all topology constructors return fully built graphs.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable, connected or unconnected, simple undirected graph.
// The zero value is the empty graph with no vertices.
//
// A Graph is 48 bytes, and M counts edges rather than storing them: a 56-
// or 72-byte Graph moved to another allocation size class and slowed the
// star9 bridge round trip by 6–8 % on a 2-vCPU host, through the heap
// placement of what is allocated after it (no code path changed).
type Graph struct {
	name  string
	adj   [][]int // adjacency lists, each sorted ascending
	known *known  // what the constructor knows by construction; nil when nothing
}

// known is what a topology constructor knows about its graph by
// construction, so that no search has to find it.
type known struct {
	hamilton func() []int // builds a Hamilton path; nil when the constructor knows none
	// transitive is set on a vertex-transitive graph: every vertex looks
	// like every other, so each has the same eccentricity and vertex 0
	// is the centre Center reports.
	transitive bool
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops are
// rejected. A Builder must be created with NewBuilder.
type Builder struct {
	name string
	n    int
	adj  [][]int
	seen map[[2]int]bool
}

// NewBuilder returns a Builder for a graph with n vertices named name.
// It panics if n is negative; an empty graph (n == 0) is allowed.
func NewBuilder(name string, n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{
		name: name,
		n:    n,
		adj:  make([][]int, n),
		seen: make(map[[2]int]bool),
	}
}

// AddEdge inserts the undirected edge {u, v}. It returns an error if either
// endpoint is out of range, if u == v, or if the edge already exists.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	key := edgeKey(u, v)
	if b.seen[key] {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[key] = true
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	return nil
}

// MustAddEdge is AddEdge but panics on error. Topology constructors use it
// for edges that are correct by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build finalizes the graph. The Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	for _, a := range b.adj {
		sort.Ints(a)
	}
	g := &Graph{name: b.name, adj: b.adj}
	b.adj = nil
	b.seen = nil
	return g
}

// with records what g's constructor knows: the builder of the Hamilton
// path that HamiltonPath returns, and whether g is vertex-transitive.
func (g *Graph) with(k known) *Graph {
	g.known = &k
	return g
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Name reports the topology name given at construction (e.g. "hypercube(8)").
func (g *Graph) Name() string { return g.name }

// N reports the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M reports the number of undirected edges.
func (g *Graph) M() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// Degree reports the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree reports the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// String returns a short description such as "mesh(8x8): n=64 m=112".
func (g *Graph) String() string {
	return fmt.Sprintf("%s: n=%d m=%d", g.name, g.N(), g.M())
}
