package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// family is one row of the topology table: member k, for k in
// [minK, maxK], has size(k) nodes, and size is strictly increasing there.
type family struct {
	name       string
	minK, maxK int
	size       func(k int) int
	build      func(k int) *Graph
}

func nodes(k int) int { return k }
func pow2(k int) int  { return 1 << uint(k) }

// The identity-sized families stop where a member is still cheap to
// build: list, star and caterpillar (n−1 edges each) at maxSparseNodes,
// complete, whose n(n−1)/2 edges take about 75 MB at its cap, at
// maxCompleteNodes.
const (
	maxSparseNodes   = 1 << 16
	maxCompleteNodes = 1 << 10
)

// families is the topology table: the one place a family name and a node
// count become a graph, behind `countq topo -topo` and the sim bridges'
// topo= option. Every member has at least 2 nodes; maxK keeps size(k)
// inside an int.
var families = []family{
	{"complete", 2, maxCompleteNodes, nodes, Complete},
	{"mesh2d", 2, 1<<(bits.UintSize/2-1) - 1, func(s int) int { return s * s }, func(s int) *Graph { return Mesh(s, s) }},
	{"mesh3d", 2, 1<<(bits.UintSize/3-1) - 1, func(s int) int { return s * s * s }, func(s int) *Graph { return Mesh(s, s, s) }},
	{"hypercube", 1, 30, pow2, Hypercube},
	{"list", 2, maxSparseNodes, nodes, Path},
	{"star", 2, maxSparseNodes, nodes, Star},
	{"mary", 2, 19, func(l int) int { return perfectTreeSize(3, l) }, func(l int) *Graph { return PerfectMAryTree(3, l) }},
	{"caterpillar", 2, maxSparseNodes, nodes, func(n int) *Graph { return Caterpillar(n, 0.75) }},
	{"ccc", 3, 24, func(d int) int { return d << uint(d) }, CubeConnectedCycles},
	{"debruijn", 1, 24, pow2, DeBruijn},
}

// FamilyNames lists the names Family accepts.
func FamilyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// Family builds the member of the named topology family with exactly n
// nodes: complete has one for every n from 2 to 1 024, list, star and
// caterpillar (spine n^0.75) for every n from 2 to 65 536; mesh2d and
// mesh3d for squares and cubes, hypercube and debruijn for powers of two,
// mary (3-ary perfect trees) for 4, 13, 40, … and ccc for d·2^d, d ≥ 3.
// Any other n is an error naming the nearest members below and above: a
// size is never rounded.
func Family(name string, n int) (*Graph, error) {
	f, k, err := lookup(name, n)
	if err != nil {
		return nil, err
	}
	return f.build(k), nil
}

// lookup finds the named family's member with exactly n nodes without
// building it.
func lookup(name string, n int) (family, int, error) {
	for _, f := range families {
		if f.name == name {
			k, err := f.member(n)
			return f, k, err
		}
	}
	return family{}, 0, fmt.Errorf("graph: unknown topology %q (%s)", name, strings.Join(FamilyNames(), "|"))
}

func (f family) member(n int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("graph: %s needs n ≥ 2 nodes, got %d", f.name, n)
	}
	// The first member with at least n nodes.
	k := f.minK + sort.Search(f.maxK-f.minK+1, func(i int) bool { return f.size(f.minK+i) >= n })
	switch {
	case k > f.maxK:
		return 0, fmt.Errorf("graph: %s has no member with %d nodes (largest: %d)", f.name, n, f.size(f.maxK))
	case f.size(k) == n:
		return k, nil
	case k == f.minK:
		return 0, fmt.Errorf("graph: %s has no member with %d nodes (smallest: %d)", f.name, n, f.size(k))
	default:
		return 0, fmt.Errorf("graph: %s has no member with %d nodes (nearest: %d or %d)", f.name, n, f.size(k-1), f.size(k))
	}
}

// CubeConnectedCycles returns CCC(d): each vertex of the d-dimensional
// hypercube is replaced by a cycle of d vertices, with cycle position p of
// corner x connected to cycle position p of corner x ⊕ 2^p. The result has
// n = d·2^d vertices, constant degree 3, and diameter Θ(d) = Θ(log n) —
// a constant-degree stand-in for the hypercube, so Corollary 4.2's
// O(n log n) queuing bound applies directly.
//
// Vertex numbering: (x, p) ↦ x·d + p.
func CubeConnectedCycles(d int) *Graph {
	if d < 3 {
		panic(fmt.Sprintf("graph: CCC needs dimension ≥ 3, got %d", d))
	}
	corners := 1 << uint(d)
	b := NewBuilder(fmt.Sprintf("ccc(%d)", d), d*corners)
	id := func(x, p int) int { return x*d + p }
	for x := 0; x < corners; x++ {
		for p := 0; p < d; p++ {
			b.MustAddEdge(id(x, p), id(x, (p+1)%d)) // cycle edge
			y := x ^ (1 << uint(p))
			if x < y {
				b.MustAddEdge(id(x, p), id(y, p)) // cube edge
			}
		}
	}
	return b.Build().with(known{transitive: true})
}

// DeBruijn returns the undirected binary de Bruijn graph on 2^d vertices:
// u is adjacent to (2u) mod n and (2u+1) mod n (self-loops and duplicate
// edges skipped). Degree ≤ 4, diameter d = log₂ n — another constant-degree
// low-diameter family for the queuing-versus-counting comparison.
func DeBruijn(d int) *Graph {
	if d < 1 || d > 24 {
		panic(fmt.Sprintf("graph: de Bruijn dimension %d out of range", d))
	}
	n := 1 << uint(d)
	b := NewBuilder(fmt.Sprintf("debruijn(%d)", d), n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < 2; bit++ {
			v := (2*u + bit) % n
			if u != v && !b.has(u, v) {
				b.MustAddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// has reports whether the builder already contains edge {u, v}.
func (b *Builder) has(u, v int) bool { return b.seen[edgeKey(u, v)] }
