package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Complete returns K_n, the complete graph on n vertices (n ≥ 1). This is
// the most powerful communication graph; the paper's general counting lower
// bound (Theorem 3.5) is proved on K_n and transfers to every other graph.
func Complete(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("complete(%d)", n), n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build().with(known{hamilton: func() []int { return identityOrder(n) }})
}

// Path returns the list (path graph) on n vertices: 0-1-2-…-(n-1).
// The paper calls this topology "the list"; its diameter is n-1, which
// drives the Ω(n²) counting lower bound of Theorem 3.6.
func Path(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("path(%d)", n), n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(v-1, v)
	}
	return b.Build().with(known{hamilton: func() []int { return identityOrder(n) }})
}

// Ring returns the cycle on n vertices (n ≥ 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring needs n ≥ 3, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("ring(%d)", n), n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(v-1, v)
	}
	b.MustAddEdge(n-1, 0)
	return b.Build().with(known{hamilton: func() []int { return identityOrder(n) }})
}

// Star returns the star on n vertices with center 0. The paper's conclusion
// uses the star as the topology where counting is NOT harder than queuing:
// contention at the center forces Θ(n²) for both.
func Star(n int) *Graph {
	b := NewBuilder(fmt.Sprintf("star(%d)", n), n)
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, v)
	}
	return b.Build()
}

// Mesh returns the d-dimensional mesh with the given side lengths, e.g.
// Mesh(8, 8) is the 8×8 two-dimensional mesh. Vertices are numbered in
// row-major order. Every mesh has a Hamilton path (Lemma 4.6): the snake of
// MeshHamiltonPath, which HamiltonPath returns.
func Mesh(dims ...int) *Graph {
	n := 1
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("graph: mesh dimension %d < 1", d))
		}
		n *= d
	}
	name := "mesh("
	for i, d := range dims {
		if i > 0 {
			name += "x"
		}
		name += fmt.Sprint(d)
	}
	name += ")"
	b := NewBuilder(name, n)
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		meshCoords(v, dims, coord)
		for axis, d := range dims {
			if coord[axis]+1 < d {
				b.MustAddEdge(v, v+meshStride(dims, axis))
			}
		}
	}
	return b.Build().with(known{hamilton: meshPath(dims)})
}

// Torus returns the d-dimensional torus (mesh with wrap-around links).
// Side lengths must be ≥ 3 so that wrap edges do not duplicate mesh edges.
func Torus(dims ...int) *Graph {
	n := 1
	for _, d := range dims {
		if d < 3 {
			panic(fmt.Sprintf("graph: torus dimension %d < 3", d))
		}
		n *= d
	}
	name := "torus("
	for i, d := range dims {
		if i > 0 {
			name += "x"
		}
		name += fmt.Sprint(d)
	}
	name += ")"
	b := NewBuilder(name, n)
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		meshCoords(v, dims, coord)
		for axis, d := range dims {
			stride := meshStride(dims, axis)
			if coord[axis]+1 < d {
				b.MustAddEdge(v, v+stride)
			} else {
				b.MustAddEdge(v, v-(d-1)*stride)
			}
		}
	}
	return b.Build().with(known{hamilton: meshPath(dims)}) // the mesh snake runs on the torus too
}

// meshPath returns the builder of the snake Hamilton path of the mesh or
// torus with the given side lengths, on its own copy of them.
func meshPath(dims []int) func() []int {
	dims = append([]int(nil), dims...)
	return func() []int { return MeshHamiltonPath(dims...) }
}

// meshStride returns the vertex-number stride of one step along axis.
func meshStride(dims []int, axis int) int {
	stride := 1
	for i := len(dims) - 1; i > axis; i-- {
		stride *= dims[i]
	}
	return stride
}

// meshCoords fills coord with the coordinates of vertex v (row-major).
func meshCoords(v int, dims []int, coord []int) {
	for i := len(dims) - 1; i >= 0; i-- {
		coord[i] = v % dims[i]
		v /= dims[i]
	}
}

// Hypercube returns the hypercube of dimension d (n = 2^d vertices);
// vertices are adjacent iff their labels differ in exactly one bit.
func Hypercube(d int) *Graph {
	if d < 0 || d > 30 {
		panic(fmt.Sprintf("graph: hypercube dimension %d out of range", d))
	}
	n := 1 << d
	b := NewBuilder(fmt.Sprintf("hypercube(%d)", d), n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.MustAddEdge(v, w)
			}
		}
	}
	return b.Build().with(known{hamilton: func() []int { return HypercubeHamiltonPath(d) }, transitive: true})
}

// PerfectMAryTree returns the perfect m-ary tree with the given number of
// full levels (levels ≥ 1 gives a single root). Every internal node has
// exactly m children and all leaves share the same depth, levels-1.
// Vertex 0 is the root and children of v are m·v+1 … m·v+m (heap order).
func PerfectMAryTree(m, levels int) *Graph {
	if m < 2 {
		panic(fmt.Sprintf("graph: m-ary tree needs m ≥ 2, got %d", m))
	}
	if levels < 1 {
		panic(fmt.Sprintf("graph: m-ary tree needs ≥ 1 level, got %d", levels))
	}
	n := perfectTreeSize(m, levels)
	b := NewBuilder(fmt.Sprintf("perfect%darytree(depth=%d)", m, levels-1), n)
	for v := 0; ; v++ {
		first := m*v + 1
		if first >= n {
			break
		}
		for c := first; c < first+m && c < n; c++ {
			b.MustAddEdge(v, c)
		}
	}
	return b.Build()
}

// perfectTreeSize returns (m^levels - 1)/(m - 1), the number of nodes of a
// perfect m-ary tree with the given number of levels.
func perfectTreeSize(m, levels int) int {
	n := 0
	p := 1
	for i := 0; i < levels; i++ {
		n += p
		p *= m
	}
	return n
}

// Caterpillar returns the high-diameter family used for Theorem 4.13:
// spine = ⌊n^spineExp⌋ vertices form a path and the remaining n−spine
// vertices hang off the spine in balanced bunches (round-robin), so each
// spine vertex carries ⌈(n−spine)/spine⌉ legs at most. With spineExp ≥ 1/2
// the maximum degree — and hence the BFS spanning tree degree — stays
// bounded by a small constant while the diameter is Θ(n^spineExp),
// realizing the paper's "diameter Ω(n^{1/2+δ}) with a constant-degree
// spanning tree" hypothesis (δ = spineExp − 1/2).
func Caterpillar(n int, spineExp float64) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: caterpillar needs n ≥ 2, got %d", n))
	}
	if spineExp <= 0 || spineExp > 1 {
		panic(fmt.Sprintf("graph: caterpillar spine exponent %v out of (0,1]", spineExp))
	}
	spine := int(math.Pow(float64(n), spineExp))
	if spine < 1 {
		spine = 1
	}
	if spine > n {
		spine = n
	}
	b := NewBuilder(fmt.Sprintf("caterpillar(%d,exp=%.2f)", n, spineExp), n)
	for v := 1; v < spine; v++ {
		b.MustAddEdge(v-1, v)
	}
	// Hang the remaining vertices off spine vertices round-robin so the
	// legs per spine vertex differ by at most one.
	for v := spine; v < n; v++ {
		b.MustAddEdge(v, (v-spine)%spine)
	}
	return b.Build()
}

// RandomRegular returns a random d-regular simple graph on n vertices built
// by the pairing model with retries, seeded deterministically. n·d must be
// even and d < n. The result is not guaranteed connected for tiny n, so
// callers should check IsConnected; for d ≥ 3 and n ≥ 10 it almost always is.
func RandomRegular(n, d int, seed int64) *Graph {
	if n*d%2 != 0 {
		panic(fmt.Sprintf("graph: random regular needs n·d even, got n=%d d=%d", n, d))
	}
	if d >= n {
		panic(fmt.Sprintf("graph: random regular needs d < n, got n=%d d=%d", n, d))
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		if g, ok := tryPairing(n, d, rng); ok {
			return g
		}
		if attempt > 1000 {
			panic("graph: random regular pairing failed repeatedly")
		}
	}
}

func tryPairing(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(fmt.Sprintf("random%dregular(%d)", d, n), n)
	for i := 0; i < len(stubs); i += 2 {
		if b.AddEdge(stubs[i], stubs[i+1]) != nil {
			return nil, false // self-loop or duplicate: resample
		}
	}
	return b.Build(), true
}
