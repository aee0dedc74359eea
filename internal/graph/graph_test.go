package graph

import (
	"testing"
	"unsafe"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder("t", 3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(-1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder("empty", 0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph has n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
	if g.MaxDegree() != 0 {
		t.Error("empty graph max degree should be 0")
	}
	if c := g.Center(); c != -1 {
		t.Errorf("empty graph centre = %d, want -1", c)
	}
}

func TestSingleVertex(t *testing.T) {
	g := NewBuilder("one", 1).Build()
	if !g.IsConnected() {
		t.Error("single vertex should be connected")
	}
	if g.Diameter() != 0 {
		t.Errorf("single-vertex diameter = %d, want 0", g.Diameter())
	}
	if c := g.Center(); c != 0 {
		t.Errorf("single-vertex centre = %d, want 0", c)
	}
}

func TestCompleteGraph(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		g := Complete(n)
		if g.N() != n {
			t.Fatalf("K_%d has %d vertices", n, g.N())
		}
		if want := n * (n - 1) / 2; g.M() != want {
			t.Errorf("K_%d has %d edges, want %d", n, g.M(), want)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != n-1 {
				t.Errorf("K_%d: degree(%d) = %d", n, v, g.Degree(v))
			}
		}
		if n > 1 && g.Diameter() != 1 {
			t.Errorf("K_%d diameter = %d, want 1", n, g.Diameter())
		}
	}
}

func TestPathGraph(t *testing.T) {
	g := Path(10)
	if g.M() != 9 {
		t.Errorf("path(10) has %d edges, want 9", g.M())
	}
	if g.Diameter() != 9 {
		t.Errorf("path(10) diameter = %d, want 9", g.Diameter())
	}
	if !g.HasEdge(3, 4) || g.HasEdge(3, 5) {
		t.Error("path adjacency wrong")
	}
}

func TestRingGraph(t *testing.T) {
	g := Ring(8)
	if g.M() != 8 {
		t.Errorf("ring(8) has %d edges, want 8", g.M())
	}
	if g.Diameter() != 4 {
		t.Errorf("ring(8) diameter = %d, want 4", g.Diameter())
	}
	for v := 0; v < 8; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("ring degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestStarGraph(t *testing.T) {
	g := Star(9)
	if g.M() != 8 {
		t.Errorf("star(9) has %d edges, want 8", g.M())
	}
	if g.Degree(0) != 8 {
		t.Errorf("star center degree = %d, want 8", g.Degree(0))
	}
	if g.Diameter() != 2 {
		t.Errorf("star(9) diameter = %d, want 2", g.Diameter())
	}
}

func TestMesh2D(t *testing.T) {
	g := Mesh(4, 5)
	if g.N() != 20 {
		t.Fatalf("mesh(4x5) n = %d", g.N())
	}
	// Edges: rows 4*(5-1) + cols 5*(4-1) = 16 + 15 = 31.
	if g.M() != 31 {
		t.Errorf("mesh(4x5) m = %d, want 31", g.M())
	}
	if g.Diameter() != 3+4 {
		t.Errorf("mesh(4x5) diameter = %d, want 7", g.Diameter())
	}
	// Corner degree 2, edge 3, interior 4.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", g.Degree(0))
	}
	if g.Degree(6) != 4 { // (1,1) interior
		t.Errorf("interior degree = %d, want 4", g.Degree(6))
	}
}

func TestMesh3D(t *testing.T) {
	g := Mesh(3, 3, 3)
	if g.N() != 27 {
		t.Fatalf("mesh(3x3x3) n = %d", g.N())
	}
	// Each axis contributes 3*3*(3-1) = 18 edges, total 54.
	if g.M() != 54 {
		t.Errorf("mesh(3^3) m = %d, want 54", g.M())
	}
	if g.Diameter() != 6 {
		t.Errorf("mesh(3^3) diameter = %d, want 6", g.Diameter())
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("torus(4x4) n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("torus degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if g.Diameter() != 4 {
		t.Errorf("torus(4x4) diameter = %d, want 4", g.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	for d := 0; d <= 6; d++ {
		g := Hypercube(d)
		if g.N() != 1<<d {
			t.Fatalf("Q_%d n = %d", d, g.N())
		}
		if want := d * (1 << d) / 2; g.M() != want {
			t.Errorf("Q_%d m = %d, want %d", d, g.M(), want)
		}
		if d > 0 && g.Diameter() != d {
			t.Errorf("Q_%d diameter = %d, want %d", d, g.Diameter(), d)
		}
	}
}

func TestPerfectMAryTree(t *testing.T) {
	g := PerfectMAryTree(2, 4) // depth 3 binary: 15 nodes
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("perfect binary tree n=%d m=%d, want 15, 14", g.N(), g.M())
	}
	if g.Diameter() != 6 {
		t.Errorf("perfect binary depth-3 diameter = %d, want 6", g.Diameter())
	}
	g3 := PerfectMAryTree(3, 3) // 1 + 3 + 9 = 13 nodes
	if g3.N() != 13 || g3.M() != 12 {
		t.Fatalf("perfect ternary n=%d m=%d, want 13, 12", g3.N(), g3.M())
	}
	// Root degree m, internal degree m+1, leaf degree 1.
	if g3.Degree(0) != 3 {
		t.Errorf("ternary root degree = %d, want 3", g3.Degree(0))
	}
	if g3.Degree(1) != 4 {
		t.Errorf("ternary internal degree = %d, want 4", g3.Degree(1))
	}
	if g3.Degree(12) != 1 {
		t.Errorf("ternary leaf degree = %d, want 1", g3.Degree(12))
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(100, 0.75)
	if g.N() != 100 {
		t.Fatalf("caterpillar n = %d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("caterpillar disconnected")
	}
	if g.M() != 99 {
		t.Errorf("caterpillar should be a tree: m = %d, want 99", g.M())
	}
	// Diameter should be close to the spine length (~31 for n=100, exp=.75).
	if d := g.Diameter(); d < 25 || d > 40 {
		t.Errorf("caterpillar diameter = %d, want ≈31", d)
	}
	// Constant-ish degree: spine vertices carry ≤ spine+legs neighbors.
	if g.MaxDegree() > 8 {
		t.Errorf("caterpillar max degree = %d, too high", g.MaxDegree())
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(50, 3, 42)
	if g.N() != 50 {
		t.Fatalf("random regular n = %d", g.N())
	}
	for v := 0; v < 50; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("random 3-regular degree(%d) = %d", v, g.Degree(v))
		}
	}
	// Determinism: same seed gives the identical graph.
	h := RandomRegular(50, 3, 42)
	for v := 0; v < 50; v++ {
		a, b := g.Neighbors(v), h.Neighbors(v)
		if len(a) != len(b) {
			t.Fatal("seeded graphs differ")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("seeded graphs differ")
			}
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(6)
	dist, parent := g.BFS(2)
	want := []int{2, 1, 0, 1, 2, 3}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	if parent[2] != 2 {
		t.Errorf("parent of source = %d, want 2", parent[2])
	}
	if parent[0] != 1 || parent[5] != 4 {
		t.Errorf("parents wrong: %v", parent)
	}
}

func TestDisconnected(t *testing.T) {
	b := NewBuilder("two-islands", 4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	g := b.Build()
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Errorf("disconnected diameter = %d, want -1", g.Diameter())
	}
	if c := g.Center(); c != -1 {
		t.Errorf("disconnected centre = %d, want -1", c)
	}
}

func TestDoubleSweepOnTrees(t *testing.T) {
	// Double sweep is exact on trees.
	for _, g := range []*Graph{Path(17), PerfectMAryTree(2, 5), Caterpillar(64, 0.6)} {
		if got, want := g.DiameterDoubleSweep(), g.Diameter(); got != want {
			t.Errorf("%s: double sweep %d != exact %d", g.Name(), got, want)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := Star(5).DegreeHistogram()
	if h[4] != 1 || h[1] != 4 {
		t.Errorf("star(5) histogram = %v", h)
	}
}

// TestGraphLayout holds Graph to six words, 48 bytes on 64-bit hosts (see
// its doc comment).
func TestGraphLayout(t *testing.T) {
	if size, want := unsafe.Sizeof(Graph{}), 6*unsafe.Sizeof(uintptr(0)); size != want {
		t.Errorf("Graph is %d bytes, want %d", size, want)
	}
}
