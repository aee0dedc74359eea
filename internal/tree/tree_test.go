package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestFromParentsValidation(t *testing.T) {
	if _, err := FromParents(0, []int{0, 0, 1}); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if _, err := FromParents(5, []int{0, 0, 1}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := FromParents(0, []int{1, 0}); err == nil {
		t.Error("root not self-parented accepted")
	}
	if _, err := FromParents(0, []int{0, 2, 1}); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := FromParents(0, []int{0, 5}); err == nil {
		t.Error("out-of-range parent accepted")
	}
}

func TestBFSTreeOnMesh(t *testing.T) {
	g := graph.Mesh(5, 5)
	tr, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.IsSpanningOf(g); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 0 {
		t.Errorf("root = %d", tr.Root())
	}
	// BFS tree depths equal graph distances.
	dist, _ := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if tr.Depth(v) != dist[v] {
			t.Errorf("depth(%d) = %d, want %d", v, tr.Depth(v), dist[v])
		}
	}
}

func TestBFSTreeDisconnected(t *testing.T) {
	b := graph.NewBuilder("islands", 4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	if _, err := BFSTree(b.Build(), 0); err == nil {
		t.Error("BFS tree of disconnected graph accepted")
	}
}

func TestPathTree(t *testing.T) {
	order := []int{3, 1, 4, 0, 2}
	tr, err := PathTree(order)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 3 {
		t.Errorf("root = %d, want 3", tr.Root())
	}
	if tr.Height() != 4 {
		t.Errorf("height = %d, want 4", tr.Height())
	}
	if tr.MaxDegree() != 2 {
		t.Errorf("path tree max degree = %d, want 2", tr.MaxDegree())
	}
	if tr.Dist(3, 2) != 4 {
		t.Errorf("dist(ends) = %d, want 4", tr.Dist(3, 2))
	}
	if tr.Dist(1, 0) != 2 {
		t.Errorf("dist(1,0) = %d, want 2", tr.Dist(1, 0))
	}
	if _, err := PathTree([]int{0, 0, 1}); err == nil {
		t.Error("non-permutation path accepted")
	}
	if _, err := PathTree(nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestPerfectShape(t *testing.T) {
	tr := Perfect(2, 4)
	if tr.N() != 15 {
		t.Fatalf("perfect(2,4) n = %d, want 15", tr.N())
	}
	if tr.Height() != 3 {
		t.Errorf("height = %d, want 3", tr.Height())
	}
	if got := len(tr.Leaves()); got != 8 {
		t.Errorf("leaves = %d, want 8", got)
	}
	if tr.MaxDegree() != 3 {
		t.Errorf("max degree = %d, want 3", tr.MaxDegree())
	}
	tr3 := Perfect(3, 3)
	if tr3.N() != 13 {
		t.Fatalf("perfect(3,3) n = %d, want 13", tr3.N())
	}
	if tr3.MaxDegree() != 4 {
		t.Errorf("ternary max degree = %d, want 4", tr3.MaxDegree())
	}
}

func TestLCADistAgainstBFS(t *testing.T) {
	// Tree distances computed by LCA must agree with BFS distances on the
	// tree's own edge set, for several tree shapes.
	shapes := []*Tree{
		Perfect(2, 5),
		Perfect(3, 4),
		mustPathTree(t, 33),
		randomTree(64, 11),
	}
	for _, tr := range shapes {
		g := treeAsGraph(tr)
		for _, src := range []int{0, tr.N() / 2, tr.N() - 1} {
			dist, _ := g.BFS(src)
			for v := 0; v < tr.N(); v++ {
				if got := tr.Dist(src, v); got != dist[v] {
					t.Fatalf("n=%d: Dist(%d,%d) = %d, want %d", tr.N(), src, v, got, dist[v])
				}
			}
		}
	}
}

func TestDistProperties(t *testing.T) {
	tr := randomTree(40, 3)
	f := func(a, b uint8) bool {
		u := int(a) % tr.N()
		v := int(b) % tr.N()
		d := tr.Dist(u, v)
		switch {
		case d != tr.Dist(v, u): // symmetry
			return false
		case u == v && d != 0:
			return false
		case u != v && d <= 0:
			return false
		}
		// Triangle inequality through a random third vertex.
		w := (u + v) % tr.N()
		return tr.Dist(u, v) <= tr.Dist(u, w)+tr.Dist(w, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPathBetween(t *testing.T) {
	tr := Perfect(2, 4)
	p := tr.PathBetween(7, 9) // two leaves: 7 under 3 under 1; 9 under 4 under 1
	want := []int{7, 3, 1, 4, 9}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	// Path between a vertex and itself is the single vertex.
	if p := tr.PathBetween(5, 5); len(p) != 1 || p[0] != 5 {
		t.Errorf("self path = %v", p)
	}
	// Path length always Dist+1.
	for u := 0; u < tr.N(); u++ {
		for v := 0; v < tr.N(); v++ {
			if got := len(tr.PathBetween(u, v)); got != tr.Dist(u, v)+1 {
				t.Fatalf("path len (%d,%d) = %d, want %d", u, v, got, tr.Dist(u, v)+1)
			}
		}
	}
}

func TestNextHop(t *testing.T) {
	tr := Perfect(2, 4)
	for u := 0; u < tr.N(); u++ {
		for v := 0; v < tr.N(); v++ {
			if u == v {
				continue
			}
			h := tr.NextHop(u, v)
			if tr.Dist(h, v) != tr.Dist(u, v)-1 {
				t.Fatalf("NextHop(%d,%d) = %d does not approach", u, v, h)
			}
			// The hop must be a tree neighbor.
			if tr.Parent(u) != h {
				ok := false
				for _, c := range tr.Children(u) {
					if c == h {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("NextHop(%d,%d) = %d is not a tree neighbor", u, v, h)
				}
			}
		}
	}
}

func TestSubtreeSizes(t *testing.T) {
	tr := Perfect(2, 4)
	size := tr.SubtreeSizes()
	if size[0] != 15 {
		t.Errorf("root subtree = %d, want 15", size[0])
	}
	if size[1] != 7 || size[2] != 7 {
		t.Errorf("level-1 subtrees = %d, %d, want 7, 7", size[1], size[2])
	}
	for _, leaf := range tr.Leaves() {
		if size[leaf] != 1 {
			t.Errorf("leaf %d subtree = %d", leaf, size[leaf])
		}
	}
}

func TestIsSpanningOfRejectsForeignTree(t *testing.T) {
	g := graph.Path(4) // edges 0-1-2-3
	parent := []int{0, 0, 0, 2}
	tr := MustFromParents(0, parent) // uses edge (0,2) not in path
	if err := tr.IsSpanningOf(g); err == nil {
		t.Error("tree with non-graph edge accepted as spanning")
	}
}

// TestTreePolicy checks the theorem trees on two members of every
// topology family: arrow gets the Hamilton path where the graph has one
// and BFS elsewhere; counting gets the heap tree on complete graphs and
// elsewhere the BFS tree from a node of least eccentricity, the smallest
// id among ties; and each is a spanning tree.
func TestTreePolicy(t *testing.T) {
	sizes := map[string][2]int{
		"complete": {10, 33}, "list": {6, 64}, "mesh2d": {25, 64}, "mesh3d": {27, 64},
		"hypercube": {32, 64}, "star": {20, 64}, "mary": {13, 40}, "caterpillar": {20, 64},
		"ccc": {24, 64}, "debruijn": {16, 64},
	}
	// ForQueuing's label where the family decides it: a Hamilton path is
	// recorded on these, and a star or a 3-ary tree has none.
	labels := map[string]string{
		"complete": "hamilton path", "list": "hamilton path", "mesh2d": "hamilton path",
		"mesh3d": "hamilton path", "hypercube": "hamilton path", "star": "BFS tree", "mary": "BFS tree",
	}
	for _, name := range graph.FamilyNames() {
		for _, n := range sizes[name] {
			g, err := graph.Family(name, n)
			if err != nil {
				t.Fatal(err)
			}
			q, label, err := ForQueuing(g)
			if err != nil {
				t.Fatalf("ForQueuing(%s): %v", g.Name(), err)
			}
			if want, ok := labels[name]; ok && label != want {
				t.Errorf("ForQueuing(%s) = %q, want %q", g.Name(), label, want)
			}
			if label == "hamilton path" && q.Height() != n-1 {
				t.Errorf("ForQueuing(%s): height %d, want a path", g.Name(), q.Height())
			}
			ct, err := ForCounting(g)
			if err != nil {
				t.Fatalf("ForCounting(%s): %v", g.Name(), err)
			}
			center := 0
			for v := 1; v < n; v++ {
				if g.Eccentricity(v) < g.Eccentricity(center) {
					center = v
				}
			}
			bfs, err := BFSTree(g, center)
			if err != nil {
				t.Fatal(err)
			}
			heap := name == "complete"
			if !heap && ct.Root() != center {
				t.Errorf("ForCounting(%s): root %d (eccentricity %d), want %d (eccentricity %d)",
					g.Name(), ct.Root(), g.Eccentricity(ct.Root()), center, g.Eccentricity(center))
			}
			for v := 0; v < n; v++ {
				want := bfs.Parent(v)
				if heap {
					want = (v - 1) / 2
				}
				if ct.Parent(v) != want {
					t.Errorf("ForCounting(%s): parent(%d) = %d, want %d", g.Name(), v, ct.Parent(v), want)
				}
			}
			for _, tr := range []*Tree{q, ct} {
				if err := tr.IsSpanningOf(g); err != nil {
					t.Errorf("%s: %v", g.Name(), err)
				}
			}
		}
	}
	if _, err := ForCounting(graph.NewBuilder("islands", 2).Build()); err == nil {
		t.Error("ForCounting accepted a disconnected graph")
	}
}

// --- helpers ---

func mustPathTree(t *testing.T, n int) *Tree {
	t.Helper()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	tr, err := PathTree(order)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomTree builds a random recursive tree on n vertices, deterministically.
func randomTree(n int, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]int, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
	}
	return MustFromParents(0, parent)
}

// treeAsGraph converts the tree's edges into a Graph.
func treeAsGraph(tr *Tree) *graph.Graph {
	b := graph.NewBuilder("astree", tr.N())
	for v := 0; v < tr.N(); v++ {
		if v != tr.Root() {
			b.MustAddEdge(v, tr.Parent(v))
		}
	}
	return b.Build()
}
