package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHamiltonPathComplete(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32} {
		g := Complete(n)
		order, err := HamiltonPath(g)
		if err != nil {
			t.Fatalf("K_%d: %v", n, err)
		}
		if err := VerifyHamiltonPath(g, order); err != nil {
			t.Errorf("K_%d: %v", n, err)
		}
	}
}

func TestHamiltonPathMesh(t *testing.T) {
	cases := [][]int{{1}, {5}, {2, 3}, {4, 4}, {3, 5}, {2, 3, 4}, {3, 3, 3}, {2, 2, 2, 2}}
	for _, dims := range cases {
		g := Mesh(dims...)
		order := MeshHamiltonPath(dims...)
		if err := VerifyHamiltonPath(g, order); err != nil {
			t.Errorf("mesh%v: %v", dims, err)
		}
		// And via the generic entry point.
		order2, err := HamiltonPath(g)
		if err != nil {
			t.Fatalf("mesh%v: %v", dims, err)
		}
		if err := VerifyHamiltonPath(g, order2); err != nil {
			t.Errorf("mesh%v via HamiltonPath: %v", dims, err)
		}
	}
}

func TestHamiltonPathKeepsItsDims(t *testing.T) {
	dims := []int{3, 4}
	g := Mesh(dims...)
	dims[0], dims[1] = 4, 3 // the caller's slice is the caller's
	order, err := HamiltonPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHamiltonPath(g, order); err != nil {
		t.Error(err)
	}
}

func TestHamiltonPathMeshProperty(t *testing.T) {
	// Property: for random small dimension vectors, the snake order is a
	// valid Hamilton path (Lemma 4.6's induction, checked exhaustively).
	f := func(a, b, c uint8) bool {
		dims := []int{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		g := Mesh(dims...)
		return VerifyHamiltonPath(g, MeshHamiltonPath(dims...)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHamiltonPathHypercube(t *testing.T) {
	for d := 0; d <= 8; d++ {
		g := Hypercube(d)
		order := HypercubeHamiltonPath(d)
		if err := VerifyHamiltonPath(g, order); err != nil {
			t.Errorf("Q_%d: %v", d, err)
		}
		order2, err := HamiltonPath(g)
		if err != nil {
			t.Fatalf("Q_%d: %v", d, err)
		}
		if err := VerifyHamiltonPath(g, order2); err != nil {
			t.Errorf("Q_%d via HamiltonPath: %v", d, err)
		}
	}
}

func TestHamiltonPathTorusAndRing(t *testing.T) {
	g := Torus(4, 5)
	order, err := HamiltonPath(g)
	if err != nil {
		t.Fatalf("torus: %v", err)
	}
	if err := VerifyHamiltonPath(g, order); err != nil {
		t.Errorf("torus: %v", err)
	}
	r := Ring(9)
	order, err = HamiltonPath(r)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	if err := VerifyHamiltonPath(r, order); err != nil {
		t.Errorf("ring: %v", err)
	}
}

func TestHamiltonPathOnPathGraph(t *testing.T) {
	g := Path(12)
	order, err := HamiltonPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHamiltonPath(g, order); err != nil {
		t.Error(err)
	}
}

func TestHamiltonPathStarFails(t *testing.T) {
	// The star on ≥ 4 vertices has no Hamilton path; the generic search
	// must report an error rather than fabricate one.
	if _, err := HamiltonPath(Star(6)); err == nil {
		t.Error("star(6) should have no Hamilton path")
	}
}

func TestHamiltonBacktrackSmall(t *testing.T) {
	// Petersen-like random graphs: backtracking must agree with Verify.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(6)
		b := NewBuilder("rand", n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.MustAddEdge(u, v)
				}
			}
		}
		g := b.Build()
		if order, ok := hamiltonBacktrack(g); ok {
			if err := VerifyHamiltonPath(g, order); err != nil {
				t.Errorf("backtrack returned invalid path: %v", err)
			}
		}
	}
}

func TestVerifyHamiltonPathRejects(t *testing.T) {
	g := Path(4)
	if err := VerifyHamiltonPath(g, []int{0, 1, 2}); err == nil {
		t.Error("short order accepted")
	}
	if err := VerifyHamiltonPath(g, []int{0, 1, 1, 2}); err == nil {
		t.Error("repeated vertex accepted")
	}
	if err := VerifyHamiltonPath(g, []int{0, 2, 1, 3}); err == nil {
		t.Error("non-adjacent consecutive pair accepted")
	}
	if err := VerifyHamiltonPath(g, []int{0, 1, 2, 4}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}
