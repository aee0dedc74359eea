package graph

import (
	"math"
	"strings"
	"testing"
)

func TestCubeConnectedCycles(t *testing.T) {
	for _, d := range []int{3, 4, 5} {
		g := CubeConnectedCycles(d)
		if want := d * (1 << uint(d)); g.N() != want {
			t.Fatalf("CCC(%d): n = %d, want %d", d, g.N(), want)
		}
		// Every vertex has degree exactly 3 (two cycle + one cube edge).
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 3 {
				t.Fatalf("CCC(%d): degree(%d) = %d, want 3", d, v, g.Degree(v))
			}
		}
		if !g.IsConnected() {
			t.Errorf("CCC(%d) disconnected", d)
		}
		// Diameter is Θ(d): for CCC(3) the exact diameter is 6.
		if d == 3 {
			if got := g.Diameter(); got != 6 {
				t.Errorf("CCC(3) diameter = %d, want 6", got)
			}
		}
	}
}

func TestCCCSmallDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CCC(2) did not panic")
		}
	}()
	CubeConnectedCycles(2)
}

func TestDeBruijn(t *testing.T) {
	for _, d := range []int{2, 3, 4, 6, 8} {
		g := DeBruijn(d)
		if g.N() != 1<<uint(d) {
			t.Fatalf("deBruijn(%d): n = %d", d, g.N())
		}
		if !g.IsConnected() {
			t.Errorf("deBruijn(%d) disconnected", d)
		}
		if g.MaxDegree() > 4 {
			t.Errorf("deBruijn(%d): max degree %d > 4", d, g.MaxDegree())
		}
		// Diameter is at most d (shift in one bit per hop).
		if diam := g.Diameter(); diam > d {
			t.Errorf("deBruijn(%d): diameter %d > %d", d, diam, d)
		}
	}
}

func TestDeBruijnAdjacency(t *testing.T) {
	g := DeBruijn(3) // 8 vertices
	// Vertex 3 (011) shifts to 6 (110) and 7 (111).
	if !g.HasEdge(3, 6) || !g.HasEdge(3, 7) {
		t.Error("shift edges of vertex 3 missing")
	}
	// 0 shifts to 0 (self, skipped) and 1.
	if !g.HasEdge(0, 1) {
		t.Error("edge 0-1 missing")
	}
	if g.HasEdge(0, 0) {
		t.Error("self loop present")
	}
}

// familyCaps are the identity-sized families' caps.
var familyCaps = map[string]int{
	"list": maxSparseNodes, "star": maxSparseNodes, "caterpillar": maxSparseNodes, "complete": maxCompleteNodes,
}

// TestFamilySizes holds the topology table to its one size rule: every
// family, asked for n nodes, builds a connected graph of exactly n nodes
// or returns an error — it never rounds, and never panics. The
// identity-sized families build at their cap and refuse one node more.
func TestFamilySizes(t *testing.T) {
	for name, cap := range familyCaps {
		if g, err := Family(name, cap); err != nil || g.N() != cap {
			t.Errorf("Family(%q, %d) at the cap = %v, %v", name, cap, g, err)
		}
		if _, err := Family(name, cap+1); err == nil {
			t.Errorf("Family(%q, %d) accepted one node past the cap", name, cap+1)
		}
	}
	for _, name := range FamilyNames() {
		built := 0
		for n := -1; n <= 300; n++ {
			g, err := Family(name, n)
			if err != nil {
				continue
			}
			built++
			if g.N() != n || !g.IsConnected() {
				t.Errorf("Family(%q, %d) = %v, connected %v", name, n, g, g.IsConnected())
			}
		}
		if built == 0 {
			t.Errorf("%s: no member with 2..300 nodes", name)
		}
	}
	for _, c := range []struct {
		name  string
		n     int
		names []string // what the error must mention
	}{
		{"mesh2d", 12, []string{"9", "16"}},
		{"ccc", 5, []string{"24"}},
		{"hypercube", 100, []string{"64", "128"}},
		{"hypercube", math.MaxInt, []string{"1073741824"}},
		{"debruijn", 1, []string{"2"}},
		{"list", 0, []string{"2"}},
		{"complete", -3, []string{"2"}},
		{"klein-bottle", 10, FamilyNames()},
		{"list", maxSparseNodes + 1, []string{"65536"}},
		{"star", math.MaxInt, []string{"65536"}},
		{"caterpillar", maxSparseNodes + 1, []string{"65536"}},
		{"complete", maxCompleteNodes + 1, []string{"1024"}},
	} {
		_, err := Family(c.name, c.n)
		if err == nil {
			t.Errorf("Family(%q, %d) accepted", c.name, c.n)
			continue
		}
		for _, s := range c.names {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("Family(%q, %d): error %q does not name %s", c.name, c.n, err, s)
			}
		}
	}
}
