package graph

import "testing"

// bruteCenter is Center by definition: the least Eccentricity over every
// vertex, the smallest id among ties, -1 when disconnected.
func bruteCenter(g *Graph) int {
	center, best := -1, -1
	for v := 0; v < g.N(); v++ {
		ecc := g.Eccentricity(v)
		if ecc < 0 {
			return -1
		}
		if best < 0 || ecc < best {
			center, best = v, ecc
		}
	}
	return center
}

// TestCenterOnLongPaths: on the 65 536-node list and caterpillar, the
// members whose every search from node 0 onwards improved the best
// eccentricity so far, Center finds the middle of the list and of the
// caterpillar's 4 096-vertex spine in a handful of searches. The search
// count, not a clock, is what fails a search from every vertex.
func TestCenterOnLongPaths(t *testing.T) {
	for _, tc := range []struct {
		family string
		want   int
	}{
		{"list", 32767},
		{"caterpillar", 2047},
	} {
		g, err := Family(tc.family, maxSparseNodes)
		if err != nil {
			t.Fatal(err)
		}
		if got, searches := g.center(); got != tc.want || searches > 4 {
			t.Errorf("%s %d: centre %d after %d searches, want %d after at most 4", tc.family, g.N(), got, searches, tc.want)
		}
	}
}

// TestCenterSearches holds Center to its definition on members of every
// family, to at most four searches on the tree families — from node 0, the
// double sweep's two ends of a longest path (which together bound every
// vertex's eccentricity exactly on a tree) and the centre itself — and to
// at most one on the vertex-transitive families, whose constructors
// record that every vertex is a centre.
func TestCenterSearches(t *testing.T) {
	bound := map[string]int{"list": 4, "star": 4, "mary": 4, "caterpillar": 4, "hypercube": 1, "ccc": 1}
	for _, name := range FamilyNames() {
		for _, n := range []int{2, 4, 8, 13, 16, 27, 40, 64, 100, 121, 160, 256} {
			g, err := Family(name, n)
			if err != nil {
				continue
			}
			got, searches := g.center()
			if want := bruteCenter(g); got != want {
				t.Errorf("%s %d: centre %d, want %d", name, n, got, want)
			}
			if limit, ok := bound[name]; ok && searches > limit {
				t.Errorf("%s %d: %d searches, want at most %d", name, n, searches, limit)
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := RandomRegular(60, 3, seed)
		if got, want := g.Center(), bruteCenter(g); got != want {
			t.Errorf("%s: centre %d, want %d", g.Name(), got, want)
		}
	}
}
