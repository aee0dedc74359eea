package graph

import (
	"math"
	"testing"
)

// FuzzFamily hammers the topology table with arbitrary names and sizes:
// it must never panic, and whatever it builds has exactly the nodes asked
// for. Sizes past 1 024 are only looked up, not built: the member found
// must have exactly n nodes, and none is found past a family's cap.
func FuzzFamily(f *testing.F) {
	f.Add("mesh2d", 12)
	f.Add("ccc", 5)
	f.Add("list", 0)
	f.Add("complete", -3)
	f.Add("caterpillar", 1)
	f.Add("klein-bottle", 10)
	f.Add("list", maxSparseNodes)
	f.Add("star", maxSparseNodes+1)
	f.Add("complete", maxCompleteNodes)
	f.Add("complete", maxCompleteNodes+1)
	f.Add("list", math.MaxInt)
	f.Fuzz(func(t *testing.T, name string, n int) {
		if n > 1<<10 {
			fam, k, err := lookup(name, n)
			if err == nil && fam.size(k) != n {
				t.Fatalf("lookup(%q, %d) found a member of %d nodes", name, n, fam.size(k))
			}
			if c, ok := familyCaps[name]; ok && n > c && err == nil {
				t.Fatalf("lookup(%q, %d) found a member past the cap %d", name, n, c)
			}
			return
		}
		g, err := Family(name, n)
		if err == nil && g.N() != n {
			t.Fatalf("Family(%q, %d) built %d nodes", name, n, g.N())
		}
	})
}

// FuzzVerifyHamiltonPath checks the validator never panics on arbitrary
// order slices derived from fuzz bytes.
func FuzzVerifyHamiltonPath(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{})
	g := Path(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		order := make([]int, len(data))
		for i, b := range data {
			order[i] = int(b) - 8 // include out-of-range values
		}
		_ = VerifyHamiltonPath(g, order) // must not panic
	})
}
