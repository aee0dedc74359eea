package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/tree"
)

// RunE6 reproduces Theorem 4.5 / Lemma 4.6: on every graph with a Hamilton
// path — complete graph, d-dimensional meshes, hypercubes — the arrow
// protocol on the Hamilton-path spanning tree yields C_Q = O(n), while any
// counting protocol pays Ω(n log* n); the measured portfolio pays strictly
// more. The experiment reports both sides plus their ratio as n grows.
func init() {
	Register(&Spec{ID: "E6", Title: "Queuing beats counting on Hamilton-path graphs", Ref: "Theorem 4.5, Lemma 4.6", Run: RunE6})
	Register(&Spec{ID: "E7", Title: "Queuing beats counting on perfect m-ary trees", Ref: "Theorem 4.12", Run: RunE7})
	Register(&Spec{ID: "E8", Title: "Queuing beats counting on high-diameter graphs", Ref: "Theorem 4.13", Run: RunE8})
	Register(&Spec{ID: "E9", Title: "On the star both problems cost Θ(n²)", Ref: "Conclusions", Run: RunE9})
}

func RunE6(cfg Config) (*Table, error) {
	type family struct {
		name string
		mk   func() []*graph.Graph
	}
	families := []family{
		{"complete", func() []*graph.Graph {
			if cfg.Quick {
				return []*graph.Graph{graph.Complete(32), graph.Complete(64)}
			}
			return []*graph.Graph{graph.Complete(64), graph.Complete(128), graph.Complete(256)}
		}},
		{"mesh2d", func() []*graph.Graph {
			if cfg.Quick {
				return []*graph.Graph{graph.Mesh(6, 6), graph.Mesh(8, 8)}
			}
			return []*graph.Graph{graph.Mesh(8, 8), graph.Mesh(12, 12), graph.Mesh(16, 16)}
		}},
		{"mesh3d", func() []*graph.Graph {
			if cfg.Quick {
				return []*graph.Graph{graph.Mesh(3, 3, 3), graph.Mesh(4, 4, 4)}
			}
			return []*graph.Graph{graph.Mesh(4, 4, 4), graph.Mesh(5, 5, 5), graph.Mesh(6, 6, 6)}
		}},
		{"hypercube", func() []*graph.Graph {
			if cfg.Quick {
				return []*graph.Graph{graph.Hypercube(5), graph.Hypercube(6)}
			}
			return []*graph.Graph{graph.Hypercube(6), graph.Hypercube(7), graph.Hypercube(8)}
		}},
	}
	t := &Table{
		ID:      "E6",
		Title:   "C_Q (arrow on Hamilton path) vs C_C (best counter), all nodes request",
		Ref:     "Theorem 4.5, Lemma 4.6",
		Columns: []string{"graph", "n", "C_Q arrow", "C_C best", "best alg", "C_C/C_Q", "count LB"},
	}
	for _, fam := range families {
		var ratios []float64
		for _, g := range fam.mk() {
			n := g.N()
			req := allRequests(n)
			hp, err := hamiltonPathTree(g)
			if err != nil {
				return nil, fmt.Errorf("E6 %s: %w", fam.name, err)
			}
			cq, err := runArrow(g, hp, hp.Root(), req, 1)
			if err != nil {
				return nil, err
			}
			// Counting gets its best tree: balanced binary on the
			// complete graph, BFS elsewhere.
			var ctr *tree.Tree
			if fam.name == "complete" {
				ctr = heapTree(n)
			} else {
				ctr, err = tree.BFSTree(g, 0)
				if err != nil {
					return nil, err
				}
			}
			bestName, cc, _, err := countingPortfolio(g, ctr, req)
			if err != nil {
				return nil, err
			}
			if cc <= cq {
				return nil, fmt.Errorf("E6 %s n=%d: counting %d not above queuing %d", fam.name, n, cc, cq)
			}
			lb := bounds.CountingLowerBoundTheorem35(n)
			ratio := float64(cc) / float64(cq)
			ratios = append(ratios, ratio)
			t.AddRow(g.Name(), fmt.Sprint(n), fmt.Sprint(cq), fmt.Sprint(cc),
				bestName, fmt.Sprintf("%.2f", ratio), fmt.Sprint(lb))
		}
		if last := len(ratios) - 1; last > 0 && ratios[last] < ratios[0] {
			t.AddNote("%s: C_C/C_Q ratio decreased across the sweep (%.2f → %.2f) — inspect", fam.name, ratios[0], ratios[last])
		}
	}
	t.AddNote("C_C exceeds C_Q on every Hamilton-path graph and the gap widens with n (Theorem 4.5's separation)")
	return t, nil
}

// RunE7 reproduces Theorem 4.12: on graphs whose spanning tree is a perfect
// m-ary tree, the arrow protocol on that tree costs O(n) total, below any
// counting protocol's cost.
func RunE7(cfg Config) (*Table, error) {
	type shape struct{ m, levels int }
	shapes := []shape{{2, 6}, {2, 8}, {3, 5}, {4, 4}}
	if cfg.Quick {
		shapes = []shape{{2, 5}, {3, 4}}
	}
	t := &Table{
		ID:      "E7",
		Title:   "C_Q vs C_C on perfect m-ary trees, all nodes request",
		Ref:     "Theorem 4.12",
		Columns: []string{"tree", "n", "C_Q arrow", "2×NNTSP bound", "C_C best", "best alg", "C_C/C_Q"},
	}
	for _, sh := range shapes {
		g := graph.PerfectMAryTree(sh.m, sh.levels)
		n := g.N()
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		req := allRequests(n)
		cq, err := runArrow(g, tr, 0, req, 1)
		if err != nil {
			return nil, err
		}
		bestName, cc, _, err := countingPortfolio(g, tr, req)
		if err != nil {
			return nil, err
		}
		if cc <= cq {
			return nil, fmt.Errorf("E7 m=%d: counting %d not above queuing %d", sh.m, cc, cq)
		}
		// Theorem 4.1 + Theorem 4.7 envelope (with the capacity-1 run the
		// envelope is multiplied by the tree degree at worst; report the
		// expanded-step bound for reference).
		envelope := 2 * bounds.QueuingUpperBoundPerfectBinary(n, tr.Height())
		t.AddRow(fmt.Sprintf("%d-ary d=%d", sh.m, tr.Height()), fmt.Sprint(n),
			fmt.Sprint(cq), fmt.Sprint(envelope), fmt.Sprint(cc), bestName,
			Ratio(float64(cc), float64(cq)))
	}
	t.AddNote("queuing stays linear in n on perfect m-ary trees while counting pays the aggregation depth")
	return t, nil
}

// RunE8 reproduces Theorem 4.13: on high-diameter graphs (diameter
// Ω(n^{1/2+δ}) with a constant-degree spanning tree), counting pays
// Ω(diameter²) = Ω(n^{1+2δ}) while the arrow protocol pays O(n log n).
// The caterpillar family with spine ≈ n^{3/4} realizes δ = 1/4.
func RunE8(cfg Config) (*Table, error) {
	sizes := []int{256, 1024, 4096}
	if cfg.Quick {
		sizes = []int{256, 1024}
	}
	t := &Table{
		ID:      "E8",
		Title:   "C_Q vs C_C on the high-diameter caterpillar (spine ≈ n^{3/4})",
		Ref:     "Theorem 4.13",
		Columns: []string{"n", "diameter", "C_Q arrow", "UB O(n log n)", "C_C best", "count LB α²", "C_C/C_Q"},
	}
	var qPts, cPts []Point
	for _, n := range sizes {
		g := graph.Caterpillar(n, 0.75)
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		req := allRequests(n)
		cq, err := runArrow(g, tr, 0, req, 1)
		if err != nil {
			return nil, err
		}
		bestName, cc, _, err := countingPortfolio(g, tr, req)
		if err != nil {
			return nil, err
		}
		_ = bestName
		alpha := g.DiameterDoubleSweep() // exact: the caterpillar is a tree
		lb := bounds.DiameterLowerBound(alpha)
		if cc < lb {
			return nil, fmt.Errorf("E8 n=%d: counting %d below diameter bound %d", n, cc, lb)
		}
		if cc <= cq {
			return nil, fmt.Errorf("E8 n=%d: counting %d not above queuing %d", n, cc, cq)
		}
		ub := 2 * bounds.QueuingUpperBoundGeneral(n) * tr.MaxDegree()
		t.AddRow(fmt.Sprint(n), fmt.Sprint(alpha), fmt.Sprint(cq), fmt.Sprint(ub),
			fmt.Sprint(cc), fmt.Sprint(lb), Ratio(float64(cc), float64(cq)))
		qPts = append(qPts, Point{N: n, Cost: float64(cq)})
		cPts = append(cPts, Point{N: n, Cost: float64(cc)})
	}
	t.AddNote("growth exponents: queuing %.2f (paper: ≈1 up to log), counting %.2f (paper: 1+2δ = 1.5)",
		LogLogSlope(qPts), LogLogSlope(cPts))
	return t, nil
}

// RunE9 reproduces the conclusions' star-graph discussion: with all
// messages serialized at the hub, both counting and queuing cost Θ(n²) and
// the separation disappears.
func RunE9(cfg Config) (*Table, error) {
	sizes := []int{32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{32, 64}
	}
	t := &Table{
		ID:      "E9",
		Title:   "star graph: both problems cost Θ(n²)",
		Ref:     "Conclusions",
		Columns: []string{"n", "C_Q arrow", "C_C best", "C_C/C_Q", "n²"},
	}
	var qPts, cPts []Point
	var ratios []float64
	for _, n := range sizes {
		g := graph.Star(n)
		tr, err := tree.BFSTree(g, 0) // the star itself
		if err != nil {
			return nil, err
		}
		req := allRequests(n)
		cq, err := runArrow(g, tr, 0, req, 1)
		if err != nil {
			return nil, err
		}
		_, cc, _, err := countingPortfolio(g, tr, req)
		if err != nil {
			return nil, err
		}
		ratio := float64(cc) / float64(cq)
		ratios = append(ratios, ratio)
		t.AddRow(fmt.Sprint(n), fmt.Sprint(cq), fmt.Sprint(cc),
			fmt.Sprintf("%.2f", ratio), fmt.Sprint(n*n))
		qPts = append(qPts, Point{N: n, Cost: float64(cq)})
		cPts = append(cPts, Point{N: n, Cost: float64(cc)})
	}
	qSlope := LogLogSlope(qPts)
	cSlope := LogLogSlope(cPts)
	if qSlope < 1.6 || cSlope < 1.6 {
		return nil, fmt.Errorf("E9: star growth exponents %.2f/%.2f below quadratic shape", qSlope, cSlope)
	}
	t.AddNote("growth exponents: queuing %.2f, counting %.2f — both ≈ 2 (contention dominates; no separation)", qSlope, cSlope)
	t.AddNote("the C_C/C_Q ratio stays bounded (%.2f → %.2f) instead of growing as on Hamilton-path graphs",
		ratios[0], ratios[len(ratios)-1])
	return t, nil
}
