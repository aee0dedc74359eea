package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/tree"
)

// RunE1 reproduces Theorem 3.5: on the complete graph (the most favorable
// topology), every counting protocol's total delay must exceed the
// information-theoretic lower bound Ω(n log* n) when all n nodes count.
// The experiment measures the full counting portfolio on K_n with a
// balanced binary spanning tree and reports measured versus bound.
func init() {
	Register(&Spec{ID: "E1", Title: "Counting lower bound Ω(n log* n) on the complete graph", Ref: "Theorem 3.5", Run: RunE1})
	Register(&Spec{ID: "E2", Title: "Counting lower bound Ω(diameter²) on list and mesh", Ref: "Theorem 3.6", Run: RunE2})
}

func RunE1(cfg Config) (*Table, error) {
	sizes := []int{16, 64, 256, 1024}
	if cfg.Quick {
		sizes = []int{16, 64}
	}
	t := &Table{
		ID:      "E1",
		Title:   "counting on K_n: measured total delay vs Ω(n log* n) bound",
		Ref:     "Theorem 3.5",
		Columns: []string{"n", "best alg", "measured", "LB thm3.5", "LB exact", "measured/LBexact"},
	}
	var pts []Point
	for _, n := range sizes {
		g := graph.Complete(n)
		tr := heapTree(n)
		best, total, _, err := countingPortfolio(g, tr, allRequests(n))
		if err != nil {
			return nil, err
		}
		lbThm := bounds.CountingLowerBoundTheorem35(n)
		lbExact := bounds.CountingLowerBoundExact(n)
		if total < lbThm {
			return nil, fmt.Errorf("E1: measured %d below theorem lower bound %d at n=%d", total, lbThm, n)
		}
		if total < lbExact {
			return nil, fmt.Errorf("E1: measured %d below exact lower bound %d at n=%d", total, lbExact, n)
		}
		t.AddRow(fmt.Sprint(n), best, fmt.Sprint(total), fmt.Sprint(lbThm),
			fmt.Sprint(lbExact), Ratio(float64(total), float64(lbExact)))
		pts = append(pts, Point{N: n, Cost: float64(total)})
	}
	t.AddNote("measured growth exponent (log-log slope): %.2f; the bound requires ≥ 1 (n·log* n is barely super-linear)", LogLogSlope(pts))
	t.AddNote("every measured value dominates the computed lower bound, as Theorem 3.5 demands")
	return t, nil
}

// RunE2 reproduces Theorem 3.6: on a graph with diameter α the total
// counting delay is Ω(α²) — Ω(n²) on the list, Ω(n√n) on the √n×√n mesh.
// The strongest counter in the portfolio (the aggregating tree counter) is
// measured against the exact Σ_{j≤α/2} j bound.
func RunE2(cfg Config) (*Table, error) {
	listSizes := []int{32, 64, 128, 256}
	meshSides := []int{6, 8, 12, 16}
	if cfg.Quick {
		listSizes = []int{32, 64}
		meshSides = []int{6, 8}
	}
	t := &Table{
		ID:      "E2",
		Title:   "counting on high-diameter graphs vs Ω(diameter²) bound",
		Ref:     "Theorem 3.6",
		Columns: []string{"graph", "n", "diameter", "measured", "LB α²-form", "measured/LB"},
	}
	var listPts, meshPts []Point
	for _, n := range listSizes {
		g := graph.Path(n)
		tr := identityPathTree(n)
		_, total, _, err := countingPortfolio(g, tr, allRequests(n))
		if err != nil {
			return nil, err
		}
		alpha := g.Diameter()
		lb := bounds.DiameterLowerBound(alpha)
		if total < lb {
			return nil, fmt.Errorf("E2: list n=%d measured %d below bound %d", n, total, lb)
		}
		t.AddRow(g.Name(), fmt.Sprint(n), fmt.Sprint(alpha), fmt.Sprint(total),
			fmt.Sprint(lb), Ratio(float64(total), float64(lb)))
		listPts = append(listPts, Point{N: n, Cost: float64(total)})
	}
	for _, side := range meshSides {
		g := graph.Mesh(side, side)
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		_, total, _, err := countingPortfolio(g, tr, allRequests(g.N()))
		if err != nil {
			return nil, err
		}
		alpha := g.Diameter()
		lb := bounds.DiameterLowerBound(alpha)
		if total < lb {
			return nil, fmt.Errorf("E2: mesh side=%d measured %d below bound %d", side, total, lb)
		}
		t.AddRow(g.Name(), fmt.Sprint(g.N()), fmt.Sprint(alpha), fmt.Sprint(total),
			fmt.Sprint(lb), Ratio(float64(total), float64(lb)))
		meshPts = append(meshPts, Point{N: g.N(), Cost: float64(total)})
	}
	t.AddNote("list growth exponent %.2f (paper: 2 ⇒ Ω(n²)); mesh growth exponent %.2f (paper: 1.5 ⇒ Ω(n√n))",
		LogLogSlope(listPts), LogLogSlope(meshPts))
	return t, nil
}
