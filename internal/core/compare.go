package core

import (
	"fmt"
	"sort"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/tree"
)

// CompareOn runs the full queuing-versus-counting comparison on an
// arbitrary connected graph with all nodes requesting: the arrow protocol
// on the best spanning tree available (Hamilton path when one is known,
// BFS otherwise) against the counting portfolio, with the paper's bounds
// alongside. This is the library entry point behind `countq topo`
// (the campaign comparison of shared-memory structures lives behind
// `countq compare`).
func CompareOn(g *graph.Graph) (*Table, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("core: graph %s is not connected", g.Name())
	}
	n := g.N()
	req := allRequests(n)

	arrowTree, arrowTreeName := chooseArrowTree(g)
	cq, err := runArrow(g, arrowTree, arrowTree.Root(), req, 1)
	if err != nil {
		return nil, err
	}
	countTree, err := chooseCountingTree(g)
	if err != nil {
		return nil, err
	}
	bestName, cc, totals, err := countingPortfolio(g, countTree, req)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "CMP",
		Title:   fmt.Sprintf("queuing vs counting on %s, all %d nodes request", g.Name(), n),
		Ref:     "Sections 3–4",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("C_Q arrow on "+arrowTreeName, fmt.Sprint(cq))
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow("C_C "+name, fmt.Sprint(totals[name]))
	}
	t.AddRow("C_C best ("+bestName+")", fmt.Sprint(cc))
	t.AddRow("counting LB (Thm 3.5)", fmt.Sprint(bounds.CountingLowerBoundTheorem35(n)))
	alpha := g.DiameterDoubleSweep()
	t.AddRow("counting LB (Thm 3.6, α≥"+fmt.Sprint(alpha)+")", fmt.Sprint(bounds.DiameterLowerBound(alpha)))
	t.AddRow("C_C/C_Q", fmt.Sprintf("%.2f", float64(cc)/float64(cq)))
	return t, nil
}

// chooseArrowTree prefers a Hamilton-path spanning tree (Theorem 4.5's
// choice) and falls back to BFS.
func chooseArrowTree(g *graph.Graph) (*tree.Tree, string) {
	if hp, err := hamiltonPathTree(g); err == nil {
		return hp, "hamilton path"
	}
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		panic(err) // connected graphs always have a BFS tree
	}
	return tr, "BFS tree"
}

// chooseCountingTree gives counting its best tree: balanced binary on
// complete graphs, BFS otherwise.
func chooseCountingTree(g *graph.Graph) (*tree.Tree, error) {
	n := g.N()
	complete := true
	for v := 0; v < n && complete; v++ {
		complete = g.Degree(v) == n-1
	}
	if complete && n > 1 {
		return heapTree(n), nil
	}
	return tree.BFSTree(g, 0)
}
