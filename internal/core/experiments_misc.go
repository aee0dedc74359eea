package core

import (
	"fmt"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// RunE10 reproduces the semantics illustrated in Fig. 1 of the paper: on a
// small network where a subset of nodes issue operations, counting hands
// each requester the rank of its operation while queuing hands it the
// identity of its predecessor — and both agree on a single total order.
func init() {
	Register(&Spec{ID: "E10", Title: "Counting and queuing semantics on the Fig. 1 example", Ref: "Figure 1", Run: RunE10})
	Register(&Spec{ID: "E12", Title: "Ablations: spanning tree, capacity, network width", Ref: "design choices", Run: RunE12})
}

func RunE10(Config) (*Table, error) {
	// An 8-node graph shaped like Fig. 1's sketch; nodes a..h = 0..7,
	// requesters a, c, e (0, 2, 4).
	b := graph.NewBuilder("fig1", 8)
	edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}, {5, 6}, {6, 7}, {2, 5}}
	for _, e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	g := b.Build()
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	req := make([]bool, 8)
	req[0], req[2], req[4] = true, true, true

	tc, err := counting.NewTreeCount(tr, req)
	if err != nil {
		return nil, err
	}
	if _, err := counting.Run(g, tc, 1); err != nil {
		return nil, err
	}
	ar, err := arrow.New(tr, 0, req)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(sim.Config{Graph: g}, ar); err != nil {
		return nil, err
	}
	order, err := ar.Order()
	if err != nil {
		return nil, err
	}

	name := func(v int) string { return string(rune('a' + v)) }
	t := &Table{
		ID:      "E10",
		Title:   "counting vs queuing semantics on the Fig. 1 example",
		Ref:     "Figure 1",
		Columns: []string{"node", "requests?", "count (rank)", "queuing pred"},
	}
	for v := 0; v < 8; v++ {
		reqs, count, pred := "no", "-", "-"
		if req[v] {
			reqs = "yes"
			count = fmt.Sprint(tc.Count(v))
			if p := ar.Pred(v); p == arrow.Head {
				pred = "HEAD"
			} else {
				pred = name(p)
			}
		}
		t.AddRow(name(v), reqs, count, pred)
	}
	queueOrder := ""
	for i, v := range order {
		if i > 0 {
			queueOrder += ", "
		}
		queueOrder += name(v)
	}
	t.AddNote("arrow total order: %s (counting ranks induce a total order too; the two protocols may order concurrent operations differently, as any correct implementations may)", queueOrder)
	return t, nil
}

// RunE12 measures the design choices the other experiments fix: the arrow
// protocol's spanning tree, the send/receive capacity (the paper's expanded
// time steps), the counting network width, and the aggregation root.
func RunE12(cfg Config) (*Table, error) {
	side := 12
	if cfg.Quick {
		side = 8
	}
	t := &Table{
		ID:      "E12",
		Title:   "ablations over spanning tree, capacity, width, and root",
		Ref:     "design choices called out in DESIGN.md",
		Columns: []string{"ablation", "variant", "total delay"},
	}

	// (a) Arrow spanning-tree choice on the mesh, all nodes request.
	mesh := graph.Mesh(side, side)
	req := allRequests(mesh.N())
	hp, _, err := tree.ForQueuing(mesh)
	if err != nil {
		return nil, err
	}
	corner, err := tree.BFSTree(mesh, 0)
	if err != nil {
		return nil, err
	}
	center, err := tree.BFSTree(mesh, mesh.N()/2+side/2)
	if err != nil {
		return nil, err
	}
	for _, v := range []struct {
		name string
		tr   *tree.Tree
	}{{"hamilton path", hp}, {"BFS corner", corner}, {"BFS center", center}} {
		total, err := runArrow(mesh, v.tr, v.tr.Root(), req, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("arrow tree (mesh)", v.name, fmt.Sprint(total))
	}

	// (b) Arrow capacity: base model vs expanded time steps.
	pb := graph.PerfectMAryTree(2, 7)
	pbTree, err := tree.BFSTree(pb, 0)
	if err != nil {
		return nil, err
	}
	pbReq := allRequests(pb.N())
	for _, capacity := range []int{1, pbTree.MaxDegree()} {
		total, err := runArrow(pb, pbTree, 0, pbReq, capacity)
		if err != nil {
			return nil, err
		}
		t.AddRow("arrow capacity (perfect binary)", fmt.Sprintf("c=%d", capacity), fmt.Sprint(total))
	}

	// (c) Counting-network width on the complete graph.
	kn := graph.Complete(64)
	knTree, err := tree.ForCounting(kn)
	if err != nil {
		return nil, err
	}
	knReq := allRequests(64)
	for _, width := range []int{2, 4, 8, 16} {
		cn, err := counting.NewCountNet(knTree, knReq, width, nil)
		if err != nil {
			return nil, err
		}
		res, err := counting.Run(kn, cn, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("countnet width (K_64)", fmt.Sprintf("w=%d", width), fmt.Sprint(res.TotalDelay))
	}

	// (c') Counting-network construction: bitonic vs periodic at w=8.
	for _, variant := range []struct {
		name string
		mk   func(int) (*counting.BalancerNetwork, error)
	}{{"bitonic w=8", counting.Bitonic}, {"periodic w=8", counting.Periodic}} {
		net, err := variant.mk(8)
		if err != nil {
			return nil, err
		}
		cn, err := counting.NewCountNetFrom(knTree, knReq, net, nil)
		if err != nil {
			return nil, err
		}
		res, err := counting.Run(kn, cn, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("countnet construction (K_64)",
			fmt.Sprintf("%s depth=%d", variant.name, net.Depth()), fmt.Sprint(res.TotalDelay))
	}

	// (c'') Counting-network routing: spanning-tree hops vs direct edges
	// (on the complete graph every host pair is adjacent).
	for _, shortcut := range []bool{false, true} {
		cn, err := counting.NewCountNet(knTree, knReq, 8, nil)
		if err != nil {
			return nil, err
		}
		name := "tree routing"
		if shortcut {
			cn.WithShortcuts()
			name = "direct edges"
		}
		res, err := counting.Run(kn, cn, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("countnet routing (K_64)", name, fmt.Sprint(res.TotalDelay))
	}

	// (d) Aggregating counter root placement on the mesh.
	for _, v := range []struct {
		name string
		tr   *tree.Tree
	}{{"corner root", corner}, {"center root", center}} {
		tc, err := counting.NewTreeCount(v.tr, req)
		if err != nil {
			return nil, err
		}
		res, err := counting.Run(mesh, tc, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("treecount root (mesh)", v.name, fmt.Sprint(res.TotalDelay))
	}
	t.AddNote("capacity c=deg(T) reproduces the paper's expanded-step accounting; c=1 is the base model (at most a constant factor apart on constant-degree trees)")
	return t, nil
}
