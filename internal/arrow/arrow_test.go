package arrow

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/nntsp"
	"repro/internal/sim"
	"repro/internal/tree"
)

// pathSetup builds the list graph and its identity path tree.
func pathSetup(t *testing.T, n int) (*graph.Graph, *tree.Tree) {
	t.Helper()
	g := graph.Path(n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	tr, err := tree.PathTree(order)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func reqAll(n int) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = true
	}
	return r
}

func reqSet(n int, vs ...int) []bool {
	r := make([]bool, n)
	for _, v := range vs {
		r[v] = true
	}
	return r
}

func TestSingleRequesterDelayEqualsDistance(t *testing.T) {
	g, tr := pathSetup(t, 10)
	for _, v := range []int{0, 3, 9} {
		res, err := RunOneShot(g, tr, 0, reqSet(10, v), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalDelay != v { // dist(v, tail=0) = v on the list
			t.Errorf("requester %d: delay %d, want %d", v, res.TotalDelay, v)
		}
		if len(res.Order) != 1 || res.Order[0] != v {
			t.Errorf("order = %v", res.Order)
		}
	}
}

func TestTailHolderInstant(t *testing.T) {
	g, tr := pathSetup(t, 5)
	res, err := RunOneShot(g, tr, 2, reqSet(5, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay != 0 {
		t.Errorf("tail holder delay = %d, want 0", res.TotalDelay)
	}
}

func TestAllRequestPathOrder(t *testing.T) {
	g, tr := pathSetup(t, 3)
	p, err := New(tr, 0, reqAll(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Graph: g}, p).Run(); err != nil {
		t.Fatal(err)
	}
	if p.Pred(0) != Head || p.Pred(1) != 0 || p.Pred(2) != 1 {
		t.Errorf("preds = %d, %d, %d", p.Pred(0), p.Pred(1), p.Pred(2))
	}
	if p.Delay(0) != 0 || p.Delay(1) != 1 || p.Delay(2) != 1 {
		t.Errorf("delays = %d, %d, %d", p.Delay(0), p.Delay(1), p.Delay(2))
	}
	order, err := p.Order()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestChasingMessages(t *testing.T) {
	// Requests at 0 and 1 with the tail at the far end: queue(0) catches
	// node 1's reversed arrow and terminates there; queue(1) travels on
	// to the tail. Known delays: 1 and 3.
	g, tr := pathSetup(t, 5)
	p, err := New(tr, 4, reqSet(5, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Graph: g}, p).Run(); err != nil {
		t.Fatal(err)
	}
	if p.Pred(0) != 1 || p.Pred(1) != Head {
		t.Errorf("preds: pred(0)=%d pred(1)=%d", p.Pred(0), p.Pred(1))
	}
	if p.Delay(0) != 1 || p.Delay(1) != 3 {
		t.Errorf("delays: %d, %d", p.Delay(0), p.Delay(1))
	}
}

func TestNoRequests(t *testing.T) {
	g, tr := pathSetup(t, 4)
	res, err := RunOneShot(g, tr, 0, make([]bool, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay != 0 || len(res.Order) != 0 || res.Stats.MessagesSent != 0 {
		t.Errorf("empty run: %+v", res)
	}
}

func TestValidation(t *testing.T) {
	_, tr := pathSetup(t, 4)
	if _, err := New(tr, 9, reqAll(4)); err == nil {
		t.Error("bad tail accepted")
	}
	if _, err := New(tr, 0, make([]bool, 3)); err == nil {
		t.Error("short request vector accepted")
	}
	// Tree not spanning the graph.
	g2 := graph.Star(4)
	if _, err := RunOneShot(g2, tr, 0, reqAll(4), 1); err == nil {
		t.Error("non-spanning tree accepted")
	}
	// The tree is checked before anything is built on it: with a bad tail as
	// well, the error is still the tree's.
	if _, err := RunOneShot(g2, tr, 9, reqAll(4), 1); err == nil || !strings.Contains(err.Error(), "not in graph") {
		t.Errorf("non-spanning tree with a bad tail: %v, want the tree's error", err)
	}
}

func TestPerfectBinaryTreeOrderValid(t *testing.T) {
	g := graph.PerfectMAryTree(2, 5)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOneShot(g, tr, 0, reqAll(g.N()), tr.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != g.N() {
		t.Errorf("order covers %d of %d", len(res.Order), g.N())
	}
}

func TestTheorem41ArrowWithinTwiceNNTSP(t *testing.T) {
	// Theorem 4.1: with constant-degree trees and expanded steps
	// (capacity = max tree degree), the total arrow delay is at most
	// twice the nearest-neighbour TSP cost visiting R from the tail.
	rng := rand.New(rand.NewSource(77))
	shapes := []struct {
		name string
		g    *graph.Graph
		mk   func() *tree.Tree
	}{
		{"path64", graph.Path(64), func() *tree.Tree {
			order := make([]int, 64)
			for i := range order {
				order[i] = i
			}
			tr, _ := tree.PathTree(order)
			return tr
		}},
		{"perfect2x6", graph.PerfectMAryTree(2, 6), func() *tree.Tree {
			tr, _ := tree.BFSTree(graph.PerfectMAryTree(2, 6), 0)
			return tr
		}},
		{"perfect3x4", graph.PerfectMAryTree(3, 4), func() *tree.Tree {
			tr, _ := tree.BFSTree(graph.PerfectMAryTree(3, 4), 0)
			return tr
		}},
	}
	for _, sh := range shapes {
		tr := sh.mk()
		n := sh.g.N()
		for trial := 0; trial < 20; trial++ {
			req := make([]bool, n)
			var reqList []int
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					req[v] = true
					reqList = append(reqList, v)
				}
			}
			if len(reqList) == 0 {
				continue
			}
			tail := rng.Intn(n)
			res, err := RunOneShot(sh.g, tr, tail, req, tr.MaxDegree())
			if err != nil {
				t.Fatal(err)
			}
			tour, err := nntsp.Greedy(tr, reqList, tail)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalDelay > 2*tour.Cost {
				t.Errorf("%s trial %d: arrow %d > 2×NNTSP %d (|R|=%d)",
					sh.name, trial, res.TotalDelay, 2*tour.Cost, len(reqList))
			}
		}
	}
}

func TestOrderPropertyRandomTrees(t *testing.T) {
	// Property: on random trees with random request sets the arrow
	// protocol always produces a valid total order, under both unit and
	// expanded capacity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr := tree.MustFromParents(0, parent)
		b := graph.NewBuilder("rt", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, parent[v])
		}
		g := b.Build()
		req := make([]bool, n)
		for v := range req {
			req[v] = rng.Intn(2) == 0
		}
		tail := rng.Intn(n)
		for _, cap := range []int{1, tr.MaxDegree()} {
			res, err := RunOneShot(g, tr, tail, req, cap)
			if err != nil {
				return false
			}
			want := 0
			for _, r := range req {
				if r {
					want++
				}
			}
			if len(res.Order) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	g, tr := pathSetup(t, 32)
	req := reqSet(32, 1, 5, 8, 13, 21, 30)
	r1, err := RunOneShot(g, tr, 4, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOneShot(g, tr, 4, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalDelay != r2.TotalDelay || r1.Stats.Rounds != r2.Stats.Rounds ||
		r1.Stats.MessagesSent != r2.Stats.MessagesSent {
		t.Errorf("replay diverged: %+v vs %+v", r1, r2)
	}
}

func TestChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		pred []int
		live []bool
		want []int
		err  string
	}{
		{"order", []int{2, Head, 1}, nil, []int{1, 2, 0}, ""},
		{"live only", []int{None, Head, 1, None}, []bool{false, true, true, false}, []int{1, 2}, ""},
		{"none", nil, nil, []int{}, ""},
		{"incomplete", []int{Head, None}, nil, nil, "arrow: operation 1 incomplete"},
		{"double claim", []int{Head, 0, 0}, nil, nil, "arrow: two operations claim predecessor 0"},
		{"two heads", []int{Head, Head}, nil, nil, "arrow: two operations claim predecessor -1"},
		{"disjoint cycle", []int{Head, 2, 1}, nil, nil, "arrow: predecessor chain covers 1 of 3 operations"},
		{"no head", []int{1, 0}, nil, nil, "arrow: predecessor chain covers 0 of 2 operations"},
		{"names no operation", []int{Head, 7}, nil, nil, "arrow: predecessor chain covers 1 of 2 operations"},
	} {
		got, err := chain(tc.pred, tc.live)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("%s: %v (%v), want %v", tc.name, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
