package core

import (
	"fmt"
	"math/rand"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// RunE13 extends the one-shot comparison to the long-lived setting studied
// by Kuhn & Wattenhofer (the paper's reference [8]): operations arrive over
// time. The arrow protocol (queuing) runs against the combining-tree
// counter (counting) on the same spanning tree under identical request
// schedules; both are validated, and the total latency is compared across
// load levels.
func init() {
	Register(&Spec{ID: "E13", Title: "Long-lived queuing vs counting under arrival schedules", Ref: "extension: reference [8] setting", Run: RunE13})
	Register(&Spec{ID: "E14", Title: "Separation under asynchronous (jittered) links", Ref: "extension: Section 2.1 remark", Run: RunE14})
}

func RunE13(cfg Config) (*Table, error) {
	sizes := []int{63, 255}
	horizon := 200
	if cfg.Quick {
		sizes = []int{63}
		horizon = 80
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E13",
		Title:   "long-lived queuing (arrow) vs counting (combining tree)",
		Ref:     "extension: Kuhn–Wattenhofer reference [8] setting",
		Columns: []string{"tree n", "ops", "arrival window", "queuing latency", "counting latency", "C/Q"},
	}
	for _, n := range sizes {
		g := graph.PerfectMAryTree(2, log2Levels(n))
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		for _, load := range []int{n / 2, n, 2 * n} {
			qReqs := make([]arrow.Request, load)
			cReqs := make([]counting.Request, load)
			for i := range qReqs {
				node := rng.Intn(g.N())
				when := rng.Intn(horizon)
				qReqs[i] = arrow.Request{Node: node, Time: when}
				cReqs[i] = counting.Request{Node: node, Time: when}
			}
			q, err := arrow.NewLongLived(tr, 0, qReqs)
			if err != nil {
				return nil, err
			}
			if _, err := sim.Run(sim.Config{Graph: g}, q); err != nil {
				return nil, err
			}
			if err := q.VerifyRealTimeOrder(); err != nil {
				return nil, fmt.Errorf("E13: %w", err)
			}
			c, err := counting.NewCombining(tr, cReqs)
			if err != nil {
				return nil, err
			}
			if _, err := sim.Run(sim.Config{Graph: g}, c); err != nil {
				return nil, err
			}
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("E13: %w", err)
			}
			ql, cl := q.TotalLatency(), c.TotalLatency()
			if cl <= ql {
				return nil, fmt.Errorf("E13: counting latency %d not above queuing %d (n=%d load=%d)", cl, ql, n, load)
			}
			t.AddRow(fmt.Sprint(g.N()), fmt.Sprint(load), fmt.Sprintf("[0,%d)", horizon),
				fmt.Sprint(ql), fmt.Sprint(cl), Ratio(float64(cl), float64(ql)))
		}
	}
	t.AddNote("the separation persists when requests arrive over time: counting must still round-trip to the aggregation root, queuing terminates at the nearest predecessor")
	return t, nil
}

// RunE14 checks robustness of the separation under asynchronous links —
// the paper claims its lower bounds carry over to the asynchronous model
// (Section 2.1). Links get independent per-message delays in {1..Max}
// (FIFO per link); the one-shot comparison is repeated for growing Max.
func RunE14(cfg Config) (*Table, error) {
	side := 12
	if cfg.Quick {
		side = 8
	}
	g := graph.Mesh(side, side)
	n := g.N()
	req := allRequests(n)
	hp, err := hamiltonPathTree(g)
	if err != nil {
		return nil, err
	}
	bfs, err := tree.BFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E14",
		Title:   fmt.Sprintf("asynchronous links on %s: separation vs jitter bound", g.Name()),
		Ref:     "extension: Section 2.1's asynchronous-model remark",
		Columns: []string{"max link delay", "C_Q arrow", "C_C treecount", "C_C/C_Q"},
	}
	var ratios []float64
	for _, max := range []int{1, 2, 4, 8} {
		delay := sim.DelayModel(sim.UnitDelay{})
		if max > 1 {
			delay = sim.JitterDelay{Seed: cfg.Seed, Max: max}
		}
		qRes, err := arrow.RunOneShotConfig(g, hp, hp.Root(), req, sim.Config{Delay: delay})
		if err != nil {
			return nil, err
		}
		tc, err := counting.NewTreeCount(bfs, req)
		if err != nil {
			return nil, err
		}
		cRes, err := counting.RunConfig(g, tc, sim.Config{Delay: delay})
		if err != nil {
			return nil, err
		}
		if cRes.TotalDelay <= qRes.TotalDelay {
			return nil, fmt.Errorf("E14: no separation at jitter %d", max)
		}
		ratio := float64(cRes.TotalDelay) / float64(qRes.TotalDelay)
		ratios = append(ratios, ratio)
		t.AddRow(fmt.Sprint(max), fmt.Sprint(qRes.TotalDelay), fmt.Sprint(cRes.TotalDelay),
			fmt.Sprintf("%.2f", ratio))
	}
	t.AddNote("counting stays an order of magnitude above queuing at every jitter bound (ratios %.1f–%.1f): the separation is not an artifact of synchrony", minF(ratios), maxF(ratios))
	return t, nil
}

// log2Levels returns the number of perfect-binary-tree levels giving ≈ n
// nodes (n of the form 2^k − 1).
func log2Levels(n int) int {
	levels := 0
	for size := 0; size < n; size = 2*size + 1 {
		levels++
	}
	return levels
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
