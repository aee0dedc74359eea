package arrow

import (
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Result summarizes a one-shot arrow execution.
type Result struct {
	Stats      sim.Stats
	TotalDelay int
	MaxDelay   int
	Order      []int // operations in queue order
}

// RunOneShot executes the arrow protocol on spanning tree t of graph g with
// the given initial tail and request set, under the model's per-round
// send/receive capacity (0 means 1; pass t.MaxDegree() for the paper's
// "expanded time step" accounting used by Theorem 4.1).
func RunOneShot(g *graph.Graph, t *tree.Tree, tail int, requests []bool, capacity int) (*Result, error) {
	return RunOneShotConfig(g, t, tail, requests, sim.Config{Capacity: capacity})
}

// RunOneShotConfig is RunOneShot with full simulator configuration (link
// delay models, strict mode, round bounds); cfg.Graph is overridden by g.
func RunOneShotConfig(g *graph.Graph, t *tree.Tree, tail int, requests []bool, cfg sim.Config) (*Result, error) {
	if err := t.IsSpanningOf(g); err != nil {
		return nil, err
	}
	p, err := New(t, tail, requests)
	if err != nil {
		return nil, err
	}
	cfg.Graph = g
	stats, err := sim.Run(cfg, p)
	if err != nil {
		return nil, err
	}
	order, err := p.Order()
	if err != nil {
		return nil, err
	}
	return &Result{
		Stats:      stats,
		TotalDelay: p.TotalDelay(),
		MaxDelay:   p.MaxDelay(),
		Order:      order,
	}, nil
}
