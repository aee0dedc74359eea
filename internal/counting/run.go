package counting

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Protocol is a counting protocol runnable on the simulator whose results
// can be read back after the run.
type Protocol interface {
	sim.Protocol
	Results
}

// RunResult summarizes a validated counting run.
type RunResult struct {
	Stats      sim.Stats
	TotalDelay int
	MaxDelay   int
}

// Run executes a counting protocol on graph g under the given per-round
// capacity (0 means 1), validates that the counts handed out are exactly
// {1, …, |R|}, and returns the realized delay complexity.
func Run(g *graph.Graph, p Protocol, capacity int) (*RunResult, error) {
	return RunConfig(g, p, sim.Config{Capacity: capacity})
}

// RunConfig is Run with full simulator configuration (link delay models,
// strict mode, round bounds); cfg.Graph is overridden by g.
func RunConfig(g *graph.Graph, p Protocol, cfg sim.Config) (*RunResult, error) {
	cfg.Graph = g
	stats, err := sim.Run(cfg, p)
	if err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return &RunResult{Stats: stats, TotalDelay: TotalDelay(p), MaxDelay: MaxDelay(p)}, nil
}
