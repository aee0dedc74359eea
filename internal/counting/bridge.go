package counting

import (
	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// sim-tree-counter runs the combining tree live behind the sim bridge —
// the counting side of the paper's separation made campaign-measurable.
// Where sim-counter ships one request per operation to the root (the star
// hub serializes all n-1 leaves), the combining tree batches. One
//
//	countq compare "sim-counter,sim-tree-counter" -scenario "ramp?gmax=8"
//
// prices that batching against the naive baseline under identical hop
// latency and capacity.
func init() {
	sim.RegisterBridge("sim-tree-counter",
		"combining-tree counting over the simulated network (per-node batches merge upward, the root grants intervals that split back down; the hot spot amortizes across the tree)",
		countq.KindCounter, countq.CapBatch|countq.CapAsync, newBridgeCombiner)
}

// newBridgeCombiner is the sim.ProtoMaker.
func newBridgeCombiner(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	c := newCombiner(tr, grants)
	return &c, nil
}
