package arrow

import (
	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// sim-arrow-queue runs the arrow core live behind the sim bridge. This is
// the paper's fast side of the separation made campaign-measurable: where
// sim-queue routes every Enqueue to a central root (Θ(n²) contention on
// the star), arrow orders operations by distributed path reversal — each
// request chases the moving tail over at most D hops and the ordering
// point migrates to the requester, so there is no fixed hot spot. One
//
//	countq compare "sim-queue,sim-arrow-queue" -scenario "ramp?gmax=8"
//
// puts Theorem 4.1's low-congestion queuing next to the naive baseline
// under identical hop latency and capacity.
func init() {
	sim.RegisterBridge("sim-arrow-queue",
		"distributed queuing via arrow path reversal over the simulated network (requests chase the moving tail; the ordering point migrates to the requester — no fixed hot spot)",
		countq.KindQueue, countq.CapAsync, newBridgeCore)
}

// newBridgeCore is the sim.ProtoMaker: the core with its tail at the root.
func newBridgeCore(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	c, err := newCore(tr, tr.Root(), grants)
	return &c, err
}
