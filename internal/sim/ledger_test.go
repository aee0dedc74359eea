package sim_test

// The grant ledger: a cost comparison between protocols holds only if every
// operation a core accepts is granted exactly once. TestGrantLedger executes
// that contract instead of reading it off the source: it builds every
// registered sim-* core from the ProtoMaker its bridge uses and drives it
// through the scheduled driver — whose Grant is the ledger — over a grid of
// seeded, deterministic inputs, so Issue, Deliver and Tick all run, where a
// static pass over Issue alone could only see the first.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ledgerPayloads are the counter block sizes the ops cycle through:
// countq.Op documents N ≤ 1 as one count, so −2 and 0 must count once.
var ledgerPayloads = []int64{-2, 0, 1, 3}

// ledgerSizes picks one small member of every topology family the bridge
// accepts.
var ledgerSizes = map[string]int{
	"star": 9, "list": 16, "complete": 9, "caterpillar": 20, "mesh2d": 16,
	"mesh3d": 27, "hypercube": 16, "debruijn": 16, "mary": 13, "ccc": 24,
}

// ledgerGraphs are the networks — one member of every family, and a random
// 12-node tree; each core runs on the tree its bridge would build.
func ledgerGraphs(t *testing.T) []*graph.Graph {
	var gs []*graph.Graph
	for _, name := range graph.FamilyNames() {
		g, err := graph.Family(name, ledgerSizes[name])
		if err != nil {
			t.Fatalf("ledger graph for %s: %v", name, err)
		}
		gs = append(gs, g)
	}
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder("rtree", 12)
	for v := 1; v < 12; v++ {
		b.MustAddEdge(v, rng.Intn(v))
	}
	return append(gs, b.Build())
}

// ledgerSchedule is one named arrival shape.
type ledgerSchedule struct {
	name     string
	arrivals []sim.Arrival
}

// ledgerSchedules are the arrival shapes on an n-node network rooted at
// root: two bursts from every node, repeats at one node (arrow's local fast
// path, the combining tree's batching), and ops at the root (the central
// root's serve-on-the-spot path, arrow's initial tail) around one from
// another node. The repeat and root shapes give their node every payload
// in turn; no bridge session is ever pinned to the root, so only this test
// reaches it.
func ledgerSchedules(n, root int) []ledgerSchedule {
	var burst, repeat []sim.Arrival
	for _, round := range []int{0, 4} {
		for v := 0; v < n; v++ {
			burst = append(burst, sim.Arrival{Node: v, Time: round})
		}
	}
	for _, round := range []int{0, 0, 0, 0, 0, 1, 2, 3} {
		repeat = append(repeat, sim.Arrival{Node: n - 1, Time: round})
	}
	other := n - 1
	if other == root {
		other = 0
	}
	atRoot := []sim.Arrival{{root, 0}, {root, 0}, {root, 0}, {root, 0}, {other, 1}, {root, 2}, {root, 2}, {root, 2}}
	return []ledgerSchedule{{"burst", burst}, {"repeat", repeat}, {"root", atRoot}}
}

// ledgerOps gives op i the payload ledgerPayloads[i mod 4], or (queue) the
// distinct id 3i+1, which no token equals by accident.
func ledgerOps(queue bool, k int) []countq.Op {
	ops := make([]countq.Op, k)
	for i := range ops {
		ops[i] = countq.Op{Kind: countq.OpInc, N: ledgerPayloads[i%len(ledgerPayloads)]}
		if queue {
			ops[i] = countq.Op{Kind: countq.OpEnqueue, ID: int64(3*i + 1)}
		}
	}
	return ops
}

func TestGrantLedger(t *testing.T) {
	protos := sim.BridgeProtos()
	var names []string
	queue := map[string]bool{}
	for _, info := range countq.Structures() {
		if _, ok := protos[info.Name]; ok {
			names = append(names, info.Name)
			queue[info.Name] = info.Kinds.Has(countq.KindQueue)
		}
	}
	if len(names) != len(protos) || len(names) < 4 {
		t.Fatalf("registry has %v of the %d bridge cores", names, len(protos))
	}
	sort.Strings(names)
	delays := []struct {
		name  string
		model sim.DelayModel
	}{
		{"unit", sim.UnitDelay{}},
		// Seed 0 is where a delay model falling back to the global
		// math/rand would surface, as a second run that differs.
		{"jitter0", sim.JitterDelay{Seed: 0, Max: 3}},
		{"jitter7", sim.JitterDelay{Seed: 7, Max: 3}},
	}
	for _, name := range names {
		policy, ok := bridgePolicies[name]
		if !ok {
			t.Fatalf("%s: no tree policy listed for it in bridgePolicies", name)
		}
		for _, g := range ledgerGraphs(t) {
			tr, err := policy(g)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name(), err)
			}
			for _, sc := range ledgerSchedules(g.N(), tr.Root()) {
				ops := ledgerOps(queue[name], len(sc.arrivals))
				for capacity := 1; capacity <= 2; capacity++ {
					for _, delay := range delays {
						cfg := sim.Config{Graph: g, Capacity: capacity, Delay: delay.model}
						t.Run(fmt.Sprintf("%s/%s/%s/cap%d/%s", name, g.Name(), sc.name, capacity, delay.name), func(t *testing.T) {
							first := newScheduled(t, g, tr, protos[name], queue[name], sc.arrivals, ops)
							stats := first.run(cfg)
							if err := validateLedger(first); err != nil {
								t.Error(err)
							}
							again := newScheduled(t, g, tr, protos[name], queue[name], sc.arrivals, ops)
							if restats := again.run(cfg); !reflect.DeepEqual(first.trace, again.trace) || !reflect.DeepEqual(stats, restats) {
								t.Errorf("second run differs: trace %v, stats %+v; first %v, %+v", again.trace, restats, first.trace, stats)
							}
						})
					}
				}
			}
		}
	}
}

// validateLedger holds the granted values to the structure's correctness
// condition: one total order of the enqueued ids, or counts tiling 1..total
// with every N > 1 a block.
func validateLedger(p *scheduled) error {
	if p.ops[0].Kind == countq.OpEnqueue {
		ids := make([]int64, len(p.ops))
		for i, op := range p.ops {
			ids[i] = op.ID
		}
		return countq.ValidateOrder(ids, p.value)
	}
	var singles []int64
	var blocks []countq.CountRange
	for i, op := range p.ops {
		if op.N > 1 {
			blocks = append(blocks, countq.CountRange{First: p.value[i], N: op.N})
		} else {
			singles = append(singles, p.value[i])
		}
	}
	return countq.ValidateCountRanges(singles, blocks)
}
