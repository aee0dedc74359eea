package counting

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tree"
)

// TreeCount is the aggregating spanning-tree counting protocol — the
// strongest one-shot counter in this package, and the natural competitor
// for the lower bounds. It runs in two phases on a rooted spanning tree:
//
//  1. Convergecast: every node reports its subtree's request total to its
//     parent once all children have reported (leaves report immediately).
//  2. Rank distribution: the root fixes the total order — root's own
//     operation first, then the children's subtrees in ascending order —
//     and sends each child the first rank of its block; interior nodes
//     recursively split their block among themselves and their children.
//
// Every requester learns its rank when its block message arrives. Total
// delay is Θ(Σ_v depth(v)) plus serialization at high-degree nodes; on a
// constant-degree tree of depth D it is O(n·D).
type TreeCount struct {
	tree     *tree.Tree
	requests []bool

	// Four per-node columns carved from one array. childTotal[c] = requests
	// in the subtree of c as reported to its parent, or -1 until c reports:
	// every non-root node is the child of exactly one parent, so the child's
	// own id indexes its parent's entry for it, and the aggregation loops
	// walk tree.Children in the tree's fixed order.
	childTotal []int
	pendingUp  []int // children yet to report
	count      []int
	delay      []int
}

// NewTreeCount prepares an aggregating-counter run on spanning tree t.
func NewTreeCount(t *tree.Tree, requests []bool) (*TreeCount, error) {
	n := t.N()
	if len(requests) != n {
		return nil, fmt.Errorf("counting: request vector has %d entries, want %d", len(requests), n)
	}
	cols := make([]int, 4*n)
	tc := &TreeCount{
		tree:       t,
		requests:   append([]bool(nil), requests...),
		childTotal: cols[0*n : 1*n : 1*n],
		pendingUp:  cols[1*n : 2*n : 2*n],
		count:      cols[2*n : 3*n : 3*n],
		delay:      cols[3*n : 4*n : 4*n],
	}
	for v := 0; v < n; v++ {
		tc.childTotal[v] = -1
		tc.pendingUp[v] = len(t.Children(v))
		tc.delay[v] = -1
	}
	return tc, nil
}

// Start begins the convergecast at the leaves.
func (tc *TreeCount) Start(env *sim.Env, node int) {
	if tc.pendingUp[node] > 0 {
		return // interior node: waits for children
	}
	tc.reportUp(env, node)
}

// reportUp sends node's aggregate to its parent, or starts the down phase
// if node is the root.
func (tc *TreeCount) reportUp(env *sim.Env, node int) {
	total := tc.subtreeTotal(node)
	if node != tc.tree.Root() {
		env.Send(node, tc.tree.Parent(node), sim.Message{Kind: kindUp, A: total})
		return
	}
	tc.distribute(env, node, 1)
}

// subtreeTotal is node's own bit plus all reported child totals. Only
// called once every child has reported, so no -1 sentinel remains.
func (tc *TreeCount) subtreeTotal(node int) int {
	total := 0
	if tc.requests[node] {
		total = 1
	}
	for _, c := range tc.tree.Children(node) {
		total += tc.childTotal[c]
	}
	return total
}

// distribute hands out the rank block starting at base to node and its
// children's subtrees.
func (tc *TreeCount) distribute(env *sim.Env, node, base int) {
	if tc.requests[node] {
		tc.count[node] = base
		tc.delay[node] = env.Round()
		base++
	}
	for _, c := range tc.tree.Children(node) {
		t := tc.childTotal[c]
		if t <= 0 {
			continue
		}
		env.Send(node, c, sim.Message{Kind: kindDown, A: base})
		base += t
	}
}

// Deliver handles convergecast reports and rank blocks.
func (tc *TreeCount) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindUp:
		if tc.tree.Parent(m.From) != node {
			env.Fail(fmt.Errorf("counting: node %d got a report from non-child %d", node, m.From))
			return
		}
		if tc.childTotal[m.From] >= 0 {
			env.Fail(fmt.Errorf("counting: child %d reported twice to %d", m.From, node))
			return
		}
		tc.childTotal[m.From] = m.A
		tc.pendingUp[node]--
		if tc.pendingUp[node] == 0 {
			tc.reportUp(env, node)
		}
	case kindDown:
		tc.distribute(env, node, m.A)
	default:
		env.Fail(fmt.Errorf("counting: tree counter got unexpected kind %d", m.Kind))
	}
}

// Count implements Results.
func (tc *TreeCount) Count(v int) int { return tc.count[v] }

// Delay implements Results.
func (tc *TreeCount) Delay(v int) int { return tc.delay[v] }

// Requests implements Results.
func (tc *TreeCount) Requests() []bool { return tc.requests }
