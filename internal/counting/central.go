package counting

import (
	"fmt"

	"repro/countq"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Central is the naive counting protocol, one-shot: every request is routed
// over a spanning tree to a central node, which assigns consecutive counts
// and routes a grant back. On the star graph this realizes the Θ(n²)
// behavior discussed in the paper's conclusions; on low-congestion trees it
// is bottlenecked by the root's receive capacity. The state machine is
// sim.Central, the one the bridge routes live as sim-counter; this type
// issues the request set at time zero, each operation under its node id, and
// records the grants.
type Central struct {
	// Embedded for its Deliver, which is not free: the engine's call
	// through sim.Protocol lands in a compiler-generated wrapper that calls
	// the promoted method, one extra call per delivery (≈ 3 % of
	// BenchmarkOneShot/central-list256).
	sim.Central
	env      *sim.Env
	requests []bool

	count []int
	delay []int
}

// NewCentral prepares a central-counter run on spanning tree t; the counter
// lives at the tree root.
func NewCentral(t *tree.Tree, requests []bool) (*Central, error) {
	if len(requests) != t.N() {
		return nil, fmt.Errorf("counting: request vector has %d entries, want %d", len(requests), t.N())
	}
	c := &Central{
		requests: append([]bool(nil), requests...),
		count:    make([]int, t.N()),
		delay:    make([]int, t.N()),
	}
	c.Central = sim.NewCentral(t, false, c, t.N())
	for i := range c.delay {
		c.delay[i] = -1
	}
	return c, nil
}

// Start issues node's counting operation at time zero.
func (c *Central) Start(env *sim.Env, node int) {
	c.env = env
	if c.requests[node] {
		c.Issue(env, node, node, countq.Op{Kind: countq.OpInc})
	}
}

// Grant implements sim.Grants: node token received its count.
func (c *Central) Grant(token int, value int64) {
	c.count[token] = int(value)
	c.delay[token] = c.env.Round()
}

// Count implements Results.
func (c *Central) Count(v int) int { return c.count[v] }

// Delay implements Results.
func (c *Central) Delay(v int) int { return c.delay[v] }

// Requests implements Results.
func (c *Central) Requests() []bool { return c.requests }
