package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// scheduled runs any BridgeProtocol offline from an arrival schedule, the
// way the bridge's pump runs it live: each round it issues the operations
// due at a node, operation i as ops[i] under token i, then forwards Tick to
// a core that is a sim.Ticker. It is the only way to reach a core's
// scheduled form without a bridge (counting.Central is one-shot, the bridge
// is live), and it keeps the grant ledger: a grant of a token not yet
// issued, or of one already granted, fails the test, and run fails on any
// operation left ungranted.
type scheduled struct {
	t      *testing.T
	core   sim.BridgeProtocol
	ticker sim.Ticker // core's Ticker view; nil if it has none
	sched  sim.Schedule
	ops    []countq.Op
	env    *sim.Env
	issued []bool
	value  []int64 // per op: granted count, or predecessor id
	done   []int   // per op: completion round; -1 until granted
	trace  []grant // every grant, in the order the core made it
}

// grant is one ledger entry.
type grant struct {
	token int
	value int64
	round int
}

// newScheduled builds the core proto makes on (g, tr) — the central
// protocol when proto is nil — over arrivals. Nil ops issue unit counts, or
// (queue) enqueues of each operation's own index.
func newScheduled(t *testing.T, g *graph.Graph, tr *tree.Tree, proto sim.ProtoMaker, queue bool, arrivals []sim.Arrival, ops []countq.Op) *scheduled {
	t.Helper()
	if ops == nil {
		ops = make([]countq.Op, len(arrivals))
		for op := range ops {
			ops[op] = countq.Op{Kind: countq.OpInc, N: 1}
			if queue {
				ops[op] = countq.Op{Kind: countq.OpEnqueue, ID: int64(op)}
			}
		}
	}
	p := &scheduled{t: t, ops: ops, issued: make([]bool, len(ops)), value: make([]int64, len(ops)), done: make([]int, len(ops))}
	for op := range p.done {
		p.done[op] = -1
	}
	var err error
	if proto == nil {
		central := sim.NewCentral(tr, queue, p, len(ops))
		p.core = &central
	} else if p.core, err = proto(g, tr, p); err != nil {
		t.Fatal(err)
	}
	p.ticker, _ = p.core.(sim.Ticker)
	if p.sched, err = sim.NewSchedule(tr.N(), arrivals); err != nil {
		t.Fatal(err)
	}
	return p
}

// run executes the schedule to quiescence on cfg and fails the test on an
// engine error or an operation left ungranted.
func (p *scheduled) run(cfg sim.Config) sim.Stats {
	p.t.Helper()
	stats, err := sim.New(cfg, p).Run()
	if err != nil {
		p.t.Fatal(err)
	}
	for op, round := range p.done {
		if round < 0 {
			p.t.Errorf("op %d (N=%d, ID=%d) still ungranted after %d rounds", op, p.ops[op].N, p.ops[op].ID, stats.Rounds)
		}
	}
	return stats
}

func (p *scheduled) PendingUntil() int { return p.sched.PendingUntil() }

// Start seeds the core and issues the round-zero operations; round 0 has no
// Tick.
func (p *scheduled) Start(env *sim.Env, node int) {
	p.core.Start(env, node)
	p.Tick(env, node)
}

func (p *scheduled) Tick(env *sim.Env, node int) {
	p.env = env
	for _, op := range p.sched.Due(env.Round(), node) {
		p.issued[op] = true
		p.core.Issue(env, node, op, p.ops[op])
	}
	if p.ticker != nil {
		p.ticker.Tick(env, node)
	}
}

func (p *scheduled) Deliver(env *sim.Env, node int, m sim.Message) {
	p.core.Deliver(env, node, m)
}

// Grant is the ledger: a token is granted once, after it was issued.
func (p *scheduled) Grant(token int, value int64) {
	round := p.env.Round()
	switch {
	case token < 0 || token >= len(p.ops) || !p.issued[token]:
		p.t.Errorf("round %d: grant of un-issued token %d", round, token)
	case p.done[token] >= 0:
		p.t.Errorf("round %d: token %d granted again (%d; first %d in round %d)", round, token, value, p.value[token], p.done[token])
	default:
		p.value[token], p.done[token] = value, round
	}
	p.trace = append(p.trace, grant{token, value, round})
}

// runCentralQueue queues one operation per requesting node at time zero
// through the central core and checks the predecessors form one total order.
func runCentralQueue(t *testing.T, g *graph.Graph, tr *tree.Tree, requests []bool) (*scheduled, sim.Stats) {
	t.Helper()
	var arrivals []sim.Arrival
	for v, b := range requests {
		if b {
			arrivals = append(arrivals, sim.Arrival{Node: v})
		}
	}
	p := newScheduled(t, g, tr, nil, true, arrivals, nil)
	stats := p.run(sim.Config{Graph: g})
	ids := make([]int64, len(arrivals))
	for op := range ids {
		ids[op] = int64(op)
	}
	if err := countq.ValidateOrder(ids, p.value); err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func totalDelay(p *scheduled) int {
	total := 0
	for _, d := range p.done {
		total += d
	}
	return total
}

func TestCentralQueueOrder(t *testing.T) {
	g := graph.Star(8)
	p, stats := runCentralQueue(t, g, mustBFS(t, g), allRequests(8))
	if p.value[0] != countq.Head {
		t.Errorf("hub pred = %d, want Head", p.value[0])
	}
	if p.done[0] != 0 {
		t.Errorf("hub served in round %d, want 0 (it holds the tail)", p.done[0])
	}
	if stats.MessagesSent == 0 {
		t.Error("no messages")
	}
	if totalDelay(p) <= 0 {
		t.Error("no delay")
	}
}

func TestCentralQueuePropertyOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		b := graph.NewBuilder("rt", n)
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
			b.MustAddEdge(v, parent[v])
		}
		req := make([]bool, n)
		for i := range req {
			req[i] = rng.Intn(2) == 0
		}
		runCentralQueue(t, b.Build(), tree.MustFromParents(0, parent), req)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCentralQueueStarQuadratic(t *testing.T) {
	n := 33
	g := graph.Star(n)
	p, _ := runCentralQueue(t, g, mustBFS(t, g), allRequests(n))
	k := n - 1
	if total := totalDelay(p); total < k*k/2 {
		t.Errorf("star queue total = %d, want ≥ %d (serialization)", total, k*k/2)
	}
}
