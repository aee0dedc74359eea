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

// scheduledCentral runs sim.Central offline from an arrival schedule, each
// operation under its index in the arrival slice — the form production code
// has no use for (counting.Central is one-shot, the bridge is live), and the
// only way to reach the core's queue mode without a bridge.
type scheduledCentral struct {
	core  sim.Central
	sched sim.Schedule
	queue bool
	env   *sim.Env
	value []int64 // per op: granted count, or predecessor id
	done  []int   // per op: completion round
}

func newScheduledCentral(t *testing.T, tr *tree.Tree, queue bool, arrivals []sim.Arrival) *scheduledCentral {
	t.Helper()
	p := &scheduledCentral{queue: queue, value: make([]int64, len(arrivals)), done: make([]int, len(arrivals))}
	p.core = sim.NewCentral(tr, queue, p, len(arrivals))
	var err error
	if p.sched, err = sim.NewSchedule(tr.N(), arrivals); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *scheduledCentral) PendingUntil() int            { return p.sched.PendingUntil() }
func (p *scheduledCentral) Start(env *sim.Env, node int) { p.Tick(env, node) }
func (p *scheduledCentral) Tick(env *sim.Env, node int) {
	p.env = env
	for _, op := range p.sched.Due(env.Round(), node) {
		o := countq.Op{Kind: countq.OpInc, N: 1}
		if p.queue {
			o = countq.Op{Kind: countq.OpEnqueue, ID: int64(op)}
		}
		p.core.Issue(env, node, op, o)
	}
}
func (p *scheduledCentral) Deliver(env *sim.Env, node int, m sim.Message) {
	p.core.Deliver(env, node, m)
}
func (p *scheduledCentral) Grant(token int, value int64) {
	p.value[token], p.done[token] = value, p.env.Round()
}

// runCentralQueue queues one operation per requesting node at time zero
// through the central core and checks the predecessors form one total order.
func runCentralQueue(t *testing.T, g *graph.Graph, tr *tree.Tree, requests []bool) (*scheduledCentral, sim.Stats) {
	t.Helper()
	var arrivals []sim.Arrival
	for v, b := range requests {
		if b {
			arrivals = append(arrivals, sim.Arrival{Node: v})
		}
	}
	p := newScheduledCentral(t, tr, true, arrivals)
	stats, err := sim.New(sim.Config{Graph: g}, p).Run()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(arrivals))
	for op := range ids {
		ids[op] = int64(op)
	}
	if err := countq.ValidateOrder(ids, p.value); err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func totalDelay(p *scheduledCentral) int {
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
