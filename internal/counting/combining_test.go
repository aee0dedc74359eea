package counting

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

func runCombining(t *testing.T, g *graph.Graph, tr *tree.Tree, reqs []Request) *Combining {
	t.Helper()
	c, err := NewCombining(tr, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Graph: g}, c).Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCombiningSingleOpAtRoot(t *testing.T) {
	g := graph.Path(4)
	tr := identityPathTree(t, 4)
	c := runCombining(t, g, tr, []Request{{Node: 0, Time: 0}})
	if c.CountOf(0) != 1 || c.Latency(0) != 0 {
		t.Errorf("root op: count=%d latency=%d", c.CountOf(0), c.Latency(0))
	}
}

func TestCombiningSingleOpAtLeaf(t *testing.T) {
	g := graph.Path(5)
	tr := identityPathTree(t, 5)
	c := runCombining(t, g, tr, []Request{{Node: 4, Time: 0}})
	// Round trip to the root: 4 up + 4 down.
	if c.Latency(0) != 8 {
		t.Errorf("leaf latency = %d, want 8", c.Latency(0))
	}
}

func TestCombiningBurstCombines(t *testing.T) {
	// All ops at one leaf in one round: they travel as ONE message pair.
	g := graph.Path(5)
	tr := identityPathTree(t, 5)
	reqs := []Request{{Node: 4}, {Node: 4}, {Node: 4}, {Node: 4}}
	c, err := NewCombining(tr, reqs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.New(sim.Config{Graph: g}, c).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 hops up + 4 hops down = 8 messages for all four ops together.
	if stats.MessagesSent != 8 {
		t.Errorf("messages = %d, want 8 (combining)", stats.MessagesSent)
	}
	// Counts arrive in issue order at the leaf.
	for op := 0; op < 4; op++ {
		if c.CountOf(op) != op+1 {
			t.Errorf("count(op%d) = %d, want %d", op, c.CountOf(op), op+1)
		}
	}
}

func TestCombiningPipelinesAcrossBatches(t *testing.T) {
	// A second wave issued while the first is in flight must still be
	// served (flush on grant return).
	g := graph.Path(6)
	tr := identityPathTree(t, 6)
	var reqs []Request
	for wave := 0; wave < 4; wave++ {
		for k := 0; k < 3; k++ {
			reqs = append(reqs, Request{Node: 5, Time: wave * 2})
		}
	}
	c := runCombining(t, g, tr, reqs)
	if c.TotalLatency() <= 0 {
		t.Error("no latency recorded")
	}
}

func TestCombiningMultiNodeAllTimeZero(t *testing.T) {
	g := graph.PerfectMAryTree(2, 5)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for v := 0; v < g.N(); v++ {
		reqs = append(reqs, Request{Node: v, Time: 0})
	}
	c := runCombining(t, g, tr, reqs)
	if c.TotalLatency() <= 0 {
		t.Error("no latency")
	}
}

func TestCombiningValidation(t *testing.T) {
	tr := identityPathTree(t, 4)
	if _, err := NewCombining(tr, []Request{{Node: 7, Time: 0}}); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := NewCombining(tr, []Request{{Node: 1, Time: -1}}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestCombiningPropertyValidCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr := tree.MustFromParents(0, parent)
		b := graph.NewBuilder("rt", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, parent[v])
		}
		g := b.Build()
		var reqs []Request
		for k := 0; k < rng.Intn(40); k++ {
			reqs = append(reqs, Request{Node: rng.Intn(n), Time: rng.Intn(25)})
		}
		c, err := NewCombining(tr, reqs)
		if err != nil {
			return false
		}
		if _, err := sim.New(sim.Config{Graph: g}, c).Run(); err != nil {
			return false
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCombiningUnderJitter(t *testing.T) {
	g := graph.Mesh(4, 4)
	tr, err := tree.BFSTree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var reqs []Request
	for k := 0; k < 25; k++ {
		reqs = append(reqs, Request{Node: rng.Intn(16), Time: rng.Intn(20)})
	}
	c, err := NewCombining(tr, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Graph: g, Delay: sim.JitterDelay{Seed: 8, Max: 4}}
	if _, err := sim.New(cfg, c).Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}
