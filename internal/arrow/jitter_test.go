package arrow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

func TestOneShotUnderJitterOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
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
		req := make([]bool, n)
		for i := range req {
			req[i] = rng.Intn(2) == 0
		}
		cfg := sim.Config{Delay: sim.JitterDelay{Seed: seed, Max: 1 + rng.Intn(6)}}
		res, err := RunOneShotConfig(g, tr, rng.Intn(n), req, cfg)
		if err != nil {
			return false
		}
		want := 0
		for _, r := range req {
			if r {
				want++
			}
		}
		return len(res.Order) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJitterSlowsButPreservesTotalOrderSemantics(t *testing.T) {
	g, tr := pathSetup(t, 24)
	req := reqAll(24)
	unit, err := RunOneShot(g, tr, 0, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := RunOneShotConfig(g, tr, 0, req, sim.Config{Delay: sim.JitterDelay{Seed: 2, Max: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if jit.TotalDelay < unit.TotalDelay {
		t.Errorf("jitter total %d below unit-delay total %d", jit.TotalDelay, unit.TotalDelay)
	}
	if len(jit.Order) != len(unit.Order) {
		t.Errorf("order sizes differ: %d vs %d", len(jit.Order), len(unit.Order))
	}
}
