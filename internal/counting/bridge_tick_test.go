package counting

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The combining core declares sim.WakeTicker, so the engine ticks it only at
// woken nodes. This test is the proof that nothing is lost by it: the same
// seeded schedule of Issues is driven through sim.Network twice, once
// ticking every node every round and once ticking woken nodes only, and
// the two runs must grant the same values to the same tokens in the same
// rounds, in as many rounds and messages.

// granted is one Grant call, stamped with the round it happened in.
type granted struct {
	round, token int
	value        int64
}

// grantLog implements sim.Grants.
type grantLog struct {
	env *sim.Env
	log []granted
}

func (g *grantLog) Grant(token int, value int64) {
	g.log = append(g.log, granted{g.env.Round(), token, value})
}

// everyTick hides the core's TicksOnWake behind a named field, which makes
// it a plain sim.Ticker: Tick at every node, every round.
type everyTick struct{ p *combiner }

func (a everyTick) Start(env *sim.Env, node int)                  { a.p.Start(env, node) }
func (a everyTick) Deliver(env *sim.Env, node int, m sim.Message) { a.p.Deliver(env, node, m) }
func (a everyTick) Tick(env *sim.Env, node int)                   { a.p.Tick(env, node) }

// driveCombiner issues a seeded random schedule — bursts of one to
// five operations of width one to three at random non-root nodes, about one
// round in three, for 300 rounds — waking each node it issues at as the
// bridge does, then steps until every token is granted.
func driveCombiner(t *testing.T, g *graph.Graph, seed int64, woken bool) ([]granted, sim.Stats) {
	t.Helper()
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	grants := &grantLog{}
	core := newCombiner(tr, grants)
	bp := &core
	var proto sim.Protocol = everyTick{bp}
	if woken {
		proto = bp
	}
	nw := sim.New(sim.Config{Graph: g}, proto)
	env := nw.Env()
	grants.env = env
	if err := nw.Begin(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	issued := 0
	for round := 0; round < 300 || len(grants.log) < issued; round++ {
		if round > 300+100*g.N() {
			t.Fatalf("%d of %d tokens granted after %d rounds", len(grants.log), issued, round)
		}
		if round < 300 && rng.Intn(3) == 0 {
			for k := rng.Intn(5) + 1; k > 0; k-- {
				node := 1 + rng.Intn(g.N()-1)
				bp.Issue(env, node, issued, countq.Op{Kind: countq.OpInc, N: int64(1 + rng.Intn(3))})
				env.Wake(node)
				issued++
			}
		}
		if err := nw.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return grants.log, nw.Stats()
}

func TestCounterBridgeWokenTicksMatchEveryTick(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path64", graph.Path(64)},
		{"star9", graph.Star(9)},
		{"mesh8x8", graph.Mesh(8, 8)},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				every, everyStats := driveCombiner(t, tc.g, seed, false)
				woken, wokenStats := driveCombiner(t, tc.g, seed, true)
				if len(every) == 0 {
					t.Fatal("schedule issued nothing")
				}
				if !reflect.DeepEqual(every, woken) {
					t.Errorf("grant logs differ: every-node ticks granted %d, woken-node ticks %d", len(every), len(woken))
				}
				if everyStats.Rounds != wokenStats.Rounds || everyStats.MessagesSent != wokenStats.MessagesSent {
					t.Errorf("every-node ticks took %d rounds and %d messages, woken-node ticks %d and %d",
						everyStats.Rounds, everyStats.MessagesSent, wokenStats.Rounds, wokenStats.MessagesSent)
				}
			})
		}
	}
}
