package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The active-set tests hold the bitmap walks to hand-computed delivery
// orders and statistics at the sizes where a one-bit-per-node set changes
// shape: a single partial word (2, 63), exactly one word (64), one bit into
// the second (65) and into the third (129). Every scenario runs under unit
// delay (Send inserts into inboxes mid-phase) and under a constant delay of
// two (the wheel, deliverPhase and the non-unit sendPhase).

var activeSetSizes = []int{2, 63, 64, 65, 129}

// delivery is one Deliver call as the protocol saw it.
type delivery struct{ round, node, from int }

// recorder logs deliveries; its embedders decide what to send.
type recorder struct{ log []delivery }

func (r *recorder) record(env *Env, node int, m Message) {
	r.log = append(r.log, delivery{env.Round(), node, m.From})
}

// bounceProto walks one token from node 0 up a path to the far end and back
// down to node 0, where it stops.
type bounceProto struct{ recorder }

func (p *bounceProto) Start(env *Env, node int) {
	if node == 0 {
		env.Send(0, 1, Message{A: 1})
	}
}

func (p *bounceProto) Deliver(env *Env, node int, m Message) {
	p.record(env, node, m)
	dir := m.A
	if node == env.N()-1 {
		dir = -1
	}
	if node+dir >= 0 {
		env.Send(node, node+dir, Message{A: dir})
	}
}

// fanProto floods a star at time zero: in makes every leaf send to the hub,
// otherwise the hub sends to every leaf.
type fanProto struct {
	recorder
	in bool
}

func (p *fanProto) Start(env *Env, node int) {
	switch {
	case p.in && node != 0:
		env.Send(node, 0, Message{})
	case !p.in && node == 0:
		for v := 1; v < env.N(); v++ {
			env.Send(0, v, Message{})
		}
	}
}

func (p *fanProto) Deliver(env *Env, node int, m Message) { p.record(env, node, m) }

// delayModels are the two send paths, with the constant delay d each gives
// every hop.
var delayModels = []struct {
	name  string
	model DelayModel
	d     int
}{
	{"unit", nil, 1},
	{"delay2", EdgeWeightDelay{Weight: func(u, v int) int { return 2 }}, 2},
}

func checkRun(t *testing.T, got, want []delivery, gotStats, wantStats Stats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order differs:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats = %+v, want %+v", gotStats, wantStats)
	}
}

// TestActiveSetBounce: one token, Strict on (nothing ever queues). Going up,
// the node it reaches in round r is r; a hop into a later word is the one
// case where the receive phase meets a bit set under its feet, and it costs
// exactly one empty visit.
func TestActiveSetBounce(t *testing.T) {
	for _, dm := range delayModels {
		for _, n := range activeSetSizes {
			t.Run(fmt.Sprintf("%s/n=%d", dm.name, n), func(t *testing.T) {
				p := &bounceProto{}
				stats, err := New(Config{Graph: graph.Path(n), Strict: true, Delay: dm.model}, p).Run()
				if err != nil {
					t.Fatal(err)
				}
				var want []delivery
				for v := 1; v < n; v++ {
					want = append(want, delivery{dm.d * v, v, v - 1})
				}
				for v := n - 2; v >= 0; v-- {
					want = append(want, delivery{dm.d * (2*(n-1) - v), v, v + 1})
				}
				hops := 2 * (n - 1)
				visited := hops
				if dm.d == 1 {
					visited += (n - 1) / 64 // upward word crossings
				}
				checkRun(t, p.log, want, stats, Stats{Rounds: dm.d * hops, MessagesSent: hops, Visited: visited})
			})
		}
	}
}

// TestActiveSetFanIn: n-1 messages land on the hub at once and it takes
// three a round, so a backlog stands in one inbox for the whole run — the
// bit must stay set until the queue drains, and the hub is the only node
// ever visited. Strict mode names the backlog the first round leaves.
func TestActiveSetFanIn(t *testing.T) {
	const c = 3
	for _, dm := range delayModels {
		for _, n := range activeSetSizes {
			t.Run(fmt.Sprintf("%s/n=%d", dm.name, n), func(t *testing.T) {
				rounds := (n - 1 + c - 1) / c
				backlog := n - 1 - c
				if backlog < 0 {
					backlog = 0
				}
				var want []delivery
				for k := 0; k < n-1; k++ {
					want = append(want, delivery{dm.d + k/c, 0, k + 1})
				}
				p := &fanProto{in: true}
				stats, err := New(Config{Graph: graph.Star(n), Capacity: c, Delay: dm.model}, p).Run()
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, p.log, want, stats, Stats{
					Rounds: dm.d - 1 + rounds, MessagesSent: n - 1, MaxInboxBacklog: backlog, Visited: rounds,
				})

				p = &fanProto{in: true}
				stats, err = New(Config{Graph: graph.Star(n), Capacity: c, Delay: dm.model, Strict: true}, p).Run()
				if backlog == 0 {
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				wantErr := fmt.Sprintf("sim: strict violation: node 0 inbox backlog %d in round %d", backlog, dm.d)
				if err == nil || err.Error() != wantErr {
					t.Fatalf("strict error = %v, want %q", err, wantErr)
				}
				checkRun(t, p.log, want[:c], stats, Stats{
					Rounds: dm.d, MessagesSent: n - 1, MaxInboxBacklog: backlog, Visited: 1,
				})
			})
		}
	}
}

// TestActiveSetFanOut: the hub queues n-1 messages at time zero and sends
// three a round, so a backlog stands in one outbox while the arrivals sweep
// across every word of the inbox set in node order.
func TestActiveSetFanOut(t *testing.T) {
	const c = 3
	for _, dm := range delayModels {
		for _, n := range activeSetSizes {
			t.Run(fmt.Sprintf("%s/n=%d", dm.name, n), func(t *testing.T) {
				rounds := (n - 1 + c - 1) / c
				backlog := n - 1 - c
				if backlog < 0 {
					backlog = 0
				}
				var want []delivery
				for v := 1; v < n; v++ {
					want = append(want, delivery{dm.d + (v-1)/c, v, 0})
				}
				p := &fanProto{}
				stats, err := New(Config{Graph: graph.Star(n), Capacity: c, Delay: dm.model}, p).Run()
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, p.log, want, stats, Stats{
					Rounds: dm.d - 1 + rounds, MessagesSent: n - 1, MaxOutboxBacklog: backlog, Visited: n - 1,
				})

				p = &fanProto{}
				_, err = New(Config{Graph: graph.Star(n), Capacity: c, Delay: dm.model, Strict: true}, p).Run()
				if backlog == 0 {
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				wantErr := fmt.Sprintf("sim: strict violation: node 0 outbox backlog %d in round 0", backlog)
				if err == nil || err.Error() != wantErr {
					t.Fatalf("strict error = %v, want %q", err, wantErr)
				}
			})
		}
	}
}

// walkTokens walks eight tokens up and down a path, turning at the ends.
type walkTokens struct{}

func (walkTokens) Start(env *Env, node int) {
	for k := 1; k <= 8; k++ {
		if node == k*env.N()/9 {
			env.Send(node, node+1, Message{A: 1})
		}
	}
}

func (walkTokens) Deliver(env *Env, node int, m Message) {
	dir := m.A
	if next := node + dir; next < 0 || next >= env.N() {
		dir = -dir
	}
	env.Send(node, node+dir, Message{A: dir})
}

// TestStepVisitsWhatItCarries checks the engine's scaling by a count, not a
// timer: eight tokens on a 4096-node path deliver eight messages a round,
// and the receive phase may look at no more than two nodes per message —
// the receiver, and once in 64 hops a next-round arrival in a later word —
// however many nodes sit idle.
func TestStepVisitsWhatItCarries(t *testing.T) {
	const n, rounds = 4096, 10000
	nw := New(Config{Graph: graph.Path(n), TrackPerNode: true}, walkTokens{})
	if err := nw.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := nw.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stats := nw.Stats()
	delivered := 0
	for _, r := range stats.Received {
		delivered += r
	}
	// Eight a round, less the rounds two tokens spend queued at one node.
	if delivered < 7*rounds || delivered > 8*rounds {
		t.Fatalf("delivered %d messages in %d rounds, want about %d", delivered, rounds, 8*rounds)
	}
	if stats.Visited < delivered || stats.Visited > 2*delivered {
		t.Errorf("receive phase visited %d nodes for %d deliveries, want within [1, 2] per delivery", stats.Visited, delivered)
	}
}

// tick is one Tick call.
type tick struct{ round, node int }

// tickLog is bounceProto with a Tick that logs, and re-wakes its own node
// while rearm[node] lasts.
type tickLog struct {
	bounceProto
	ticks []tick
	rearm map[int]int
}

func (p *tickLog) Tick(env *Env, node int) {
	p.ticks = append(p.ticks, tick{env.Round(), node})
	if p.rearm[node] > 0 {
		p.rearm[node]--
		env.Wake(node)
	}
}

// wakeTickLog is tickLog declared idle at untouched nodes.
type wakeTickLog struct{ tickLog }

func (*wakeTickLog) TicksOnWake() {}

// TestPlainTickerTicksEveryNode: the every-node contract survives the wake
// set — n ticks a round in node order, none past n in a partial last word,
// and Env.Wake changes nothing.
func TestPlainTickerTicksEveryNode(t *testing.T) {
	for _, n := range activeSetSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := &tickLog{}
			nw := New(Config{Graph: graph.Path(n)}, p)
			nw.Env().Wake(n - 1)
			stats, err := nw.Run()
			if err != nil {
				t.Fatal(err)
			}
			var want []tick
			for r := 1; r <= stats.Rounds; r++ {
				for v := 0; v < n; v++ {
					want = append(want, tick{r, v})
				}
			}
			if !reflect.DeepEqual(p.ticks, want) {
				t.Errorf("ticks differ from every node of every round (%d ticks, want %d)", len(p.ticks), len(want))
			}
		})
	}
}

// TestWakeTickerTicksTouchedNodes: a WakeTicker is ticked at the node that
// had a Deliver this round and at nodes woken through Env.Wake — once, in
// node order — and a Wake from inside a Tick lands in the next pass.
func TestWakeTickerTicksTouchedNodes(t *testing.T) {
	for _, n := range activeSetSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := &wakeTickLog{tickLog{rearm: map[int]int{n - 1: 2}}}
			nw := New(Config{Graph: graph.Path(n)}, p)
			if err := nw.Begin(); err != nil {
				t.Fatal(err)
			}
			nw.Env().Wake(n - 1) // before round 1: no Deliver there yet (or, at n=2, a second reason)
			for !nw.Quiescent() {
				if err := nw.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// The token's own path: node r in round r going up, then back down.
			byRound := map[int][]int{}
			for v := 1; v < n; v++ {
				byRound[v] = append(byRound[v], v)
			}
			for v := n - 2; v >= 0; v-- {
				r := 2*(n-1) - v
				byRound[r] = append(byRound[r], v)
			}
			// The woken far end ticks in round 1 and re-arms itself twice.
			for r := 1; r <= 3; r++ {
				if r != n-1 { // in round n-1 the token's Deliver already ticks it
					byRound[r] = append(byRound[r], n-1)
				}
			}
			var want []tick
			for r := 1; r <= 2*(n-1); r++ {
				for _, v := range byRound[r] {
					want = append(want, tick{r, v})
				}
			}
			if !reflect.DeepEqual(p.ticks, want) {
				t.Errorf("ticks differ:\n got %v\nwant %v", p.ticks, want)
			}
		})
	}
}
