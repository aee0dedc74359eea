package sim_test

// The payoff of writing each protocol once: the live bridge and the offline
// scheduled run execute the same Issue/Deliver code, so with unit delay and
// a quiescent network between operations the bridge's simulated cost is not
// merely close to the offline number — it is that number. The test scripts
// one sequence of (node, order) operations, runs it offline from an arrival
// schedule and live as synchronous session calls, and requires the same
// granted values, the same message count, and per operation the same rounds
// up to a constant that belongs to the protocol, not the run. Shared code
// would agree with itself even when wrong, so the offline run is first held
// to the sequential specification: with the network quiescent between
// operations, op i must be queued behind op i-1, or count i+1, after exactly
// the hops the protocol's route has on the list.

import (
	"context"
	"testing"
	"time"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
)

// payoffScript is the node each scripted operation is issued at: repeats
// (arrow's local-tail fast path), near and far nodes, and returns to a node
// after the tail moved away.
var payoffScript = []int{5, 5, 2, 1, 5, 3, 3, 3, 1, 4, 2, 2, 5, 1, 1, 4, 3, 5, 2, 4}

// payoffGap spaces the offline arrivals so every operation completes before
// the next is issued, as a synchronous session's do: more than any round
// trip on the 16-node list.
const payoffGap = 64

// offlineRun is what the offline form reports for the script.
type offlineRun struct {
	value   []int64 // per op: granted count, or predecessor id
	latency []int   // per op: rounds from issue to grant
	msgs    int
}

func TestLiveBridgeEqualsOfflineRun(t *testing.T) {
	g := graph.Path(16)
	tr := mustBFS(t, g)
	arrivals := make([]sim.Arrival, len(payoffScript))
	for op, node := range payoffScript {
		arrivals[op] = sim.Arrival{Node: node, Time: op * payoffGap}
	}
	run := func(t *testing.T, p sim.Protocol, value func(op int) int64, done func(op int) int) offlineRun {
		t.Helper()
		stats, err := sim.New(sim.Config{Graph: g}, p).Run()
		if err != nil {
			t.Fatal(err)
		}
		off := offlineRun{msgs: stats.MessagesSent}
		for op, a := range arrivals {
			off.value = append(off.value, value(op))
			off.latency = append(off.latency, done(op)-a.Time)
		}
		return off
	}

	for _, tc := range []struct {
		name string
		spec string
		kind countq.Kind
		// extra is the rounds a live operation costs beyond its offline
		// latency. An operation is injected between rounds; arrow and central
		// send from Issue, so the message travels as if issued in the round
		// just ended, while the combining tree sends from the next Tick — one
		// round later than a scheduled issue, which shares its Tick.
		extra int64
		// seq is the sequential specification of op at node, given the node
		// of the operation before it (the root before the first): the value
		// granted and the hops travelled, one round and one message each.
		seq     func(op, node, prev int) (value int64, hops int)
		offline func(t *testing.T) offlineRun
	}{
		{"arrow", "sim-arrow-queue", countq.KindQueue, 0, chaseSpec, func(t *testing.T) offlineRun {
			p, err := arrow.NewLongLived(tr, tr.Root(), arrivals)
			if err != nil {
				t.Fatal(err)
			}
			return run(t, p, func(op int) int64 { return int64(p.Pred(op)) }, p.CompletedAt)
		}},
		{"combining", "sim-tree-counter", countq.KindCounter, 1, rootTripSpec, func(t *testing.T) offlineRun {
			p, err := counting.NewCombining(tr, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			return run(t, p, func(op int) int64 { return int64(p.CountOf(op)) }, p.CompletedAt)
		}},
		{"central", "sim-counter", countq.KindCounter, 0, rootTripSpec, func(t *testing.T) offlineRun {
			p := newScheduledCentral(t, tr, false, arrivals)
			return run(t, p, func(op int) int64 { return p.value[op] }, func(op int) int { return p.done[op] })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := tc.offline(t)
			prev, hopsTotal := tr.Root(), 0
			for op, node := range payoffScript {
				value, hops := tc.seq(op, node, prev)
				if off.value[op] != value || off.latency[op] != hops {
					t.Errorf("op %d at node %d: offline granted %d after %d rounds, the sequential spec says %d after %d",
						op, node, off.value[op], off.latency[op], value, hops)
				}
				prev, hopsTotal = node, hopsTotal+hops
			}
			if off.msgs != hopsTotal {
				t.Errorf("offline sent %d messages, the sequential spec says %d", off.msgs, hopsTotal)
			}

			st, err := countq.NewStructure(tc.spec+"?topo=list&nodes=16&hoplat=0", tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			br := st.(*sim.Bridge)
			defer br.Close()
			// Sessions pin round-robin to nodes 1..k in creation order.
			sessions := make([]countq.Session, 6)
			for node := 1; node < len(sessions); node++ {
				if sessions[node], err = br.NewSession(); err != nil {
					t.Fatal(err)
				}
				defer sessions[node].Close()
			}

			ctx := context.Background()
			var rounds, msgs int64
			for op, node := range payoffScript {
				var got int64
				if tc.kind == countq.KindQueue {
					got, err = sessions[node].Enqueue(ctx, int64(op))
				} else {
					got, err = sessions[node].Inc(ctx)
				}
				if err != nil {
					t.Fatalf("op %d at node %d: %v", op, node, err)
				}
				if got != off.value[op] {
					t.Errorf("op %d at node %d: live granted %d, offline %d", op, node, got, off.value[op])
				}
				r, m := settledSimStats(br)
				if r-rounds != int64(off.latency[op])+tc.extra {
					t.Errorf("op %d at node %d: live took %d rounds, offline latency %d + %d", op, node, r-rounds, off.latency[op], tc.extra)
				}
				rounds, msgs = r, m
			}
			if msgs != int64(off.msgs) {
				t.Errorf("live sent %d messages, offline %d", msgs, off.msgs)
			}
		})
	}
}

// chaseSpec is arrow's: op is queued behind the one before it, whose node
// holds the tail, after chasing there along the list.
func chaseSpec(op, node, prev int) (int64, int) {
	if node < prev {
		return int64(op - 1), prev - node
	}
	return int64(op - 1), node - prev
}

// rootTripSpec is both counters': the op-th count, after a round trip to the
// root at node 0.
func rootTripSpec(op, node, _ int) (int64, int) { return int64(op + 1), 2 * node }

// settledSimStats reads the bridge's simulated rounds and messages once they
// have stopped moving: the pump publishes them after each round, a moment
// after that round's grants reach the sessions.
func settledSimStats(br *sim.Bridge) (rounds, msgs int64) {
	rounds, msgs = br.SimStats()
	for {
		time.Sleep(100 * time.Microsecond)
		r, m := br.SimStats()
		if r == rounds && m == msgs {
			return r, m
		}
		rounds, msgs = r, m
	}
}
