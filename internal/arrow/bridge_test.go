package arrow

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/countq"
	"repro/internal/sim"
)

// newTestBridge builds a free-running arrow-queue bridge on the given
// topology.
func newTestBridge(t *testing.T, topo string, nodes int, delay sim.DelayModel) *sim.Bridge {
	t.Helper()
	b, err := sim.NewBridge(sim.BridgeConfig{
		Topo:  topo,
		Nodes: nodes,
		Queue: true,
		Proto: newBridgeCore,
		Delay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// settledSimStats reads the bridge's simulated rounds and messages once
// they have stopped moving: the pump publishes them after a round that
// granted an operation, a moment after that round's grants reach the
// sessions, and exactly once the network is idle, so a caller that reads
// straight after its grant can still see an earlier round.
func settledSimStats(b *sim.Bridge) (rounds, msgs int64) {
	rounds, msgs = b.SimStats()
	for {
		time.Sleep(100 * time.Microsecond)
		r, m := b.SimStats()
		if r == rounds && m == msgs {
			return r, m
		}
		rounds, msgs = r, m
	}
}

// TestBridgeQueueOrder drives concurrent sessions through the arrow
// bridge and checks the queuing correctness condition: all (id, pred)
// pairs form one total order behind Head. Exercised on the star (chases
// collide at the hub), the list (chases travel the diameter) and under
// jitter (chase messages reorder in flight; per-link FIFO must still
// yield one chain).
func TestBridgeQueueOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  string
		nodes int
		delay sim.DelayModel
	}{
		{"star9", "star", 9, nil},
		{"list6", "list", 6, nil},
		{"star9-jitter3", "star", 9, sim.JitterDelay{Seed: 7, Max: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBridge(t, tc.topo, tc.nodes, tc.delay)
			const workers, perWorker = 4, 32
			ids := make([][]int64, workers)
			preds := make([][]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				sess, err := b.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, sess countq.Session) {
					defer wg.Done()
					defer sess.Close()
					for i := 0; i < perWorker; i++ {
						id := int64(w*perWorker + i + 1)
						pred, err := sess.Enqueue(context.Background(), id)
						if err != nil {
							t.Error(err)
							return
						}
						ids[w] = append(ids[w], id)
						preds[w] = append(preds[w], pred)
					}
				}(w, sess)
			}
			wg.Wait()
			var allIDs, allPreds []int64
			for w := 0; w < workers; w++ {
				allIDs = append(allIDs, ids[w]...)
				allPreds = append(allPreds, preds[w]...)
			}
			if len(allIDs) != workers*perWorker {
				t.Fatalf("completed %d ops, want %d", len(allIDs), workers*perWorker)
			}
			if err := countq.ValidateOrder(allIDs, allPreds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBridgeQueueLocalTail checks the protocol's fast path: consecutive
// operations from one session find the tail locally after the first chase
// — the ordering point migrated to the requester, so no further messages
// are needed while it holds the tail.
func TestBridgeQueueLocalTail(t *testing.T) {
	b := newTestBridge(t, "star", 9, nil)
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	// First op chases to the initial tail holder (the root).
	if pred, err := sess.Enqueue(ctx, 1); err != nil || pred != countq.Head {
		t.Fatalf("first enqueue: pred=%d err=%v, want Head", pred, err)
	}
	_, msgsAfterFirst := settledSimStats(b)
	// Subsequent ops from the same node hold the tail: predecessor chains
	// locally and no protocol message is sent.
	for i := int64(2); i <= 10; i++ {
		pred, err := sess.Enqueue(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if pred != i-1 {
			t.Fatalf("op %d: pred=%d, want %d (local tail chain)", i, pred, i-1)
		}
	}
	if _, msgs := settledSimStats(b); msgs != msgsAfterFirst {
		t.Errorf("local-tail ops sent %d messages, want 0 (fast path routes nothing)", msgs-msgsAfterFirst)
	}
}

// TestBridgeQueueSimStats checks the bridge reports simulated rounds
// alongside wall latency: a chase over the list topology's diameter costs
// at least that many rounds.
func TestBridgeQueueSimStats(t *testing.T) {
	b := newTestBridge(t, "list", 8, nil)
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Enqueue(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	rounds, msgs := settledSimStats(b)
	if rounds < 1 || msgs < 1 {
		t.Errorf("SimStats = (%d rounds, %d msgs) after a routed op, want both ≥ 1", rounds, msgs)
	}
}
