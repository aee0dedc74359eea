package sim_test

// The engine-v2 zero-allocation gates, mirroring countq/alloc_test.go:
// an exact malloc count over Network.Step and over the bridge's
// submit/complete paths. Every buffer the engine and bridge use — wheel
// buckets, inbox/outbox queues, the grant table's slot slice, the
// session's reply channel — is grown during warmup, so the measured
// window sees only steady-state reuse. The count reads global malloc
// counters, so the pump goroutine's per-op work is inside the gate too:
// a pass proves the whole op path allocation-free, not just the caller's
// half.

import (
	"context"
	"runtime"
	"testing"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
)

// stepEcho saturates a star: every leaf pings the hub each
// round, the hub echoes — a full-contention star with 2(n-1) messages per
// round and no termination.
type stepEcho struct{ hub int }

func (p stepEcho) Start(env *sim.Env, node int) {
	if node != p.hub {
		env.Send(node, p.hub, sim.Message{Kind: 1})
	}
}

func (p stepEcho) Deliver(env *sim.Env, node int, m sim.Message) {
	env.Send(node, m.From, sim.Message{Kind: 1})
}

// allocsPerOp is testing.AllocsPerRun without its integer floor: at
// GOMAXPROCS(1), after one warm-up call, the exact malloc count over runs
// calls of body, divided as floats.
func allocsPerOp(runs int, body func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// gate runs body under allocsPerOp and fails on any allocation.
func gate(t *testing.T, name string, runs int, body func()) {
	t.Helper()
	if avg := allocsPerOp(runs, body); avg != 0 {
		t.Errorf("%s: %.5f allocs/op in steady state, want 0", name, avg)
	}
}

// TestStepAllocFree gates Network.Step at zero steady-state allocations,
// under unit delay (direct-delivery fast path) and under jitter (the
// timing-wheel path, whose buckets must recycle).
func TestStepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay sim.DelayModel
	}{
		{"unit", nil},
		{"jitter3", sim.JitterDelay{Seed: 1, Max: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 9
			nw := sim.New(sim.Config{Graph: graph.Star(n), Capacity: n - 1, Delay: tc.delay}, stepEcho{hub: 0})
			if err := nw.Begin(); err != nil {
				t.Fatal(err)
			}
			// Warmup: grow the wheel, every queue and every bucket to the
			// workload's high-water mark (under jitter the last bucket
			// growth lands after a few hundred rounds).
			for i := 0; i < 4096; i++ {
				if err := nw.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			gate(t, "Network.Step/"+tc.name, 4096, func() {
				if err := nw.Step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
		})
	}
}

// TestBridgeOpAllocFree gates the bridge's per-op paths: the synchronous
// round trip (reply-channel reuse), the batch grant, and the async
// submit/complete pipeline. The pump's issue → route → grant work runs
// inside the measured window.
func TestBridgeOpAllocFree(t *testing.T) {
	b, err := sim.NewBridge(sim.BridgeConfig{HopLat: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Warmup: grow the grant table, wheel and queues.
	for i := 0; i < 32; i++ {
		if _, err := sess.Inc(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var opErr error
	gate(t, "bridge.Inc", 4096, func() {
		if _, err := sess.Inc(ctx); err != nil {
			opErr = err
		}
	})
	bs := sess.(countq.BatchSession)
	gate(t, "bridge.IncN", 4096, func() {
		if _, err := bs.IncN(ctx, 8); err != nil {
			opErr = err
		}
	})
	as := sess.(countq.AsyncSession)
	// Prime the async path (first Submit may grow pump-side state for the
	// pipelined shape), then gate a submit+reap cycle.
	for i := 0; i < 32; i++ {
		if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
			t.Fatal(err)
		}
		<-as.Completions()
	}
	gate(t, "bridge.Submit+reap", 4096, func() {
		if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
			opErr = err
		}
		c := <-as.Completions()
		if c.Err != nil {
			opErr = c.Err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
}

// idle is the trivial protocol: no messages, quiescent at once.
type idle struct{}

func (idle) Start(*sim.Env, int)                {}
func (idle) Deliver(*sim.Env, int, sim.Message) {}

// TestOneShotWarmAllocs gates what a one-shot run costs beyond its messages:
// once one run has grown a scratch, the next allocates the Network and the
// protocol's own per-run state, nothing per node and nothing per message.
// The ceilings are exact counts — central: Network, protocol, request copy,
// count, delay, origin table, result, Validate's seen set; treecount:
// Network, protocol, request copy, one column array, result, seen set;
// arrow: Network, protocol, request copy, pred, delay, link, lastID, the
// successor table and the order it yields, result.
func TestOneShotWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	g := graph.Path(256)
	tr := mustBFS(t, g)
	req := allRequests(256)
	list64 := graph.Path(64)
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"sim.Run/idle/list64", 1, func() error {
			_, err := sim.Run(sim.Config{Graph: list64}, idle{})
			return err
		}},
		{"central/list256", 8, func() error {
			p, err := counting.NewCentral(tr, req)
			if err != nil {
				return err
			}
			_, err = counting.Run(g, p, 1)
			return err
		}},
		{"treecount/list256", 6, func() error {
			p, err := counting.NewTreeCount(tr, req)
			if err != nil {
				return err
			}
			_, err = counting.Run(g, p, 1)
			return err
		}},
		{"arrow/list256", 10, func() error {
			_, err := arrow.RunOneShot(g, tr, tr.Root(), req, 1)
			return err
		}},
	} {
		var runErr error
		body := func() {
			if err := tc.run(); err != nil {
				runErr = err
			}
		}
		// AllocsPerRun's own unmeasured first call is the warm-up that grows
		// the scratch the measured runs inherit.
		if avg := testing.AllocsPerRun(20, body); avg > tc.ceiling {
			t.Errorf("%s: %.2f allocs per warm run, want at most %.0f", tc.name, avg, tc.ceiling)
		}
		if runErr != nil {
			t.Fatalf("%s: %v", tc.name, runErr)
		}
	}
}
