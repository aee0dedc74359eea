package repro_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/nntsp"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// --- One benchmark per experiment table (E1–E12). Each bench runs the
// experiment exactly as the harness does (quick sizes so the full bench
// suite stays fast); the experiment functions validate the paper's
// invariants internally and fail the benchmark on any violation. -----------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec := core.Lookup(id)
	if spec == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(core.Config{Quick: true, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1CountingLowerBound(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2DiameterLowerBound(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3ArrowVsNNTSP(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4ListNNTSP(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5TreeNNTSP(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6HamiltonGraphs(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7MAryTrees(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8HighDiameter(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Star(b *testing.B)               { benchExperiment(b, "E9") }
func BenchmarkE10Fig1Semantics(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11SharedMemory(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Ablations(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13LongLived(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14AsyncLinks(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15WorstCase(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16Addition(b *testing.B)          { benchExperiment(b, "E16") }

// --- Protocol micro-benchmarks: the building blocks at fixed sizes. -------

func allReq(n int) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = true
	}
	return r
}

func BenchmarkArrowOneShot(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
		mk   func() *tree.Tree
	}{
		{"list256", graph.Path(256), func() *tree.Tree {
			order := make([]int, 256)
			for i := range order {
				order[i] = i
			}
			t, _ := tree.PathTree(order)
			return t
		}},
		{"hypercube8", graph.Hypercube(8), func() *tree.Tree {
			t, _ := tree.PathTree(graph.HypercubeHamiltonPath(8))
			return t
		}},
		{"binary255", graph.PerfectMAryTree(2, 8), func() *tree.Tree {
			t, _ := tree.BFSTree(graph.PerfectMAryTree(2, 8), 0)
			return t
		}},
	}
	for _, c := range cases {
		tr := c.mk()
		req := allReq(c.g.N())
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arrow.RunOneShot(c.g, tr, tr.Root(), req, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTreeCount(b *testing.B) {
	for _, side := range []int{8, 16} {
		g := graph.Mesh(side, side)
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		req := allReq(g.N())
		b.Run(fmt.Sprintf("mesh%dx%d", side, side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc, err := counting.NewTreeCount(tr, req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := counting.Run(g, tc, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneShot prices a whole one-shot simulation — protocol state,
// engine, run, validation — per protocol on the high-diameter list and the
// high-contention star. One untimed run grows the engine buffers the timed
// ones inherit, so allocs/op is what a run costs beyond its messages even at
// -benchtime 1x; CI holds central/list256 to a ceiling.
func BenchmarkOneShot(b *testing.B) {
	for _, topo := range []struct {
		name string
		g    *graph.Graph
	}{{"list256", graph.Path(256)}, {"star64", graph.Star(64)}} {
		g := topo.g
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		req := allReq(g.N())
		for _, p := range []struct {
			name string
			run  func() error
		}{
			{"arrow", func() error {
				_, err := arrow.RunOneShot(g, tr, tr.Root(), req, 1)
				return err
			}},
			{"treecount", func() error {
				tc, err := counting.NewTreeCount(tr, req)
				if err != nil {
					return err
				}
				_, err = counting.Run(g, tc, 1)
				return err
			}},
			{"central", func() error {
				c, err := counting.NewCentral(tr, req)
				if err != nil {
					return err
				}
				_, err = counting.Run(g, c, 1)
				return err
			}},
		} {
			b.Run(p.name+"/"+topo.name, func(b *testing.B) {
				b.ReportAllocs()
				if err := p.run(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCountingNetwork(b *testing.B) {
	g := graph.Complete(64)
	parent := make([]int, 64)
	for v := 1; v < 64; v++ {
		parent[v] = (v - 1) / 2
	}
	tr := tree.MustFromParents(0, parent)
	req := allReq(64)
	for _, w := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cn, err := counting.NewCountNet(tr, req, w, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := counting.Run(g, cn, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNNTSP(b *testing.B) {
	order := make([]int, 1024)
	for i := range order {
		order[i] = i
	}
	list, err := tree.PathTree(order)
	if err != nil {
		b.Fatal(err)
	}
	binary := tree.Perfect(2, 10)
	reqsOf := func(n int) []int {
		var reqs []int
		for v := 0; v < n; v += 2 {
			reqs = append(reqs, v)
		}
		return reqs
	}
	b.Run("list1024", func(b *testing.B) {
		reqs := reqsOf(1024)
		for i := 0; i < b.N; i++ {
			if _, err := nntsp.Greedy(list, reqs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary1023", func(b *testing.B) {
		reqs := reqsOf(binary.N())
		for i := 0; i < b.N; i++ {
			if _, err := nntsp.Greedy(binary, reqs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBitonicQuiescent(b *testing.B) {
	for _, w := range []int{8, 32} {
		bn, err := counting.Bitonic(w)
		if err != nil {
			b.Fatal(err)
		}
		in := make([]int, w)
		for i := range in {
			in[i] = 16
		}
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bn.Quiescent(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Shared-memory structures under real parallelism (RunParallel). -------
// The rosters come from the countq registry (populated by importing
// internal/shm), so every newly registered implementation is benchmarked
// without touching this file.

func BenchmarkShmCounters(b *testing.B) {
	for _, info := range shm.SyncStructures(countq.KindCounter) {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			c, err := countq.NewCounter(info.Name)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Inc()
				}
			})
		})
	}
}

// tunableSpecs are the canonical non-default parameterizations swept by
// the benchmarks and by TestBenchJSON, shared with E11 and enforced
// complete (and free of stale names) by internal/shm's registry
// round-trip test — so the recorded numbers trace a perf surface over the
// coordination knobs instead of a single default point.
var tunableSpecs = shm.VariantSpecs()

// BenchmarkShmCounterTunables sweeps the declared tunables of every
// parameterized counter via the public spec API.
func BenchmarkShmCounterTunables(b *testing.B) {
	for _, info := range shm.SyncStructures(countq.KindCounter) {
		for _, spec := range tunableSpecs[info.Name] {
			spec := spec
			b.Run(spec, func(b *testing.B) {
				c, err := countq.NewCounter(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						c.Inc()
					}
				})
			})
		}
	}
}

// BenchmarkShmCounterBatch measures the IncN batching escape hatch on the
// counters that grant blocks in one coordination round.
func BenchmarkShmCounterBatch(b *testing.B) {
	for _, name := range []string{"atomic", "mutex", "sharded"} {
		name := name
		for _, n := range []int64{16, 256} {
			n := n
			b.Run(fmt.Sprintf("%s/n%d", name, n), func(b *testing.B) {
				st, err := countq.NewStructure(name, countq.KindCounter)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				b.RunParallel(func(pb *testing.PB) {
					sess, err := st.NewSession()
					if err != nil {
						b.Error(err)
						return
					}
					defer sess.Close()
					bs, ok := sess.(countq.BatchSession)
					if !ok {
						b.Errorf("%s sessions do not implement BatchSession", name)
						return
					}
					for pb.Next() {
						if _, err := bs.IncN(ctx, n); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkSessionCounters measures the session layer's overhead over the
// direct-call view: each parallel worker drives one Session (sharded's
// private lease included) through the context-taking API.
func BenchmarkSessionCounters(b *testing.B) {
	for _, name := range []string{"atomic", "sharded", "async-funnel"} {
		name := name
		st, err := countq.NewStructure(name, countq.KindCounter)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			b.RunParallel(func(pb *testing.PB) {
				sess, err := st.NewSession()
				if err != nil {
					b.Error(err)
					return
				}
				defer sess.Close()
				for pb.Next() {
					if _, err := sess.Inc(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSimBridge measures the bridge's free-running round trip — the
// simulation and pump overhead with hop latency taken out — synchronously
// and through an 8-deep async pipeline.
func BenchmarkSimBridge(b *testing.B) {
	for _, bc := range []struct {
		name     string
		inflight int
	}{{"sync", 0}, {"inflight8", 8}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			st, err := countq.NewStructure("sim-counter?hoplat=0", countq.KindCounter)
			if err != nil {
				b.Fatal(err)
			}
			defer st.(io.Closer).Close()
			sess, err := st.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			if bc.inflight == 0 {
				for i := 0; i < b.N; i++ {
					if _, err := sess.Inc(ctx); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			as := sess.(countq.AsyncSession)
			outstanding := 0
			for i := 0; i < b.N; i++ {
				for outstanding >= bc.inflight {
					if c := <-as.Completions(); c.Err != nil {
						b.Fatal(c.Err)
					}
					outstanding--
				}
				if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
					b.Fatal(err)
				}
				outstanding++
			}
			for outstanding > 0 {
				if c := <-as.Completions(); c.Err != nil {
					b.Fatal(c.Err)
				}
				outstanding--
			}
		})
	}
}

// grantAtIssueProto grants every operation the moment Issue runs, routing
// zero messages — a round trip through it exercises only the bridge
// transport: submit-lane push, pump lane sweep, grant-ring (or completion
// buffer) return and the session's spin-then-park wait. BenchmarkSimBridge
// minus this is the cost of the protocol's simulated rounds; this alone is
// the transport floor the ring rewrite is gated on, and it must stay at
// 0 B/op.
type grantAtIssueProto struct {
	grants sim.Grants
	next   int64
}

func (p *grantAtIssueProto) Start(*sim.Env, int) {}

func (p *grantAtIssueProto) Issue(env *sim.Env, node int, token int, op countq.Op) {
	p.next++
	p.grants.Grant(token, p.next)
}

func (p *grantAtIssueProto) Deliver(*sim.Env, int, sim.Message) {}

// BenchmarkBridgeTransport measures the bridge transport in isolation —
// the protocol grants at Issue, so no simulated message ever travels —
// synchronously and through an 8-deep async pipeline.
func BenchmarkBridgeTransport(b *testing.B) {
	for _, bc := range []struct {
		name     string
		inflight int
	}{{"sync", 0}, {"inflight8", 8}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			br, err := sim.NewBridge(sim.BridgeConfig{
				HopLat: 0,
				Proto: func(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
					return &grantAtIssueProto{grants: grants}, nil
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer br.Close()
			sess, err := br.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			if bc.inflight == 0 {
				// Warm the lane, grant ring and park/wake state so the
				// steady state is what gets timed.
				for i := 0; i < 64; i++ {
					if _, err := sess.Inc(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Inc(ctx); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			as := sess.(countq.AsyncSession)
			for i := 0; i < 64; i++ {
				if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
					b.Fatal(err)
				}
				if c := <-as.Completions(); c.Err != nil {
					b.Fatal(c.Err)
				}
			}
			b.ResetTimer()
			outstanding := 0
			for i := 0; i < b.N; i++ {
				for outstanding >= bc.inflight {
					if c := <-as.Completions(); c.Err != nil {
						b.Fatal(c.Err)
					}
					outstanding--
				}
				if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
					b.Fatal(err)
				}
				outstanding++
			}
			for outstanding > 0 {
				if c := <-as.Completions(); c.Err != nil {
					b.Fatal(c.Err)
				}
				outstanding--
			}
		})
	}
}

// echoProto saturates a star: the hub echoes every message back to its
// sender and each leaf immediately re-requests, so every round moves
// 2*(n-1) messages through the engine's deliver/receive/send machinery
// with no protocol logic on top. The Step loop it drives is the engine's
// scheduling-and-queueing floor — the number the engine-v2 rewrite is
// gated on (rounds/sec and msgs/sec at zero hop latency).
type echoProto struct{ hub int }

func (p echoProto) Start(env *sim.Env, node int) {
	if node != p.hub {
		env.Send(node, p.hub, sim.Message{From: node, To: p.hub, Kind: 1})
	}
}

func (p echoProto) Deliver(env *sim.Env, node int, m sim.Message) {
	env.Send(node, m.From, sim.Message{From: node, To: m.From, Kind: 1})
}

// walkProto walks eight tokens up and down a path, turning at the ends —
// the message load of eight pipelined requesters on a list, with no
// protocol logic on top. Eight messages move per round whatever the path's
// length, so ns/round at two sizes shows whether a round costs what it
// carries or what the network holds. A is the token's direction.
type walkProto struct{}

func (walkProto) Start(env *sim.Env, node int) {
	for k := 1; k <= 8; k++ {
		if node == k*env.N()/9 {
			env.Send(node, node+1, sim.Message{Kind: 1, A: 1})
		}
	}
}

func (walkProto) Deliver(env *sim.Env, node int, m sim.Message) {
	dir := m.A
	if next := node + dir; next < 0 || next >= env.N() {
		dir = -dir
	}
	env.Send(node, node+dir, sim.Message{Kind: 1, A: dir})
}

func BenchmarkSimEngineStep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		g     *graph.Graph
		proto sim.Protocol
		cap   int
		msgs  int // messages moved per round
		delay sim.DelayModel
	}{
		{"star9-unit", graph.Star(9), echoProto{hub: 0}, 8, 16, nil},
		{"star9-jitter3", graph.Star(9), echoProto{hub: 0}, 8, 16, sim.JitterDelay{Seed: 1, Max: 3}},
		{"star33-unit", graph.Star(33), echoProto{hub: 0}, 32, 64, nil},
		{"list64-sparse8", graph.Path(64), walkProto{}, 1, 8, nil},
		{"list4096-sparse8", graph.Path(4096), walkProto{}, 1, 8, nil},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			nw := sim.New(sim.Config{Graph: bc.g, Capacity: bc.cap, Delay: bc.delay}, bc.proto)
			if err := nw.Begin(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nw.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "rounds/sec")
				b.ReportMetric(float64(bc.msgs)*float64(b.N)/secs, "msgs/sec")
			}
		})
	}
}

func BenchmarkShmLocks(b *testing.B) {
	b.Run("clh", func(b *testing.B) {
		l := shm.NewCLHLock()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h := l.Lock()
				l.Unlock(h)
			}
		})
	})
	b.Run("mcs", func(b *testing.B) {
		l := shm.NewMCSLock()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h := l.Lock()
				l.Unlock(h)
			}
		})
	})
}

func BenchmarkShmQueuers(b *testing.B) {
	for _, info := range shm.SyncStructures(countq.KindQueue) {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			q, err := countq.NewQueue(info.Name)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				id := int64(0)
				for pb.Next() {
					q.Enqueue(id)
					id++
				}
			})
		})
	}
}

// BenchmarkValidate prices the post-run pass countq.Run makes over its
// evidence, per entry at k = 1<<20 (well past the caches): the singles
// path of the counts check, its block-grant path, and the order check —
// each over evidence stored in grant order and in shuffled order, which
// is how concurrent workers leave it. ci.yml greps the rows and holds the
// order check to four allocations.
func BenchmarkValidate(b *testing.B) {
	const k = 1 << 20
	type evidence struct {
		counts     []int64 // a permutation of 1..k
		singles    []int64 // with blocks, a tiling of 1..5k/2: k/2 singles and k/2 four-count blocks
		blocks     []countq.CountRange
		ids, preds []int64 // one chain of k operations
	}
	build := func(order []int) evidence {
		ev := evidence{counts: make([]int64, k), ids: make([]int64, k), preds: make([]int64, k)}
		for i, p := range order {
			ev.counts[i] = int64(p) + 1
			ev.ids[i] = int64(p)
			ev.preds[i] = int64(p) - 1 // id 0 queues behind countq.Head, which is -1
			if first := int64(p/2)*5 + 1; p%2 == 0 {
				ev.singles = append(ev.singles, first)
			} else {
				ev.blocks = append(ev.blocks, countq.CountRange{First: first + 1, N: 4})
			}
		}
		return ev
	}
	sorted := make([]int, k)
	for i := range sorted {
		sorted[i] = i
	}
	for _, layout := range []struct {
		name  string
		order []int
	}{{"sorted", sorted}, {"shuffled", rand.New(rand.NewSource(1)).Perm(k)}} {
		ev := build(layout.order)
		for _, check := range []struct {
			name string
			run  func() error
		}{
			{"counts", func() error { return countq.ValidateCounts(ev.counts) }},
			{"ranges", func() error { return countq.ValidateCountRanges(ev.singles, ev.blocks) }},
			{"order", func() error { return countq.ValidateOrder(ev.ids, ev.preds) }},
		} {
			b.Run(check.name+"/"+layout.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := check.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/k, "ns/entry")
			})
		}
	}
}

// --- Machine-readable perf trajectory. -------------------------------------

// benchJSON, when set, makes TestBenchJSON sweep every registered counter
// and queuer — at defaults, over the declared tunables (tunableSpecs),
// through the IncN batching path, and through the canonical `ramp`
// scenario — as named campaigns through the countq campaign API, writing
// the validated Comparisons as JSON (e.g. BENCH_2026_07.json). Each record
// carries full Metrics per structure — latency quantiles
// (p50/p90/p99/p999/max) per op kind, a windowed throughput timeline,
// per-phase worker fairness — plus delta ratios against the campaign's
// baseline (atomic for counting, swap for queuing), so successive PRs
// track a *tail-latency surface with cross-structure deltas* over the
// coordination knobs and contention levels, not a table of means.
// `countq benchdiff` consumes two such files as the perf regression gate:
//
//	go test -run TestBenchJSON -benchjson BENCH_now.json .
//	go run ./cmd/countq benchdiff BENCH_2026_07.json BENCH_now.json
//
// -benchops shrinks the per-run budget for smoke runs (CI uses a tiny one).
var (
	benchJSON = flag.String("benchjson", "", "write registry-wide campaign comparisons to this JSON file")
	benchOps  = flag.Int("benchops", 50000, "operation budget per TestBenchJSON run")
)

func TestBenchJSON(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("no -benchjson output path given")
	}
	type sweep struct {
		GoMaxProcs  int                  `json:"gomaxprocs"`
		Ops         int                  `json:"ops_per_run"`
		Comparisons []*countq.Comparison `json:"comparisons"`
	}
	ops := *benchOps
	out := sweep{GoMaxProcs: runtime.GOMAXPROCS(0), Ops: ops}
	run := func(c countq.Campaign) {
		t.Helper()
		c.Base.Ops, c.Base.Seed = ops, 1
		cmp, err := c.Run()
		if err != nil {
			t.Fatalf("campaign %s: %v", c.Name, err)
		}
		for i := range cmp.Results {
			m := cmp.Results[i].Metrics
			if m.Aggregate.CounterLat == nil && m.Aggregate.QueueLat == nil {
				t.Fatalf("campaign %s %s: no latency distribution recorded", c.Name, cmp.Results[i].Label)
			}
		}
		out.Comparisons = append(out.Comparisons, cmp)
	}
	// The ramp ceiling caps at 8 so the recorded surface is comparable
	// across machines with different core counts.
	gmax := runtime.GOMAXPROCS(0)
	if gmax > 8 {
		gmax = 8
	}
	ramp := fmt.Sprintf("ramp?gmax=%d", gmax)
	// The entry rosters come straight from the registry; the loops below
	// only collect entries — every run goes through the campaign API, so
	// each record carries deltas against the declared baseline.
	steady := countq.Campaign{Name: "counters-steady"}
	rampC := countq.Campaign{Name: "counters-ramp", Base: countq.Workload{Scenario: ramp, Goroutines: gmax}}
	batch := countq.Campaign{Name: "counters-batch", Base: countq.Workload{Batch: 64}}
	for _, info := range shm.SyncStructures(countq.KindCounter) {
		if info.Name == "atomic" {
			steady.Baseline = len(steady.Entries)
			rampC.Baseline = len(rampC.Entries)
		}
		steady.Entries = append(steady.Entries, countq.Entry{Counter: info.Name})
		rampC.Entries = append(rampC.Entries, countq.Entry{Counter: info.Name})
		for _, spec := range tunableSpecs[info.Name] {
			steady.Entries = append(steady.Entries, countq.Entry{Counter: spec})
		}
		if info.Caps.Has(countq.CapBatch) {
			// Baseline index keyed to the entry actually appended, so it
			// cannot silently drift if a structure's capability set
			// changes.
			if info.Name == "atomic" {
				batch.Baseline = len(batch.Entries)
			}
			batch.Entries = append(batch.Entries, countq.Entry{Counter: info.Name})
		}
	}
	queues := countq.Campaign{Name: "queues-steady"}
	queuesRamp := countq.Campaign{Name: "queues-ramp", Base: countq.Workload{Scenario: ramp, Goroutines: gmax}}
	for _, info := range shm.SyncStructures(countq.KindQueue) {
		if info.Name == "swap" {
			queues.Baseline = len(queues.Entries)
			queuesRamp.Baseline = len(queuesRamp.Entries)
		}
		queues.Entries = append(queues.Entries, countq.Entry{Queue: info.Name})
		queuesRamp.Entries = append(queuesRamp.Entries, countq.Entry{Queue: info.Name})
	}
	// The sim bridge's perf surface: the synchronous round trip as the
	// baseline, against deepening async pipelines — recorded so the file
	// tracks how much of the coordination round pipelining recovers. The
	// bridge is async-capable, so it never appears in the synchronous
	// rosters above; this one names it explicitly.
	async := countq.Campaign{
		Name: "counters-async",
		Entries: []countq.Entry{
			{Counter: "sim-counter?hoplat=200ns"},
			{Counter: "sim-counter?hoplat=200ns", Inflight: 8},
			{Counter: "sim-counter?hoplat=200ns", Inflight: 32},
		},
	}
	// The native combining backends: the synchronous combining funnel as
	// the baseline against the natively-async funnel, synchronous and
	// pipelined. Open (uniform) arrivals so the corrected quantiles are
	// recorded — the async entry's claim is precisely that overlapping
	// the combining round improves completion-vs-intended tail latency,
	// which a closed loop cannot see. Like the sim bridge, these declare
	// CapAsync, so the synchronous rosters above never pick them up.
	nativeAsync := countq.Campaign{
		Name: "counters-native-async",
		Base: countq.Workload{Arrival: countq.Uniform},
		Entries: []countq.Entry{
			{Counter: "funnel"},
			{Counter: "async-funnel"},
			{Counter: "async-funnel", Inflight: 8},
		},
	}
	queuesNative := countq.Campaign{
		Name: "queues-native-async",
		Base: countq.Workload{Arrival: countq.Uniform},
		Entries: []countq.Entry{
			{Queue: "swap"},
			{Queue: "elim"},
			{Queue: "elim", Inflight: 8},
		},
	}
	// The paper's separation end-to-end: the central protocol against the
	// distributed arrow queue and the combining-tree counter under the
	// identical ramp, with the hop as the cost unit. The entries are
	// cross-kind on purpose — counting priced against queuing under one
	// phase sequence is the paper's question; latency ratios across kinds
	// are omitted, ns/op and throughput ratios carry the comparison.
	simProtocols := countq.Campaign{
		Name: "sim-protocols-ramp",
		Base: countq.Workload{Scenario: ramp, Goroutines: gmax},
		Entries: []countq.Entry{
			{Counter: "sim-counter?hoplat=200ns"},
			{Queue: "sim-arrow-queue?hoplat=200ns"},
			{Counter: "sim-tree-counter?hoplat=200ns"},
		},
	}
	for _, c := range []countq.Campaign{steady, rampC, batch, queues, queuesRamp, async, nativeAsync, queuesNative, simProtocols} {
		run(c)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d campaign comparisons to %s", len(out.Comparisons), *benchJSON)
}
