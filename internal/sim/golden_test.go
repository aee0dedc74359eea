package sim_test

// Determinism regression goldens for the round engine. Each seeded run
// records every delivery the protocol observes — round, receiving node,
// message envelope and payload — plus the final Stats and the protocol's
// own results, and the rendered trace is compared byte-for-byte against a
// committed golden file. The goldens were captured from the pre-v2 engine
// (arrivals map + per-round sort.Slice), so they pin the exact delivery
// order the timing-wheel engine must reproduce: same per-link FIFO, same
// global seq tie-breaking, same Stats — including under non-unit delay
// models, where the FIFO clamp interacts with the wheel.
//
// Regenerate with: go test ./internal/sim -run TestGoldenTraces -update
// (only legitimate after an intentional, reviewed semantics change).

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/raymond"
	"repro/internal/sim"
	"repro/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracer wraps a Protocol and records every delivery in execution order.
type tracer struct {
	inner sim.Protocol
	buf   *bytes.Buffer
}

func (t *tracer) Start(env *sim.Env, node int) { t.inner.Start(env, node) }

func (t *tracer) Deliver(env *sim.Env, node int, m sim.Message) {
	fmt.Fprintf(t.buf, "r=%d node=%d from=%d to=%d sent=%d kind=%d a=%d b=%d c=%d\n",
		env.Round(), node, m.From, m.To, env.SentAt(node), m.Kind, m.A, m.B, m.C)
	t.inner.Deliver(env, node, m)
}

// tracerTS additionally forwards the Ticker and Scheduler extensions, for
// long-lived protocols that inject work over time.
type tracerTS struct{ tracer }

func (t *tracerTS) Tick(env *sim.Env, node int) { t.inner.(sim.Ticker).Tick(env, node) }
func (t *tracerTS) PendingUntil() int           { return t.inner.(sim.Scheduler).PendingUntil() }

// runTraced executes cfg's protocol under the tracer, through sim.Run so the
// run starts on whatever scratch the previous one left, and appends the final
// stats plus the protocol-specific result summary.
func runTraced(t *testing.T, cfg sim.Config, proto sim.Protocol, results func(buf *bytes.Buffer)) ([]byte, sim.Stats) {
	t.Helper()
	var buf bytes.Buffer
	tr := &tracer{inner: proto, buf: &buf}
	var wrapped sim.Protocol = tr
	_, isTicker := proto.(sim.Ticker)
	_, isSched := proto.(sim.Scheduler)
	if isTicker && isSched {
		wrapped = &tracerTS{tracer: *tr}
	} else if isTicker || isSched {
		t.Fatalf("tracer supports Ticker+Scheduler together only; got ticker=%v scheduler=%v", isTicker, isSched)
	}
	stats, err := sim.Run(cfg, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "stats rounds=%d sent=%d inbox=%d outbox=%d recv=%v\n",
		stats.Rounds, stats.MessagesSent, stats.MaxInboxBacklog, stats.MaxOutboxBacklog, stats.Received)
	results(&buf)
	return buf.Bytes(), stats
}

func allRequests(n int) []bool {
	req := make([]bool, n)
	for i := range req {
		req[i] = true
	}
	return req
}

func mustBFS(t *testing.T, g *graph.Graph) *tree.Tree {
	t.Helper()
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// goldenSpec is one pinned run: trace renders it, and returns the run's
// Stats beside the rendering, which does not print all of them.
type goldenSpec struct {
	name  string
	trace func(t *testing.T) ([]byte, sim.Stats)
}

func goldenSpecs() []goldenSpec {
	star9 := func() *graph.Graph { return graph.Star(9) }
	mesh9 := func() *graph.Graph { return graph.Mesh(3, 3) }
	mesh16 := func() *graph.Graph { return graph.Mesh(4, 4) }

	centralRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) ([]byte, sim.Stats) {
		tr := mustBFS(t, g)
		p, err := counting.NewCentral(tr, allRequests(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
			for v := 0; v < g.N(); v++ {
				fmt.Fprintf(buf, "count[%d]=%d delay=%d\n", v, p.Count(v), p.Delay(v))
			}
		})
	}
	arrowRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) ([]byte, sim.Stats) {
		tr := mustBFS(t, g)
		p, err := arrow.New(tr, 0, allRequests(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
			for v := 0; v < g.N(); v++ {
				fmt.Fprintf(buf, "pred[%d]=%d delay=%d\n", v, p.Pred(v), p.Delay(v))
			}
			fmt.Fprintf(buf, "order-ok=%v\n", p.VerifyOrder() == nil)
		})
	}
	treeRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) ([]byte, sim.Stats) {
		tr := mustBFS(t, g)
		p, err := counting.NewTreeCount(tr, allRequests(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
			for v := 0; v < g.N(); v++ {
				fmt.Fprintf(buf, "count[%d]=%d delay=%d\n", v, p.Count(v), p.Delay(v))
			}
		})
	}
	staggered := func(n, ops int) []arrow.Request {
		reqs := make([]arrow.Request, ops)
		for i := range reqs {
			reqs[i] = arrow.Request{Node: (i*3 + 1) % n, Time: i / 2}
		}
		return reqs
	}

	return []goldenSpec{
		{"central-star9-unit", func(t *testing.T) ([]byte, sim.Stats) {
			return centralRun(t, star9(), sim.Config{})
		}},
		{"central-star9-cap2", func(t *testing.T) ([]byte, sim.Stats) {
			return centralRun(t, star9(), sim.Config{Capacity: 2})
		}},
		{"central-star9-jitter4", func(t *testing.T) ([]byte, sim.Stats) {
			return centralRun(t, star9(), sim.Config{Delay: sim.JitterDelay{Seed: 7, Max: 4}})
		}},
		{"central-mesh16-weighted", func(t *testing.T) ([]byte, sim.Stats) {
			// Per-edge fixed weights: the FIFO clamp must bind when a
			// later message takes a faster edge draw than its predecessor
			// took earlier — here delays differ per edge parity.
			w := sim.EdgeWeightDelay{Weight: func(u, v int) int { return 1 + (u+v)%3 }}
			return centralRun(t, mesh16(), sim.Config{Delay: w})
		}},
		{"arrow-mesh9-unit", func(t *testing.T) ([]byte, sim.Stats) {
			return arrowRun(t, mesh9(), sim.Config{})
		}},
		{"arrow-mesh9-jitter3", func(t *testing.T) ([]byte, sim.Stats) {
			return arrowRun(t, mesh9(), sim.Config{Delay: sim.JitterDelay{Seed: 11, Max: 3}})
		}},
		{"arrowll-path8-jitter2", func(t *testing.T) ([]byte, sim.Stats) {
			g := graph.Path(8)
			tr := mustBFS(t, g)
			p, err := arrow.NewLongLived(tr, 0, staggered(8, 20))
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true, Delay: sim.JitterDelay{Seed: 5, Max: 2}}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := 0; op < 20; op++ {
					fmt.Fprintf(buf, "pred[%d]=%d done=%d\n", op, p.Pred(op), p.CompletedAt(op))
				}
				fmt.Fprintf(buf, "rt-ok=%v\n", p.VerifyRealTimeOrder() == nil)
			})
		}},
		{"tree-mesh16-unit", func(t *testing.T) ([]byte, sim.Stats) {
			return treeRun(t, mesh16(), sim.Config{})
		}},
		{"tree-mesh16-jitter5", func(t *testing.T) ([]byte, sim.Stats) {
			return treeRun(t, mesh16(), sim.Config{Delay: sim.JitterDelay{Seed: 3, Max: 5}})
		}},
		{"combining-star9-jitter3", func(t *testing.T) ([]byte, sim.Stats) {
			g := star9()
			tr := mustBFS(t, g)
			reqs := make([]counting.Request, 24)
			for i := range reqs {
				reqs[i] = counting.Request{Node: 1 + (i*5)%8, Time: i / 3}
			}
			p, err := counting.NewCombining(tr, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true, Delay: sim.JitterDelay{Seed: 13, Max: 3}}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := range reqs {
					fmt.Fprintf(buf, "value[%d]=%d done=%d\n", op, p.ValueOf(op), p.CompletedAt(op))
				}
			})
		}},
		// The unit-delay scheduled forms below repeat a node within a round
		// (ops issue in slice order), schedule ops at the root, and overlap
		// bursts so batches combine while an earlier batch is in flight.
		{"arrowll-path8-unit", func(t *testing.T) ([]byte, sim.Stats) {
			g := graph.Path(8)
			tr := mustBFS(t, g)
			reqs := make([]arrow.Request, 24)
			for i := range reqs {
				reqs[i] = arrow.Request{Node: (i/2*3 + 1) % 8, Time: i / 4}
			}
			p, err := arrow.NewLongLived(tr, 0, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := range reqs {
					fmt.Fprintf(buf, "pred[%d]=%d done=%d\n", op, p.Pred(op), p.CompletedAt(op))
				}
				fmt.Fprintf(buf, "rt-ok=%v\n", p.VerifyRealTimeOrder() == nil)
			})
		}},
		{"combining-list16-unit", func(t *testing.T) ([]byte, sim.Stats) {
			g := graph.Path(16)
			tr := mustBFS(t, g)
			reqs := make([]counting.Request, 40)
			for i := range reqs {
				reqs[i] = counting.Request{Node: (i / 2 * 7) % 16, Time: i / 5}
			}
			p, err := counting.NewCombining(tr, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := range reqs {
					fmt.Fprintf(buf, "value[%d]=%d done=%d\n", op, p.ValueOf(op), p.CompletedAt(op))
				}
				fmt.Fprintf(buf, "valid=%v\n", p.Validate() == nil)
			})
		}},
		{"adder-star9-unit", func(t *testing.T) ([]byte, sim.Stats) {
			g := star9()
			tr := mustBFS(t, g)
			reqs := make([]counting.AddRequest, 30)
			for i := range reqs {
				reqs[i] = counting.AddRequest{Node: (i / 2 * 5) % 9, Time: i / 4, Amount: 1 + i%4}
			}
			p, err := counting.NewAdder(tr, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := range reqs {
					fmt.Fprintf(buf, "value[%d]=%d done=%d\n", op, p.ValueOf(op), p.CompletedAt(op))
				}
				fmt.Fprintf(buf, "sums-ok=%v\n", p.ValidateSums() == nil)
			})
		}},
		{"raymond-mesh9-unit", func(t *testing.T) ([]byte, sim.Stats) {
			g := mesh9()
			tr := mustBFS(t, g)
			reqs := make([]raymond.Request, 18)
			for i := range reqs {
				reqs[i] = raymond.Request{Node: (i / 2 * 4) % 9, Time: i / 3 * 2}
			}
			p, err := raymond.New(tr, 4, 2, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Graph: g, TrackPerNode: true}
			return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
				for op := range reqs {
					fmt.Fprintf(buf, "acquired[%d]=%d released=%d\n", op, p.Acquired(op), p.Released(op))
				}
				fmt.Fprintf(buf, "verify-ok=%v\n", p.Verify() == nil)
			})
		}},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".trace")
}

func TestGoldenTraces(t *testing.T) {
	for _, s := range goldenSpecs() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			got, _ := s.trace(t)
			path := goldenPath(s.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to capture): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from the committed golden (%d vs %d bytes); the engine is no longer behavior-identical", len(got), len(want))
				// Report the first diverging line for diagnosis.
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Errorf("first divergence at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
						break
					}
				}
			}
		})
	}
}
