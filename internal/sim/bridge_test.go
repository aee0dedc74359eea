package sim_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Keep the zoo registered for the driver tests (shm self-registers on
// import; the named use keeps the import intentional).
var _ = shm.VariantSpecs

// newTestBridge builds a free-running (hoplat=0) bridge and registers its
// cleanup.
func newTestBridge(t *testing.T, cfg sim.BridgeConfig) *sim.Bridge {
	t.Helper()
	b, err := sim.NewBridge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestBridgeCounterSync(t *testing.T) {
	b := newTestBridge(t, sim.BridgeConfig{})
	const workers, perWorker = 4, 50
	var mu sync.Mutex
	var counts []int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := b.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			local := make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				v, err := sess.Inc(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, v)
			}
			mu.Lock()
			counts = append(counts, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := countq.ValidateCounts(counts); err != nil {
		t.Fatalf("bridge counts invalid: %v", err)
	}
}

func TestBridgeCounterBatch(t *testing.T) {
	b := newTestBridge(t, sim.BridgeConfig{})
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bs, ok := sess.(countq.BatchSession)
	if !ok {
		t.Fatal("bridge session is not a BatchSession")
	}
	var blocks []countq.CountRange
	for i := 0; i < 8; i++ {
		first, err := bs.IncN(context.Background(), 16)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, countq.CountRange{First: first, N: 16})
	}
	if err := countq.ValidateCountRanges(nil, blocks); err != nil {
		t.Fatalf("block grants invalid: %v", err)
	}
	if _, err := bs.IncN(context.Background(), 0); err == nil {
		t.Error("IncN(0) accepted")
	}
}

func TestBridgeQueueOrder(t *testing.T) {
	b := newTestBridge(t, sim.BridgeConfig{Queue: true, Topo: "list", Nodes: 5})
	const workers, perWorker = 3, 20
	var mu sync.Mutex
	var ids, preds []int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := b.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				pr, err := sess.Enqueue(context.Background(), id)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				preds = append(preds, pr)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := countq.ValidateOrder(ids, preds); err != nil {
		t.Fatalf("bridge order invalid: %v", err)
	}
}

func TestBridgeKindGating(t *testing.T) {
	c := newTestBridge(t, sim.BridgeConfig{})
	q := newTestBridge(t, sim.BridgeConfig{Queue: true})
	cs, _ := c.NewSession()
	qs, _ := q.NewSession()
	defer cs.Close()
	defer qs.Close()
	if _, err := cs.Enqueue(context.Background(), 1); err == nil {
		t.Error("Enqueue on the counter bridge accepted")
	}
	if _, err := qs.Inc(context.Background()); err == nil {
		t.Error("Inc on the queue bridge accepted")
	}
}

func TestBridgeAsyncPipeline(t *testing.T) {
	b := newTestBridge(t, sim.BridgeConfig{})
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	as, ok := sess.(countq.AsyncSession)
	if !ok {
		t.Fatal("bridge session is not an AsyncSession")
	}
	const K, total = 8, 64
	outstanding, submitted := 0, 0
	var counts []int64
	for submitted < total || outstanding > 0 {
		for outstanding < K && submitted < total {
			op := countq.Op{Kind: countq.OpInc, N: 1, Token: uint64(submitted), Submitted: time.Now()}
			if err := as.Submit(context.Background(), op); err != nil {
				t.Fatal(err)
			}
			submitted++
			outstanding++
		}
		c := <-as.Completions()
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		counts = append(counts, c.Value)
		outstanding--
	}
	if err := countq.ValidateCounts(counts); err != nil {
		t.Fatalf("async counts invalid: %v", err)
	}
}

func TestBridgeContextCancellation(t *testing.T) {
	b := newTestBridge(t, sim.BridgeConfig{})
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Inc(cancelled); err == nil {
		t.Error("Inc with a cancelled context accepted")
	}
	as := sess.(countq.AsyncSession)
	if err := as.Submit(cancelled, countq.Op{Kind: countq.OpInc, N: 1}); err == nil {
		t.Error("Submit with a cancelled context accepted")
	}
	// A live context still works after cancelled attempts.
	if _, err := sess.Inc(context.Background()); err != nil {
		t.Errorf("Inc after a cancelled attempt: %v", err)
	}
}

func TestBridgeClosedRejects(t *testing.T) {
	b, err := sim.NewBridge(sim.BridgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := b.NewSession()
	b.Close()
	if _, err := sess.Inc(context.Background()); err == nil {
		t.Error("Inc on a closed bridge accepted")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("session close after bridge close: %v", err)
	}
}

func TestBridgeConfigRejects(t *testing.T) {
	for _, cfg := range []sim.BridgeConfig{
		{Nodes: 1},
		{Topo: "torus"},
		{Topo: "mesh2d", Nodes: 12}, // not a perfect square: no silent truncation
		{HopLat: -time.Microsecond},
		{Capacity: -1},
		{Pipeline: -1},
		{Pipeline: 1 << 16}, // past maxPipeline
	} {
		if b, err := sim.NewBridge(cfg); err == nil {
			b.Close()
			t.Errorf("NewBridge(%+v) accepted", cfg)
		}
	}
}

// bridgePolicies is the tree each registered sim-* bridge's protocol runs
// on: tree.ForQueuing's for arrow, tree.ForCounting's (a centre, or the
// heap root on complete) for the rest.
var bridgePolicies = map[string]func(*graph.Graph) (*tree.Tree, error){
	"sim-arrow-queue": func(g *graph.Graph) (*tree.Tree, error) {
		tr, _, err := tree.ForQueuing(g)
		return tr, err
	},
	"sim-counter":      tree.ForCounting,
	"sim-queue":        tree.ForCounting,
	"sim-tree-counter": tree.ForCounting,
}

// TestBridgeRootsAtItsPolicy builds every registered sim-* bridge on one
// member of every topology family and opens a session per non-root node:
// the one node no session is pinned to must be the root of its policy's
// tree.
func TestBridgeRootsAtItsPolicy(t *testing.T) {
	checked := 0
	for _, info := range countq.Structures() {
		if !strings.HasPrefix(info.Name, "sim-") {
			continue
		}
		checked++
		policy, ok := bridgePolicies[info.Name]
		if !ok {
			t.Errorf("%s: no tree policy listed for it", info.Name)
			continue
		}
		kind := countq.KindCounter
		if info.Kinds.Has(countq.KindQueue) {
			kind = countq.KindQueue
		}
		for _, family := range graph.FamilyNames() {
			g, err := graph.Family(family, ledgerSizes[family])
			if err != nil {
				t.Fatal(err)
			}
			tr, err := policy(g)
			if err != nil {
				t.Fatal(err)
			}
			spec := fmt.Sprintf("%s?topo=%s&nodes=%d&hoplat=0&pipeline=1", info.Name, family, g.N())
			st, err := countq.NewStructure(spec, kind)
			if err != nil {
				t.Fatal(err)
			}
			pinned := make([]bool, g.N())
			for i := 0; i < g.N()-1; i++ {
				sess, err := st.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				pinned[sim.SessionNode(sess)] = true
				sess.Close()
			}
			for v, p := range pinned {
				if p == (v == tr.Root()) {
					t.Errorf("%s: node %d pinned %v; the policy's root is %d", spec, v, p, tr.Root())
				}
			}
			st.(io.Closer).Close()
		}
	}
	if checked < len(bridgePolicies) {
		t.Errorf("registry has %d sim-* bridges, want at least %d", checked, len(bridgePolicies))
	}
}

// TestBridgeThroughDriver runs the registered sim structures end to end
// through the countq scenario engine — sync, batched, async, and the
// queue side — proving the bridge is a full citizen of the workload
// driver, its validation pass included.
func TestBridgeThroughDriver(t *testing.T) {
	for _, w := range []countq.Workload{
		{Counter: "sim-counter?hoplat=0", Goroutines: 4, Ops: 600, Seed: 1},
		{Counter: "sim-counter?hoplat=0&topo=list&nodes=5", Goroutines: 2, Ops: 300, Seed: 1},
		{Queue: "sim-arrow-queue?hoplat=0&topo=hypercube&nodes=16", Goroutines: 4, Ops: 400, Seed: 1},
		{Counter: "sim-counter?hoplat=0", Goroutines: 2, Ops: 512, Batch: 16, Seed: 1},
		{Counter: "sim-counter?hoplat=0", Goroutines: 4, Ops: 600, Inflight: 8, Seed: 1},
		{Queue: "sim-queue?hoplat=0", Goroutines: 4, Ops: 600, Seed: 1},
		{Queue: "sim-queue?hoplat=0", Goroutines: 4, Ops: 600, Inflight: 4, Seed: 1},
		{Counter: "sim-counter?hoplat=0", Queue: "sim-queue?hoplat=0", Mix: 0.5, Goroutines: 2, Ops: 400, Seed: 1},
	} {
		m, err := countq.Run(w)
		if err != nil {
			t.Errorf("%+v: %v", w, err)
			continue
		}
		if m.Aggregate.Ops != w.Ops {
			t.Errorf("%+v: ops = %d, want %d", w, m.Aggregate.Ops, w.Ops)
		}
		if w.Inflight > 1 {
			if m.Aggregate.CounterCorr == nil && m.Aggregate.QueueCorr == nil {
				t.Errorf("%+v: async run recorded no corrected latency", w)
			}
			if m.Phases[0].Inflight != w.Inflight {
				t.Errorf("%+v: phase inflight = %d", w, m.Phases[0].Inflight)
			}
		}
	}
	// The direct-call view is absent by design, and asking for it must not
	// leave behind the pump of the bridge it had to build to find out.
	for _, spec := range []string{"sim-counter", "async-funnel"} {
		before := runtime.NumGoroutine()
		if _, err := countq.NewCounter(spec); err == nil || !strings.Contains(err.Error(), "no synchronous view") {
			t.Errorf("NewCounter(%s) = %v; want the no-synchronous-view error", spec, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("NewCounter(%s) left goroutines behind (%d before, %d after):\n%s",
					spec, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
		}
	}
	// Inflight against a structure without CapAsync fails loudly.
	if _, err := countq.Run(countq.Workload{Counter: "sim-counter?hoplat=0", Queue: "mutex", Mix: 0.5, Ops: 200, Inflight: 4}); err == nil {
		t.Error("inflight pipelining against a sync-only queue accepted")
	}
}

// holdProto withholds the grant for the first issued operation until the
// next one arrives, then grants the straggler first and the live
// operation second — the exact arrival order that used to taint the old
// per-session reply channel. Later operations grant immediately.
type holdProto struct {
	grants  sim.Grants
	held    int
	holding bool
	first   bool
	n       int64
}

func (p *holdProto) Start(env *sim.Env, node int)                  {}
func (p *holdProto) Deliver(env *sim.Env, node int, m sim.Message) {}
func (p *holdProto) Issue(env *sim.Env, node int, token int, op countq.Op) {
	if !p.first {
		p.first = true
		p.holding = true
		p.held = token
		return
	}
	if p.holding {
		p.holding = false
		p.n++
		p.grants.Grant(p.held, p.n)
	}
	p.n++
	p.grants.Grant(token, p.n)
}

// TestBridgeCancelThenReuse is the straggler-grant regression test: a
// cancelled round trip's grant arrives only after the next round trip is
// live, and must be discarded — not handed to the wrong operation, and
// not left pinning transport state (the old reply-channel taint).
func TestBridgeCancelThenReuse(t *testing.T) {
	proto := &holdProto{}
	maker := func(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
		proto.grants = grants
		return proto, nil
	}
	b := newTestBridge(t, sim.BridgeConfig{Proto: maker})
	sess, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.Inc(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the op reach the pump and park
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled Inc returned %v, want context.Canceled", err)
	}
	// The next round trip releases the held straggler (value 1) right
	// before its own grant (value 2); it must see only its own.
	v, err := sess.Inc(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Inc after cancellation = %d, want 2 (the straggler's 1 must be discarded)", v)
	}
	for want := int64(3); want <= 5; want++ {
		v, err := sess.Inc(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("follow-up Inc = %d, want %d", v, want)
		}
	}
}

// TestBridgePipelineParam pins the pipeline= spec param end to end: it
// must reach the session's outstanding bound, and bad values must be
// rejected at construction.
func TestBridgePipelineParam(t *testing.T) {
	for _, pipeline := range []int{1, 2} {
		st, err := countq.NewStructure(fmt.Sprintf("sim-counter?hoplat=100ms&pipeline=%d", pipeline), countq.KindCounter)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		as := sess.(countq.AsyncSession)
		ctx := context.Background()
		// With a 100ms hop nothing completes during the test, so the
		// submit after the first pipeline ones must trip the bound.
		for i := 0; i < pipeline; i++ {
			if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
				t.Fatalf("pipeline=%d: submit %d within the bound: %v", pipeline, i, err)
			}
		}
		if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err == nil {
			t.Errorf("pipeline=%d: submit accepted with %d operations outstanding", pipeline, pipeline)
		}
		st.(io.Closer).Close()
	}
	for _, spec := range []string{
		"sim-counter?pipeline=-1",
		"sim-counter?pipeline=1000000",
	} {
		if st, err := countq.NewStructure(spec, countq.KindCounter); err == nil {
			st.(io.Closer).Close()
			t.Errorf("NewStructure(%q) accepted", spec)
		}
	}
}

// pairProto holds each issued operation until the next one arrives, then
// grants the later one first: at pipeline=2 every pair completes in
// reverse issue order, so the session's two slots trade places each pair.
// It records the Op every Issue saw. Once release is set its Tick grants a
// held operation, so a test that stops mid-pair can still Close.
type pairProto struct {
	grants  sim.Grants
	issued  []countq.Op
	held    int
	holding bool
	n       int64
	release atomic.Bool
}

func (p *pairProto) Tick(env *sim.Env, node int) {
	if p.holding && p.release.Load() {
		p.holding = false
		p.n++
		p.grants.Grant(p.held, p.n)
	}
}

func (p *pairProto) Start(env *sim.Env, node int)                  {}
func (p *pairProto) Deliver(env *sim.Env, node int, m sim.Message) {}
func (p *pairProto) Issue(env *sim.Env, node int, token int, op countq.Op) {
	p.issued = append(p.issued, op)
	if !p.holding {
		p.held, p.holding = token, true
		return
	}
	p.holding = false
	p.n++
	p.grants.Grant(token, p.n)
	p.n++
	p.grants.Grant(p.held, p.n)
}

// TestBridgeCompletionEchoesOp: an async Completion carries back every
// field of the Op its Submit was given, Token and both timestamps
// included, while the session's slots are recycled in reverse order 150
// times; Issue sees only the Op's kind and argument, rebuilt.
func TestBridgeCompletionEchoesOp(t *testing.T) {
	const pairs = 150
	base := time.Date(2006, 4, 25, 0, 0, 0, 0, time.UTC)
	for _, queue := range []bool{false, true} {
		proto := &pairProto{}
		maker := func(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
			proto.grants = grants
			return proto, nil
		}
		b, err := sim.NewBridge(sim.BridgeConfig{Queue: queue, Pipeline: 2, Proto: maker})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			proto.release.Store(true)
			b.Close()
		})
		sess, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		as := sess.(countq.AsyncSession)
		ctx := context.Background()
		var want []countq.Op
		for i := 0; i < 2*pairs; i++ {
			op := countq.Op{
				Kind:      countq.OpInc,
				N:         int64(i%5 + 1),
				ID:        int64(1000 + i), // not the counter's to read
				Token:     uint64(7*i + 3),
				Start:     base.Add(time.Duration(i) * time.Second),
				Submitted: base.Add(time.Duration(i)*time.Second + time.Millisecond),
			}
			if queue {
				op.Kind, op.N = countq.OpEnqueue, int64(i%3) // N is not the queue's to read
			}
			want = append(want, op)
			if err := as.Submit(ctx, op); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				continue
			}
			for k, w := range []countq.Op{want[i], want[i-1]} {
				c := <-as.Completions()
				if c.Err != nil || c.Op != w || c.Value != int64(i+k) {
					t.Fatalf("queue=%v, pair %d, completion %d = %+v; want value %d for %+v", queue, i/2, k, c, i+k, w)
				}
			}
		}
		sess.Close()
		b.Close()
		for i, got := range proto.issued {
			w := countq.Op{Kind: countq.OpInc, N: want[i].N}
			if queue {
				w = countq.Op{Kind: countq.OpEnqueue, ID: want[i].ID}
			}
			if got != w {
				t.Fatalf("queue=%v: Issue %d saw %+v, want %+v", queue, i, got, w)
			}
		}
		if len(proto.issued) != 2*pairs {
			t.Errorf("queue=%v: %d operations issued, want %d", queue, len(proto.issued), 2*pairs)
		}
	}
}

// TestBridgeCloseSubmitRace hammers Close against in-flight Submit across
// many sessions (run it with -race): every accepted submission must
// produce exactly one completion — granted or failed with the close error
// — and the final drain must terminate.
func TestBridgeCloseSubmitRace(t *testing.T) {
	const workers, opsPer, iters = 8, 100, 10
	for iter := 0; iter < iters; iter++ {
		b, err := sim.NewBridge(sim.BridgeConfig{HopLat: 0})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		sessions := make([]countq.AsyncSession, workers)
		for w := 0; w < workers; w++ {
			sess, err := b.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			sessions[w] = sess.(countq.AsyncSession)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(as countq.AsyncSession) {
				defer wg.Done()
				ctx := context.Background()
				accepted, reaped := 0, 0
				for i := 0; i < opsPer; i++ {
					if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
						break // closed underneath us: fine, nothing owed
					}
					accepted++
					for {
						select {
						case <-as.Completions():
							reaped++
							continue
						default:
						}
						break
					}
				}
				// One completion per accepted submit, granted or failed;
				// a lost one deadlocks here and fails the test timeout.
				for reaped < accepted {
					<-as.Completions()
					reaped++
				}
			}(sessions[w])
		}
		// Race the close against the submit storm.
		closed := make(chan struct{})
		go func() {
			b.Close()
			close(closed)
		}()
		wg.Wait()
		<-closed
		b.Close() // idempotent
	}
}

// treeList64 is the combining tree on the 64-node list, free-running and
// rooted at the centre (node 31): an operation of the benchmark's
// pipelined shape takes about 12 rounds, so a Close almost always lands
// mid-chain.
const treeList64 = "sim-tree-counter?topo=list&nodes=64&hoplat=0"

// TestBridgeCloseMidChain closes the tree while eight pipelined sessions
// (nodes 6, 13, 20, 27, 35, 42, 49 and 56 of 63 open) keep operations in
// flight. The pump
// observes the close only once it has drained to idle, never in the middle
// of a chain. Close must return, which it does only after the pump has
// exited, and every accepted Submit must get exactly one Completion: a
// granted, distinct count, or the close error.
func TestBridgeCloseMidChain(t *testing.T) {
	const depth = 4 // operations each driven session keeps outstanding
	for iter := 0; iter < 5; iter++ {
		st, err := countq.NewStructure(treeList64, countq.KindCounter)
		if err != nil {
			t.Fatal(err)
		}
		var driven []countq.AsyncSession
		for i := 0; i < 63; i++ {
			sess, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 6 {
				driven = append(driven, sess.(countq.AsyncSession))
			}
		}
		var granted atomic.Int64
		counts := make([][]int64, len(driven))
		var wg sync.WaitGroup
		for w, as := range driven {
			wg.Add(1)
			go func(w int, as countq.AsyncSession) {
				defer wg.Done()
				ctx := context.Background()
				reap := func() {
					c := <-as.Completions()
					switch {
					case c.Err == nil:
						counts[w] = append(counts[w], c.Value)
						granted.Add(1)
					case !strings.Contains(c.Err.Error(), "closed"):
						t.Errorf("completion failed with %v, want a grant or the close error", c.Err)
					}
				}
				accepted, reaped := 0, 0
				for as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}) == nil {
					accepted++
					if accepted-reaped >= depth {
						reap()
						reaped++
					}
				}
				// A lost completion blocks here until the test times out.
				for ; reaped < accepted; reaped++ {
					reap()
				}
			}(w, as)
		}
		for deadline := time.Now().Add(5 * time.Second); granted.Load() < 64; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d operations granted in 5s", granted.Load())
			}
			runtime.Gosched()
		}
		if err := st.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		seen := make(map[int64]bool)
		for w, as := range driven {
			if n := len(as.Completions()); n != 0 {
				t.Errorf("session %d holds %d completions beyond one per accepted Submit", w, n)
			}
			for _, v := range counts[w] {
				if seen[v] {
					t.Fatalf("count %d granted twice", v)
				}
				seen[v] = true
			}
		}
		if _, err := driven[0].(countq.Session).Inc(context.Background()); err == nil {
			t.Error("Inc on a closed bridge succeeded")
		}
	}
}

// TestBridgeCloseSyncSpin closes the tree while a synchronous session at
// the far end of the list loops Inc, so Close lands while the session spins
// in its round trip. The loop must end with the close error, every Inc
// before it must have returned the next count, and Close must return.
func TestBridgeCloseSyncSpin(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		st, err := countq.NewStructure(treeList64, countq.KindCounter)
		if err != nil {
			t.Fatal(err)
		}
		var sess countq.Session
		for i := 0; i < 63; i++ { // the last session sits on node 63
			if sess, err = st.NewSession(); err != nil {
				t.Fatal(err)
			}
		}
		var ops atomic.Int64
		loopErr := make(chan error, 1)
		go func() {
			for want := int64(1); ; want++ {
				v, err := sess.Inc(context.Background())
				if err != nil {
					loopErr <- err
					return
				}
				if v != want {
					loopErr <- fmt.Errorf("Inc = %d, want %d", v, want)
					return
				}
				ops.Add(1)
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); ops.Load() < int64(10*(iter+1)); {
			if time.Now().After(deadline) {
				t.Fatalf("only %d Incs returned in 5s", ops.Load())
			}
			runtime.Gosched()
		}
		if err := st.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-loopErr:
			if !strings.Contains(err.Error(), "closed") {
				t.Fatalf("Inc loop ended with %v, want the close error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Inc loop still running 5s after Close returned")
		}
	}
}
