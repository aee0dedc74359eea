package sim_test

import (
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
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

// TestBridgeThroughDriver runs the registered sim structures end to end
// through the countq scenario engine — sync, batched, async, and the
// queue side — proving the bridge is a full citizen of the workload
// driver, its validation pass included.
func TestBridgeThroughDriver(t *testing.T) {
	for _, w := range []countq.Workload{
		{Counter: "sim-counter?hoplat=0", Goroutines: 4, Ops: 600, Seed: 1},
		{Counter: "sim-counter?hoplat=0&topo=list&nodes=5", Goroutines: 2, Ops: 300, Seed: 1},
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
	st, err := countq.NewStructure("sim-counter?hoplat=100ms&pipeline=2", countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	defer st.(io.Closer).Close()
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	as := sess.(countq.AsyncSession)
	ctx := context.Background()
	// With a 100ms hop nothing completes during the test, so the third
	// submit must trip the configured bound of 2.
	for i := 0; i < 2; i++ {
		if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
			t.Fatalf("submit %d within the pipeline bound: %v", i, err)
		}
	}
	if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err == nil {
		t.Error("third submit accepted past pipeline=2")
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
