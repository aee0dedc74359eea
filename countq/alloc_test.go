package countq

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The zero-allocation gates: an exact malloc count (allocsPerOp) over the
// runner's per-op methods, with the structure side reduced to an atomic
// word so any allocation the gate sees belongs to the measurement harness
// itself. The laneRunner comes from the same setup steps runPhase uses —
// newPhaseRun, newWorker, openSessions — so every gate runs over the real
// layout, with all allocation (rng, evidence reservation, session
// assertions) before the measured window.

// allocAsyncSession is the minimal AsyncSession, and its own Structure:
// Submit applies the op to the atomic word and completes it on the
// preallocated channel immediately, so the gate isolates the runner's
// submit/reap path.
type allocAsyncSession struct {
	v   atomic.Int64
	out chan Completion
}

func (s *allocAsyncSession) NewSession() (Session, error)           { return s, nil }
func (s *allocAsyncSession) Inc(ctx context.Context) (int64, error) { return s.v.Add(1), nil }
func (s *allocAsyncSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return 0, ErrUnsupported
}
func (s *allocAsyncSession) Close() error { return nil }
func (s *allocAsyncSession) Submit(ctx context.Context, op Op) error {
	n := op.N
	if n < 1 {
		n = 1
	}
	s.out <- Completion{Op: op, Value: s.v.Add(n) - n + 1}
	return nil
}
func (s *allocAsyncSession) Completions() <-chan Completion { return s.out }

// newAllocRunner sets up one worker of a single-goroutine phase over the
// counter st the way runPhase does. The phase's ops budget covers `runs`
// measured iterations twice over (allocsPerOp adds one warmup call, and
// the sampled path logs a timeline event every sample'th op), so the
// setup reservation — the whole budget for a lone worker — absorbs every
// append the gate makes.
func newAllocRunner(t *testing.T, p Phase, st Structure, runs int64) *laneRunner {
	t.Helper()
	p.Goroutines, p.Ops = 1, int(2*runs+opsChunk)
	ph := newPhaseRun(st, nil, Workload{Seed: 1}, 0, p, time.Now())
	r := ph.newWorker(0)
	if err := r.openSessions(ph.cs, ph.qs, ph.base); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.closeSessions)
	r.begin(time.Now())
	return r
}

// allocsPerOp is testing.AllocsPerRun without its integer floor: at
// GOMAXPROCS(1), after one warm-up call, the exact malloc count over runs
// calls of body, divided as floats — so one allocation every 64 calls
// reads 0.0156, not 0.
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

// gate runs body under allocsPerOp and fails on any allocation: with the
// structure side a test word, nothing but the harness runs in the window.
func gate(t *testing.T, name string, runs int, body func()) {
	t.Helper()
	if avg := allocsPerOp(runs, body); avg != 0 {
		t.Errorf("%s: %.5f allocs/op in steady state, want 0", name, avg)
	}
}

// TestValidateAllocs holds the post-run validators to their exact
// allocation counts over valid evidence of k = 4096 operations, stored in
// shuffled order: the counts check makes one bit set, its block-grant path
// one span slice, the order check one id table and one successor array —
// nothing per entry. The order check's lane-ordered case is the same chain
// stored as two runner lanes leave it, each lane's ids one run: it makes
// one run table and one successor array, and the shuffled case's failed
// run scan allocates nothing.
func TestValidateAllocs(t *testing.T) {
	const k = 4096
	counts, ids, preds := make([]int64, k), make([]int64, k), make([]int64, k)
	laneIDs, lanePreds := make([]int64, k), make([]int64, k)
	var singles []int64 // with blocks, a tiling of 1..5k/2: k/2 singles and k/2 four-count blocks
	var blocks []CountRange
	// laneID names chain operation p as the runner would: even p from
	// lane 0, odd p from lane 1, each lane numbering its enqueues; lane
	// l's j-th id is stored at l·k/2 + j.
	laneID := func(p int64) int64 { return p%2<<40 | p/2 }
	for i, p := range rand.New(rand.NewSource(1)).Perm(k) {
		counts[i] = int64(p) + 1
		ids[i], preds[i] = int64(p), int64(p)-1 // one chain: id 0 queues behind Head, which is -1
		at := p%2*k/2 + p/2
		laneIDs[at], lanePreds[at] = laneID(int64(p)), Head
		if p > 0 {
			lanePreds[at] = laneID(int64(p) - 1)
		}
		if first := int64(p/2)*5 + 1; p%2 == 0 {
			singles = append(singles, first)
		} else {
			blocks = append(blocks, CountRange{First: first + 1, N: 4})
		}
	}
	if _, ok := newRunIndex([]laneData{{ids: laneIDs}}, k); !ok {
		t.Fatal("lane-ordered ids not indexed by their runs")
	}
	// No collection in the window: a GC cycle allocates runtime bookkeeping
	// (mark-worker nodes, sudogs, timer-heap growth) that the global count
	// would charge to the validator.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		want float64
		run  func() error
	}{
		{"ValidateCounts", 1, func() error { return ValidateCounts(counts) }},
		{"ValidateCountRanges", 1, func() error { return ValidateCountRanges(singles, blocks) }},
		{"ValidateOrder", 2, func() error { return ValidateOrder(ids, preds) }},
		{"ValidateOrder lane-ordered", 2, func() error { return ValidateOrder(laneIDs, lanePreds) }},
	} {
		var err error
		got := allocsPerOp(64, func() { err = tc.run() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %.4f allocs per call, want %.0f", tc.name, got, tc.want)
		}
	}
}

// TestSyncCounterLoopZeroAlloc is the acceptance gate for the runner's
// synchronous hot path: claim → issueSync → consume at 0 allocs/op,
// sampled ops (histogram + timeline event) included.
func TestSyncCounterLoopZeroAlloc(t *testing.T) {
	const runs = 4096
	st := &testBatchCounter{}
	p := Phase{Name: "steady", Mix: 1, LatencySample: 64}
	r := newAllocRunner(t, p, st, runs)
	gate(t, "sync counter loop", runs, func() {
		if !r.claim() {
			t.Fatal("op pool exhausted")
		}
		granted, err := r.issueSync()
		if err != nil {
			t.Fatal(err)
		}
		r.ln.issued += granted
		r.consume(granted)
		r.iter++
	})
}

// TestBatchCounterLoopZeroAlloc gates the IncN block-grant path.
func TestBatchCounterLoopZeroAlloc(t *testing.T) {
	const runs = 2048
	st := &testBatchCounter{}
	p := Phase{Name: "steady", Mix: 1, Batch: 16, LatencySample: 64}
	r := newAllocRunner(t, p, st, runs*16)
	gate(t, "batch counter loop", runs, func() {
		if !r.claim() {
			t.Fatal("op pool exhausted")
		}
		granted, err := r.issueSync()
		if err != nil {
			t.Fatal(err)
		}
		r.ln.issued += granted
		r.consume(granted)
		r.iter++
	})
}

// TestAsyncLoopZeroAlloc gates the pipelined path: submitOne carries the
// Op by value into the session and reap folds the Completion back — no
// per-op boxing anywhere in between.
func TestAsyncLoopZeroAlloc(t *testing.T) {
	const runs = 4096
	sess := &allocAsyncSession{out: make(chan Completion, 16)}
	p := Phase{Name: "steady", Mix: 1, Inflight: 8, LatencySample: 64}
	r := newAllocRunner(t, p, sess, runs)
	gate(t, "async submit/reap loop", runs, func() {
		ok, err := r.submitOne()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("op pool exhausted")
		}
		r.reap(<-r.cch)
	})
}

// TestOpenArrivalLoopZeroAlloc gates the open-loop variant: the arrival
// pause, the intended-clock bookkeeping and the corrected-latency
// histogram must not add allocations either.
func TestOpenArrivalLoopZeroAlloc(t *testing.T) {
	const runs = 2048
	st := &testBatchCounter{}
	p := Phase{Name: "steady", Mix: 1, Arrival: Uniform, LatencySample: 64}
	r := newAllocRunner(t, p, st, runs)
	gate(t, "open-loop sync counter", runs, func() {
		if !r.claim() {
			t.Fatal("op pool exhausted")
		}
		r.arrive()
		granted, err := r.issueSync()
		if err != nil {
			t.Fatal(err)
		}
		r.ln.issued += granted
		r.consume(granted)
		r.iter++
	})
}

// swapQueue is the allocation-free queue: one atomic swap of the tail.
type swapQueue struct{ tail atomic.Int64 }

func (q *swapQueue) Enqueue(id int64) int64       { return q.tail.Swap(id) }
func (q *swapQueue) NewSession() (Session, error) { return sessionOver(q), nil }

func newSwapQueue() *swapQueue {
	q := &swapQueue{}
	q.tail.Store(Head)
	return q
}

var registerAllocTestAtomic = sync.OnceFunc(func() {
	RegisterStructure(StructureInfo{
		Name:    "alloc-test-atomic",
		Summary: "test-only allocation-free counter",
		Kinds:   KindCounter,
		Caps:    CapBatch,
		New:     func(o Options) (Structure, error) { return &testBatchCounter{}, nil },
	})
	RegisterStructure(StructureInfo{
		Name:    "alloc-test-swap",
		Summary: "test-only allocation-free queue",
		Kinds:   KindQueue,
		New:     func(o Options) (Structure, error) { return newSwapQueue(), nil },
	})
})

// TestSteadyPhaseReportsZeroAllocs closes the loop end to end: a real
// driver run over the allocation-free atomic session path must *report*
// ≈ 0 allocs/op through the new memory metric — the measurement and the
// measured agree. The threshold leaves room for the handful of runtime-
// internal allocations (timer resets, GC bookkeeping) that land in the
// whole-process counters but amortize to well under one per op.
func TestSteadyPhaseReportsZeroAllocs(t *testing.T) {
	registerAllocTestAtomic()
	res, err := Run(Workload{Counter: "alloc-test-atomic", Goroutines: 2, Ops: 200000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.AllocsPerOp > 0.05 {
		t.Errorf("steady phase reports %.4f allocs/op over the atomic path, want ≈ 0", a.AllocsPerOp)
	}
	if len(a.MemTimeline) == 0 || a.LivePeakBytes <= 0 {
		t.Errorf("memory timeline missing: %d windows, live peak %d", len(a.MemTimeline), a.LivePeakBytes)
	}
}

// TestFixedOpsPhaseZeroAllocs: with the structures allocation-free, every
// measured phase of a two-worker, fixed-Ops run reports exactly 0
// allocs/op — the first run of the process included, whose logs all come
// fresh, and however unevenly the workers split the pool: the phase's
// logs are reserved for its whole budget before the start barrier, and a
// lane that outruns its window moves to a free one, so no claim grows a
// log inside the window.
func TestFixedOpsPhaseZeroAllocs(t *testing.T) {
	registerAllocTestAtomic()
	// No collection in the windows: a GC cycle allocates runtime
	// bookkeeping of its own, and flushes the per-P allocation counts of
	// the setup before the window into the window's reading.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, w := range []Workload{
		{Counter: "alloc-test-atomic", Queue: "alloc-test-swap", Mix: 0.5},
		{Counter: "alloc-test-atomic", Batch: 16},
	} {
		w.Scenario, w.Goroutines, w.Ops = "ramp?gmax=2", 2, 200000
		for run := int64(1); run <= 3; run++ {
			w.Seed = run
			m, err := Run(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m.Phases {
				if !p.Warmup && p.AllocsPerOp != 0 {
					t.Errorf("%s/%s run %d, phase %s: %.5f allocs/op (%.1f B/op), want 0", w.Counter, w.Queue, run, p.Name, p.AllocsPerOp, p.AllocBytesPerOp)
				}
			}
		}
	}
}
