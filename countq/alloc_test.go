package countq

import (
	"context"
	"runtime"
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

var registerAllocTestAtomic = sync.OnceFunc(func() {
	RegisterStructure(StructureInfo{
		Name:    "alloc-test-atomic",
		Summary: "test-only allocation-free counter",
		Kinds:   KindCounter,
		Caps:    CapBatch,
		New:     func(o Options) (Structure, error) { return &testBatchCounter{}, nil },
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
