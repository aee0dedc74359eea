package countq

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// The zero-allocation gates: testing.AllocsPerRun over the runner's
// per-op methods, with the structure side reduced to an atomic word so
// any allocation the gate sees belongs to the measurement harness
// itself. The laneRunner is built exactly the way runPhase builds it —
// all allocation (rng, evidence reservation, session assertions) before
// the measured window — and each gate pre-reserves evidence for every
// measured iteration, mirroring the pool-claim reservation that keeps
// steady-state appends inside existing capacity.

// allocAsyncSession is the minimal AsyncSession: Submit applies the op
// to the atomic word and completes it on the preallocated channel
// immediately, so the gate isolates the runner's submit/reap path.
type allocAsyncSession struct {
	v   atomic.Int64
	out chan Completion
}

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

// newAllocRunner assembles a laneRunner over sess the way runPhase does,
// with an effectively unbounded op pool and evidence pre-reserved for
// `runs` measured iterations (AllocsPerRun adds one warmup call, and the
// sampled path logs a timeline event every sample'th op — reserve covers
// both).
func newAllocRunner(p *Phase, sess Session, runs int64) *laneRunner {
	ln := &lane{}
	pool := &atomic.Int64{}
	pool.Store(1 << 40)
	r := &laneRunner{
		ln:       ln,
		p:        p,
		csess:    sess,
		ctx:      context.Background(),
		batch:    p.Batch,
		drawMix:  p.Mix,
		sample:   p.LatencySample,
		chunk:    opsChunk,
		hasPool:  true,
		pool:     pool,
		runStart: time.Now(),
		rng:      rand.New(rand.NewSource(1)),
	}
	if p.Batch > 1 {
		r.bsess = sess.(BatchSession)
	}
	if as, ok := sess.(AsyncSession); ok {
		r.cas, r.cch = as, as.Completions()
	}
	r.reserve(2*runs + 2*opsChunk)
	r.begin(time.Now())
	return r
}

// gate runs body under AllocsPerRun and fails on any per-op allocation.
func gate(t *testing.T, name string, runs int, body func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, body); avg != 0 {
		t.Errorf("%s: %.4f allocs/op in steady state, want 0", name, avg)
	}
}

// TestSyncCounterLoopZeroAlloc is the acceptance gate for the runner's
// synchronous hot path: claim → issueSync → consume at 0 allocs/op,
// sampled ops (histogram + timeline event) included.
func TestSyncCounterLoopZeroAlloc(t *testing.T) {
	const runs = 4096
	st := &testBatchCounter{}
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p := &Phase{Name: "steady", Goroutines: 1, Mix: 1, LatencySample: 64, Ops: 1 << 30}
	r := newAllocRunner(p, sess, runs)
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
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p := &Phase{Name: "steady", Goroutines: 1, Mix: 1, Batch: 16, LatencySample: 64, Ops: 1 << 30}
	r := newAllocRunner(p, sess, runs*16)
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
	p := &Phase{Name: "steady", Goroutines: 1, Mix: 1, Inflight: 8, LatencySample: 64, Ops: 1 << 30}
	r := newAllocRunner(p, sess, runs)
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
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p := &Phase{Name: "steady", Goroutines: 1, Mix: 1, Arrival: Uniform, LatencySample: 64, Ops: 1 << 30}
	r := newAllocRunner(p, sess, runs)
	r.open = true
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

// TestSteadyPhaseReportsZeroAllocs closes the loop end to end: a real
// driver run over the allocation-free atomic session path must *report*
// ≈ 0 allocs/op through the new memory metric — the measurement and the
// measured agree. The threshold leaves room for the handful of runtime-
// internal allocations (timer resets, GC bookkeeping) that land in the
// whole-process counters but amortize to well under one per op.
func TestSteadyPhaseReportsZeroAllocs(t *testing.T) {
	RegisterStructure(StructureInfo{
		Name:    "alloc-test-atomic",
		Summary: "test-only allocation-free counter",
		Kinds:   KindCounter,
		Caps:    CapBatch,
		New:     func(o Options) (Structure, error) { return &testBatchCounter{}, nil },
	})
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
