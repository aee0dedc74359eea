// Conformance suite for the session API: every structure registered by
// the real backends (the shared-memory zoo and the sim bridge) is driven
// through its sessions — sync, batch and async paths — under the race
// detector, held to what its registry entry declares, and its validation
// outcome is checked against the direct-call view where one exists.
// External test package so it can import the registering packages without
// a cycle.
package countq_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/countq"
	_ "repro/internal/arrow"    // registers sim-arrow-queue
	_ "repro/internal/counting" // registers sim-tree-counter
	"repro/internal/shm"
	"repro/internal/sim"
)

// Keep the zoo and the bridges registered (all self-register on import).
var (
	_ = shm.VariantSpecs
	_ = sim.BridgeConfig{}
)

// conformanceSpec returns the spec the suite drives a structure with:
// defaults for the zoo, a free-running network for the bridge so the suite
// measures correctness, not hop latency.
func conformanceSpec(info countq.StructureInfo) string {
	if strings.HasPrefix(info.Name, "sim-") {
		return info.Name + "?hoplat=0"
	}
	return info.Name
}

// TestSessionConformance drives every registered structure through the
// workload driver's session paths. Each path ends in the driver's own
// validation pass (counts gap-free, predecessors one total order), so a
// pass here proves every structure's sessions keep its correctness
// contract.
func TestSessionConformance(t *testing.T) {
	for _, info := range countq.Structures() {
		info := info
		t.Run(fmt.Sprintf("%s-%s", info.Name, info.Kinds), func(t *testing.T) {
			t.Parallel()
			spec := conformanceSpec(info)
			base := countq.Workload{Goroutines: 4, Ops: 1200, Seed: 1}
			if info.Kinds.Has(countq.KindCounter) {
				base.Counter = spec
			} else {
				base.Queue = spec
			}
			paths := []countq.Workload{base}
			if info.Caps.Has(countq.CapBatch) {
				w := base
				w.Batch = 16
				paths = append(paths, w)
			}
			if info.Caps.Has(countq.CapAsync) {
				w := base
				w.Inflight = 8
				paths = append(paths, w)
			}
			for _, w := range paths {
				m, err := countq.Run(w)
				if err != nil {
					t.Errorf("driver path %+v: %v", w, err)
					continue
				}
				if m.Aggregate.Ops != w.Ops {
					t.Errorf("driver path %+v: ops = %d, want %d", w, m.Aggregate.Ops, w.Ops)
				}
			}
		})
	}
}

// TestSessionMatchesLegacyValidation drives each counter structure twice
// with the same shape — once through sessions, once through the
// direct-call view (countq.NewCounter: the structure's own Inc, called
// concurrently with no session) — and asserts the two paths reach the same
// validation verdict. It is the concurrent test of the kept view.
func TestSessionMatchesLegacyValidation(t *testing.T) {
	const workers, perWorker = 4, 64
	for _, info := range countq.Structures() {
		if !info.Kinds.Has(countq.KindCounter) {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			spec := conformanceSpec(info)

			// Session path, driven by hand (not via Run) so the suite
			// checks the session layer itself, not just the driver.
			st, err := countq.NewStructure(spec, countq.KindCounter)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			var mu0 sync.Mutex
			var sessionCounts []int64
			var wg0 sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg0.Add(1)
				go func() {
					defer wg0.Done()
					sess, err := st.NewSession()
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
					mu0.Lock()
					sessionCounts = append(sessionCounts, local...)
					mu0.Unlock()
				}()
			}
			wg0.Wait()
			sessionCounts = append(sessionCounts, countq.DrainCounts(st)...)
			sessionErr := countq.ValidateCounts(sessionCounts)

			// Direct-call path, when the structure has the view.
			direct, err := countq.NewCounter(spec)
			if err != nil {
				// Async structures have no direct-call view; the session
				// verdict stands alone but must be clean.
				if sessionErr != nil {
					t.Errorf("session path failed validation: %v", sessionErr)
				}
				return
			}
			var directCounts []int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					local := make([]int64, 0, perWorker)
					for i := 0; i < perWorker; i++ {
						local = append(local, direct.Inc())
					}
					mu.Lock()
					directCounts = append(directCounts, local...)
					mu.Unlock()
				}()
			}
			wg.Wait()
			if d, ok := direct.(countq.Drainer); ok {
				directCounts = append(directCounts, d.Drain()...)
			}
			directErr := countq.ValidateCounts(directCounts)

			if (sessionErr == nil) != (directErr == nil) {
				t.Errorf("validation verdicts diverge: session %v, direct %v", sessionErr, directErr)
			}
			if sessionErr != nil {
				t.Errorf("session path failed validation: %v", sessionErr)
			}
		})
	}
}

func closeIfCloser(st countq.Structure) {
	if c, ok := st.(interface{ Close() error }); ok {
		c.Close()
	}
}

// TestSessionCloseSurrendersLeases pins the lease contract: a leasing
// counter driven through sessions must, after every session is closed,
// drain to a gap-free range — Session.Close surrenders the per-session
// lease remainder.
func TestSessionCloseSurrendersLeases(t *testing.T) {
	st, err := countq.NewStructure("sharded?shards=4&batch=16", countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for s := 0; s < 3; s++ {
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ { // 10 < 16: a remainder stays leased
			v, err := sess.Inc(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, v)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	counts = append(counts, countq.DrainCounts(st)...)
	if err := countq.ValidateCounts(counts); err != nil {
		t.Fatalf("drained counts invalid: %v", err)
	}
}

// TestAsyncSessionContextCancellation pins the AsyncSession cancellation
// contract for every async-capable structure: a cancelled context is
// refused at Submit and at the synchronous entry points, and the session
// keeps working afterwards.
func TestAsyncSessionContextCancellation(t *testing.T) {
	for _, info := range countq.Structures() {
		if !info.Caps.Has(countq.CapAsync) {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			kind := countq.KindCounter
			op := countq.Op{Kind: countq.OpInc, N: 1}
			if !info.Kinds.Has(countq.KindCounter) {
				kind = countq.KindQueue
				op = countq.Op{Kind: countq.OpEnqueue, ID: 7}
			}
			st, err := countq.NewStructure(conformanceSpec(info), kind)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			sess, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			as, ok := sess.(countq.AsyncSession)
			if !ok {
				t.Fatalf("structure %s declares CapAsync but its session is not an AsyncSession", info.Name)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if err := as.Submit(cancelled, op); err == nil {
				t.Error("Submit with a cancelled context accepted")
			}
			if kind == countq.KindCounter {
				if _, err := sess.Inc(cancelled); err == nil {
					t.Error("Inc with a cancelled context accepted")
				}
			} else {
				if _, err := sess.Enqueue(cancelled, 9); err == nil {
					t.Error("Enqueue with a cancelled context accepted")
				}
			}
			// The session survives refused submissions: one live round trip.
			if err := as.Submit(context.Background(), op); err != nil {
				t.Fatalf("live Submit after cancelled attempts: %v", err)
			}
			c := <-as.Completions()
			if c.Err != nil {
				t.Fatalf("completion after cancelled attempts: %v", c.Err)
			}
		})
	}
}

// TestSessionKindGating pins ErrUnsupported: the wrong op kind on a
// single-kind structure's session reports the sentinel, for every
// registered structure.
func TestSessionKindGating(t *testing.T) {
	for _, info := range countq.Structures() {
		if info.Kinds.Has(countq.KindCounter) && info.Kinds.Has(countq.KindQueue) {
			continue // dual-kind structures gate nothing
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			kind := countq.KindCounter
			if !info.Kinds.Has(countq.KindCounter) {
				kind = countq.KindQueue
			}
			st, err := countq.NewStructure(conformanceSpec(info), kind)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			sess, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if kind == countq.KindCounter {
				_, err = sess.Enqueue(context.Background(), 1)
			} else {
				_, err = sess.Inc(context.Background())
			}
			if err == nil {
				t.Fatal("wrong-kind operation accepted")
			}
			if !strings.Contains(err.Error(), countq.ErrUnsupported.Error()) {
				t.Errorf("wrong-kind error does not wrap ErrUnsupported: %v", err)
			}
		})
	}
}

// checkDeclaration holds one registry entry to what it declares, through
// a real construction: the entry builds from zero Options (every param
// has a default), and a session from NewSession implements BatchSession
// exactly when CapBatch is declared (counter kinds; a queue's session may
// carry an IncN it rejects) and AsyncSession exactly when CapAsync is. A
// declared BatchSession also refuses an empty block. Every declared param
// is read: see countq.CheckParamsRead.
func checkDeclaration(info countq.StructureInfo) error {
	if err := countq.CheckParamsRead(info.Name, info.Params, func(o countq.Options) error {
		st, err := info.New(o)
		if err == nil {
			closeIfCloser(st)
		}
		return err
	}); err != nil {
		return err
	}
	st, err := info.New(countq.Options{})
	if err != nil {
		return fmt.Errorf("%s does not build at its defaults: %w", info.Name, err)
	}
	defer closeIfCloser(st)
	sess, err := st.NewSession()
	if err != nil {
		return fmt.Errorf("%s: NewSession: %w", info.Name, err)
	}
	defer sess.Close()
	bs, isBatch := sess.(countq.BatchSession)
	if declared := info.Caps.Has(countq.CapBatch); info.Kinds.Has(countq.KindCounter) && declared != isBatch {
		return fmt.Errorf("%s: CapBatch declared = %v, but its session is a BatchSession = %v", info.Name, declared, isBatch)
	}
	_, isAsync := sess.(countq.AsyncSession)
	if declared := info.Caps.Has(countq.CapAsync); declared != isAsync {
		return fmt.Errorf("%s: CapAsync declared = %v, but its session is an AsyncSession = %v", info.Name, declared, isAsync)
	}
	if info.Caps.Has(countq.CapBatch) {
		if _, err := bs.IncN(context.Background(), 0); err == nil {
			return fmt.Errorf("%s: IncN(0) accepted", info.Name)
		}
	}
	return nil
}

// TestRegistryV3Catalogue checks every registry entry against its own
// declaration (the job the init-time capability probe used to do for the
// synchronous half of the zoo, now registry-wide and in both directions),
// and pins the two catalogue facts the CLI and the benches rely on: the
// sim bridges are async-capable, and "mutex" names a counter and a queue.
func TestRegistryV3Catalogue(t *testing.T) {
	for _, info := range countq.Structures() {
		if err := checkDeclaration(info); err != nil {
			t.Error(err)
		}
	}
	for name, kind := range map[string]countq.Kind{"sim-counter": countq.KindCounter, "sim-queue": countq.KindQueue} {
		info, ok := countq.LookupStructure(name, kind)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if !info.Caps.Has(countq.CapAsync) {
			t.Errorf("%s does not declare CapAsync", name)
		}
	}
	// The name "mutex" is registered on both sides; the kind disambiguates.
	if _, ok := countq.LookupStructure("mutex", countq.KindCounter); !ok {
		t.Error("mutex counter not found")
	}
	if _, ok := countq.LookupStructure("mutex", countq.KindQueue); !ok {
		t.Error("mutex queue not found")
	}
}

// TestDeclarationCheckBites seeds a wrong declaration in each direction —
// a capability the sessions have but the entry omits, and one the entry
// claims but the sessions lack — plus a constructor with no default, a
// declared param the constructor never reads and one it reads with
// o.String but never checks, and requires checkDeclaration to reject
// every one.
func TestDeclarationCheckBites(t *testing.T) {
	atomic := func(countq.Options) (countq.Structure, error) { return shm.NewAtomicCounter(), nil }
	funnel := func(countq.Options) (countq.Structure, error) { return shm.NewFunnelCounter(0, 0, 0) }
	asyncFunnel := func(countq.Options) (countq.Structure, error) { return shm.NewAsyncFunnelCounter(8, 0) }
	funnelWidth := func(o countq.Options) (countq.Structure, error) {
		width := o.Int("width", 0)
		if err := o.Err(); err != nil {
			return nil, err
		}
		return shm.NewFunnelCounter(width, 0, 0)
	}
	mode := func(check bool) func(countq.Options) (countq.Structure, error) {
		return func(o countq.Options) (countq.Structure, error) {
			if m := o.String("mode", "plain"); check && m != "plain" {
				return nil, fmt.Errorf("mode=%q is not plain", m)
			}
			return shm.NewAtomicCounter(), nil
		}
	}
	width := []countq.ParamInfo{{Name: "width", Default: "0"}}
	modes := []countq.ParamInfo{{Name: "mode", Default: "plain"}}
	for _, bad := range []countq.StructureInfo{
		{Name: "atomic-without-batch", Kinds: countq.KindCounter, New: atomic},
		{Name: "funnel-with-batch", Kinds: countq.KindCounter, Caps: countq.CapBatch, New: funnel},
		{Name: "async-funnel-without-async", Kinds: countq.KindCounter, Caps: countq.CapBatch, New: asyncFunnel},
		{Name: "atomic-with-async", Kinds: countq.KindCounter, Caps: countq.CapBatch | countq.CapAsync, New: atomic},
		{Name: "no-default", Kinds: countq.KindCounter, New: func(countq.Options) (countq.Structure, error) {
			return nil, fmt.Errorf("param x is required")
		}},
		{Name: "funnel-width-unread", Kinds: countq.KindCounter, Params: width, New: funnel},
		{Name: "atomic-mode-unchecked", Kinds: countq.KindCounter, Caps: countq.CapBatch, Params: modes, New: mode(false)},
	} {
		if err := checkDeclaration(bad); err == nil {
			t.Errorf("%s: wrong declaration passed the check", bad.Name)
		}
	}
	// And the honest twins pass.
	for _, good := range []countq.StructureInfo{
		{Name: "atomic", Kinds: countq.KindCounter, Caps: countq.CapBatch, New: atomic},
		{Name: "funnel", Kinds: countq.KindCounter, New: funnel},
		{Name: "funnel-width", Kinds: countq.KindCounter, Params: width, New: funnelWidth},
		{Name: "atomic-mode", Kinds: countq.KindCounter, Caps: countq.CapBatch, Params: modes, New: mode(true)},
	} {
		if err := checkDeclaration(good); err != nil {
			t.Error(err)
		}
	}
}

// TestCounterAdapterSessions pins a native counter session's contract on
// the one that holds state: a sharded session leases privately, rejects
// the queue operation and a cancelled context, and Close surrenders the
// lease remainder so the drained range closes.
func TestCounterAdapterSessions(t *testing.T) {
	st, err := countq.NewStructure("sharded?shards=2&batch=4", countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for i := 0; i < 6; i++ { // 6 is not a multiple of the lease (4)
		v, err := sess.Inc(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, v)
	}
	if _, err := sess.Enqueue(context.Background(), 1); !errors.Is(err, countq.ErrUnsupported) {
		t.Errorf("Enqueue on a counter session: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	counts = append(counts, countq.DrainCounts(st)...)
	if err := countq.ValidateCounts(counts); err != nil {
		t.Errorf("session leaked its lease: %v", err)
	}
	// Cancelled contexts are refused before touching the structure.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sess2, _ := st.NewSession()
	defer sess2.Close()
	if _, err := sess2.Inc(cancelled); err == nil {
		t.Error("Inc with a cancelled context accepted")
	}
	if left := countq.DrainCounts(st); len(left) != 0 {
		t.Errorf("refused Inc leased %d counts", len(left))
	}
}

// TestBatchAdapterSession pins the block-grant contract of the three
// batching counters' sessions: a grant is a valid range and a cancelled
// context is refused (checkDeclaration refuses the empty block).
func TestBatchAdapterSession(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"atomic", "mutex", "sharded"} {
		st, err := countq.NewStructure(name, countq.KindCounter)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		bs, ok := sess.(countq.BatchSession)
		if !ok {
			t.Fatalf("%s session is not a BatchSession", name)
		}
		first, err := bs.IncN(context.Background(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := countq.ValidateCountRanges(nil, []countq.CountRange{{First: first, N: 8}}); err != nil {
			t.Errorf("%s: block grant invalid: %v", name, err)
		}
		if _, err := bs.IncN(cancelled, 8); err == nil {
			t.Errorf("%s: IncN with a cancelled context accepted", name)
		}
		sess.Close()
	}
}

// TestQueueAdapterSession pins a native queue session's contract for the
// three synchronous queues: the first predecessor is Head, the counter
// operation and a cancelled context are refused.
func TestQueueAdapterSession(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"swap", "list", "mutex"} {
		st, err := countq.NewStructure(name, countq.KindQueue)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := sess.Enqueue(context.Background(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if pr != countq.Head {
			t.Errorf("%s: first predecessor = %d, want Head", name, pr)
		}
		if _, err := sess.Inc(context.Background()); !errors.Is(err, countq.ErrUnsupported) {
			t.Errorf("%s: Inc on a queue session: %v", name, err)
		}
		if _, err := sess.Enqueue(cancelled, 43); err == nil {
			t.Errorf("%s: Enqueue with a cancelled context accepted", name)
		}
		sess.Close()
	}
}

// allocSlack is TestRegistryCost's stray-allocation allowance per op: the
// runtime's own rare allocations (GC work the by-design allocators
// trigger, a bridge pump's scheduling) land in the global counters too.
// One allocation per 64 ops reads 0.0156, 7.8× over it.
const allocSlack = 2e-3

// allocsByDesign pins the entries whose per-op path allocates on purpose:
// combining publishes a fresh reply channel per Inc, list links a fresh
// node per Enqueue. Every other entry's paths allocate nothing.
var allocsByDesign = map[string]float64{"combining": 1, "list": 1}

// costPath is one declared per-op path of a session: a call of run
// performs ops operations.
type costPath struct {
	name string
	ops  int
	run  func() error
}

// costPaths returns the paths sess declares: the synchronous Inc or
// Enqueue, IncN(16) under CapBatch (counters), and under CapAsync eight
// Submits followed by draining their eight completions.
func costPaths(info countq.StructureInfo, kind countq.Kind, sess countq.Session) []costPath {
	ctx := context.Background()
	var id int64
	one := costPath{"sync", 1, func() error { _, err := sess.Inc(ctx); return err }}
	if kind == countq.KindQueue {
		one.run = func() error { id++; _, err := sess.Enqueue(ctx, id); return err }
	}
	paths := []costPath{one}
	if kind == countq.KindCounter && info.Caps.Has(countq.CapBatch) {
		bs := sess.(countq.BatchSession)
		paths = append(paths, costPath{"incn16", 1, func() error { _, err := bs.IncN(ctx, 16); return err }})
	}
	if info.Caps.Has(countq.CapAsync) {
		as := sess.(countq.AsyncSession)
		op := countq.Op{Kind: countq.OpInc, N: 1}
		if kind == countq.KindQueue {
			op = countq.Op{Kind: countq.OpEnqueue}
		}
		paths = append(paths, costPath{"async8", 8, func() error {
			for i := 0; i < 8; i++ {
				id++
				op.ID = id
				if err := as.Submit(ctx, op); err != nil {
					return err
				}
			}
			for i := 0; i < 8; i++ {
				if c := <-as.Completions(); c.Err != nil {
					return c.Err
				}
			}
			return nil
		}})
	}
	return paths
}

// openCost builds spec and opens one session on it.
func openCost(t *testing.T, spec string, kind countq.Kind) (countq.Session, func()) {
	t.Helper()
	st, err := countq.NewStructure(spec, kind)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.NewSession()
	if err != nil {
		closeIfCloser(st)
		t.Fatal(err)
	}
	return sess, func() { sess.Close(); closeIfCloser(st) }
}

// runCost calls p.run until n operations are done.
func runCost(t *testing.T, p costPath, n int) {
	t.Helper()
	for i := 0; i < n; i += p.ops {
		if err := p.run(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	}
}

// syncTime times n operations of a fresh structure's synchronous path.
func syncTime(t *testing.T, info countq.StructureInfo, spec string, kind countq.Kind, n int) time.Duration {
	t.Helper()
	sess, done := openCost(t, spec, kind)
	defer done()
	one := costPaths(info, kind, sess)[0]
	start := time.Now()
	runCost(t, one, n)
	return time.Since(start)
}

// TestRegistryCost is the registry-wide cost gate, over every entry at its
// conformance spec and every canonical variant (shm.VariantSpecs), at one
// P (where a bridge's session and pump share it, its one stable mode), on
// one session warmed by 10⁴ operations per path:
//
//   - allocations, counted exactly: the malloc count over 10⁵ operations
//     of each declared path, per operation, must match allocsByDesign
//     within allocSlack (a path that allocates once per 64-count lease
//     reads 0.0156);
//   - growth, bounded: the synchronous path's time per operation over 2¹⁶
//     operations may be at most 8× its time over 2¹², each the best of
//     five runs on a fresh structure, the sizes interleaved. An operation
//     whose cost grows with the operations before it (a history rescanned
//     on every increment reads ≈ 16×) fails; load on the host moves both
//     sizes alike.
//
// The budgets are sized for an operation of at most 1 µs. A spec whose
// first 256 synchronous operations on a fresh structure cost more each
// divides every budget by the power of two that covers the excess, at
// most 16: a bridge round trip (≈ 1.2 µs at one P) runs half, and a lone
// session spinning out a back-off meant for partners
// (async-funnel?spin=64, ≈ 13 µs) a sixteenth. The smaller budgets still
// resolve the slack and the growth factor, and a cost that grows with the
// operations before it is cheap over the first 256, so it cannot buy
// itself a smaller budget.
//
// It runs without t.Parallel, so no other test's allocations land in the
// count, and not under the race detector.
func TestRegistryCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation and timing")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, ops, small, large = 10_000, 100_000, 1 << 12, 1 << 16
	const probe, cheap = 256, time.Microsecond
	variants := shm.VariantSpecs()
	for _, info := range countq.Structures() {
		kind := countq.KindCounter
		if !info.Kinds.Has(countq.KindCounter) {
			kind = countq.KindQueue
		}
		for _, spec := range append([]string{conformanceSpec(info)}, variants[info.Name]...) {
			t.Run(fmt.Sprintf("%s-%s", spec, kind), func(t *testing.T) {
				op := syncTime(t, info, spec, kind, probe) / probe
				scale := 1
				for scale < 16 && op > time.Duration(scale)*cheap {
					scale *= 2
				}
				sess, done := openCost(t, spec, kind)
				defer done()
				want := allocsByDesign[info.Name]
				for _, p := range costPaths(info, kind, sess) {
					runCost(t, p, warm/scale)
					var runErr error
					got := countq.AllocsPerOp(ops/scale/p.ops, func() {
						if err := p.run(); err != nil && runErr == nil {
							runErr = err
						}
					}) / float64(p.ops)
					if runErr != nil {
						t.Fatalf("%s: %v", p.name, runErr)
					}
					t.Logf("%s: %.5f allocs/op", p.name, got)
					if math.Abs(got-want) > allocSlack {
						t.Errorf("%s: %.5f allocs/op, want %g", p.name, got, want)
					}
				}
				n, m := small/scale, large/scale
				best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
				for r := 0; r < 5; r++ {
					best[0] = min(best[0], syncTime(t, info, spec, kind, n))
					best[1] = min(best[1], syncTime(t, info, spec, kind, m))
				}
				perOp := [2]float64{float64(best[0]) / float64(n), float64(best[1]) / float64(m)}
				g := perOp[1] / perOp[0]
				t.Logf("sync: grows %.2f× from %d to %d ops", g, n, m)
				if g > 8 {
					t.Errorf("sync: %.1f ns/op over %d ops, %.1f over %d: grows %.1f×, want ≤ 8×", perOp[0], n, perOp[1], m, g)
				}
			})
		}
	}
}
