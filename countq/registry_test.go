package countq

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The fakes below are minimal in-package structures so the registry and
// driver can be tested without importing internal/shm (which would
// register its own entries and couple the tests to that set). Each keeps
// its direct-call methods — the NewCounter/NewQueue views and DrainCounts
// see the fake itself — and serves sessions through the one helper
// sessionOver.

// fakeSession forwards a session's operations to a fake's direct-call
// methods; a nil inc or enq is the kind the fake does not serve.
type fakeSession struct {
	inc   func() int64
	enq   func(int64) int64
	close func()
}

func (s *fakeSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.inc == nil {
		return 0, fmt.Errorf("fake: Inc on a queue session: %w", ErrUnsupported)
	}
	return s.inc(), nil
}

func (s *fakeSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.enq == nil {
		return 0, fmt.Errorf("fake: Enqueue on a counter session: %w", ErrUnsupported)
	}
	return s.enq(id), nil
}

func (s *fakeSession) Close() error {
	if s.close != nil {
		s.close()
	}
	return nil
}

// fakeBatchSession adds IncN for fakes that have one.
type fakeBatchSession struct {
	fakeSession
	incN func(int64) int64
}

func (s *fakeBatchSession) IncN(ctx context.Context, n int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("fake: IncN(%d): block size must be ≥ 1", n)
	}
	return s.incN(n), nil
}

// sessionOver builds a session over whichever of Inc / IncN / Enqueue the
// fake x has.
func sessionOver(x any) Session {
	var s fakeSession
	if c, ok := x.(Counter); ok {
		s.inc = c.Inc
	}
	if q, ok := x.(Queuer); ok {
		s.enq = q.Enqueue
	}
	if b, ok := x.(interface{ IncN(int64) int64 }); ok {
		return &fakeBatchSession{s, b.IncN}
	}
	return &s
}

type testCounter struct{ v atomic.Int64 }

func (c *testCounter) Inc() int64                   { return c.v.Add(1) }
func (c *testCounter) NewSession() (Session, error) { return sessionOver(c), nil }

// testParamCounter exercises the options path: "start" offsets the first
// count (useful only to observe that the parameter arrived).
type testParamCounter struct {
	start int64
	v     atomic.Int64
}

func (c *testParamCounter) Inc() int64                   { return c.start + c.v.Add(1) }
func (c *testParamCounter) NewSession() (Session, error) { return sessionOver(c), nil }

// testBatchCounter grants blocks: one atomic word, allocation-free by
// construction (the alloc gates drive it too).
type testBatchCounter struct{ v atomic.Int64 }

func (c *testBatchCounter) Inc() int64                   { return c.v.Add(1) }
func (c *testBatchCounter) IncN(n int64) int64           { return c.v.Add(n) - n + 1 }
func (c *testBatchCounter) NewSession() (Session, error) { return sessionOver(c), nil }

// testHandleCounter is a leasing counter and Drainer in miniature: each
// session leases blocks of testLease counts off the shared high-water
// mark, Close surrenders the remainder, Drain returns every surrendered
// count.
type testHandleCounter struct {
	next   atomic.Int64
	closes atomic.Int64
	mu     sync.Mutex
	free   []int64
}

const testLease = 4

func (c *testHandleCounter) Inc() int64 { return c.next.Add(1) }

func (c *testHandleCounter) NewSession() (Session, error) {
	h := &testHandle{c: c}
	return &fakeSession{inc: h.Inc, close: h.Close}, nil
}

func (c *testHandleCounter) Drain() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.free
	c.free = nil
	return out
}

type testHandle struct {
	c      *testHandleCounter
	lo, hi int64 // private lease: [lo, hi) remain
}

func (h *testHandle) Inc() int64 {
	if h.lo == h.hi {
		hi := h.c.next.Add(testLease)
		h.lo, h.hi = hi-testLease+1, hi+1
	}
	v := h.lo
	h.lo++
	return v
}

func (h *testHandle) Close() {
	h.c.closes.Add(1)
	h.c.mu.Lock()
	for v := h.lo; v < h.hi; v++ {
		h.c.free = append(h.c.free, v)
	}
	h.c.mu.Unlock()
	h.lo, h.hi = 0, 0
}

// lastHandleCounter is the most recent test-handle instance the registry
// constructed, so driver tests can observe session lifecycle counts.
var lastHandleCounter atomic.Pointer[testHandleCounter]

type testQueue struct {
	mu   sync.Mutex
	tail int64
}

func (q *testQueue) Enqueue(id int64) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.tail
	q.tail = id
	return p
}

func (q *testQueue) NewSession() (Session, error) { return sessionOver(q), nil }

var registerTestImpls = sync.OnceFunc(func() {
	RegisterStructure(StructureInfo{
		Name: "test-zulu", Summary: "test counter z", Kinds: KindCounter, Linearizable: true,
		New: func(Options) (Structure, error) { return &testCounter{}, nil },
	})
	RegisterStructure(StructureInfo{
		Name: "test-alpha", Summary: "test counter a", Kinds: KindCounter, Linearizable: true,
		New: func(Options) (Structure, error) { return &testCounter{}, nil },
	})
	RegisterStructure(StructureInfo{
		Name: "test-param", Summary: "test counter with a declared param", Kinds: KindCounter, Linearizable: true,
		Params: []ParamInfo{{Name: "start", Default: "0", Doc: "offset added to every count"}},
		New: func(o Options) (Structure, error) {
			start := o.Int64("start", 0)
			if err := o.Err(); err != nil {
				return nil, err
			}
			return &testParamCounter{start: start}, nil
		},
	})
	RegisterStructure(StructureInfo{
		Name: "test-batch", Summary: "test counter with IncN", Kinds: KindCounter, Linearizable: true,
		Caps: CapBatch,
		New:  func(Options) (Structure, error) { return &testBatchCounter{}, nil },
	})
	RegisterStructure(StructureInfo{
		Name: "test-handle", Summary: "test counter with per-session leases", Kinds: KindCounter,
		Caps: CapHandle,
		New: func(Options) (Structure, error) {
			c := &testHandleCounter{}
			lastHandleCounter.Store(c)
			return c, nil
		},
	})
	RegisterStructure(StructureInfo{
		Name: "test-queue", Summary: "test queue", Kinds: KindQueue, Linearizable: true,
		New: func(Options) (Structure, error) { return &testQueue{tail: Head}, nil },
	})
})

func TestRegistryConstructs(t *testing.T) {
	registerTestImpls()
	c, err := NewCounter("test-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Inc(); got != 1 {
		t.Errorf("first count = %d, want 1", got)
	}
	q, err := NewQueue("test-queue")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Enqueue(7); got != Head {
		t.Errorf("first pred = %d, want Head", got)
	}
	// Each New call must return a fresh instance, not shared state.
	c2, err := NewCounter("test-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Inc(); got != 1 {
		t.Errorf("second instance first count = %d, want 1", got)
	}
}

func TestRegistryParameterizedSpecs(t *testing.T) {
	registerTestImpls()
	// Parameter reaches the constructor.
	c, err := NewCounter("test-param?start=100")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Inc(); got != 101 {
		t.Errorf("parameterized first count = %d, want 101", got)
	}
	// Defaults when the spec omits the parameter.
	c, err = NewCounter("test-param")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Inc(); got != 1 {
		t.Errorf("default first count = %d, want 1", got)
	}
	// Unknown keys are rejected, naming the declared set.
	if _, err := NewCounter("test-param?strat=100"); err == nil {
		t.Error("unknown param key accepted")
	} else if !strings.Contains(err.Error(), "start") {
		t.Errorf("unknown-key error does not name declared params: %v", err)
	}
	// Structures with no declared params reject every key.
	if _, err := NewCounter("test-alpha?x=1"); err == nil {
		t.Error("param on a param-less counter accepted")
	}
	if _, err := NewQueue("test-queue?x=1"); err == nil {
		t.Error("param on a param-less queue accepted")
	}
	// Mistyped values surface the conversion error.
	if _, err := NewCounter("test-param?start=banana"); err == nil {
		t.Error("non-integer param value accepted")
	}
	// Malformed spec strings are rejected at parse time.
	if _, err := NewCounter("test-param?start"); err == nil {
		t.Error("key without value accepted")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	registerTestImpls()
	if _, err := NewCounter("no-such-counter"); err == nil {
		t.Error("unknown counter accepted")
	} else if !strings.Contains(err.Error(), "test-alpha") {
		t.Errorf("error does not name registered alternatives: %v", err)
	}
	if _, err := NewQueue("no-such-queue"); err == nil {
		t.Error("unknown queue accepted")
	} else if !strings.Contains(err.Error(), "test-queue") {
		t.Errorf("error does not name registered alternatives: %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	registerTestImpls()
	newCounter := func(Options) (Structure, error) { return &testCounter{}, nil }
	mustPanic(t, "duplicate counter", func() {
		RegisterStructure(StructureInfo{Name: "test-alpha", Kinds: KindCounter, New: newCounter})
	})
	mustPanic(t, "duplicate queue", func() {
		RegisterStructure(StructureInfo{
			Name: "test-queue", Kinds: KindQueue,
			New: func(Options) (Structure, error) { return &testQueue{}, nil },
		})
	})
	mustPanic(t, "empty counter name", func() {
		RegisterStructure(StructureInfo{Kinds: KindCounter, New: newCounter})
	})
	mustPanic(t, "nil queue constructor", func() {
		RegisterStructure(StructureInfo{Name: "test-nil", Kinds: KindQueue})
	})
	mustPanic(t, "no operation kind", func() {
		RegisterStructure(StructureInfo{Name: "test-nokind", New: newCounter})
	})
	mustPanic(t, "spec metacharacter in name", func() {
		RegisterStructure(StructureInfo{Name: "test?bad", Kinds: KindCounter, New: newCounter})
	})
	mustPanic(t, "duplicate param declaration", func() {
		RegisterStructure(StructureInfo{
			Name: "test-dup-param", Kinds: KindCounter,
			Params: []ParamInfo{{Name: "x"}, {Name: "x"}},
			New:    newCounter,
		})
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: registration did not panic", what)
		}
	}()
	f()
}

func TestRegistryDeterministicOrder(t *testing.T) {
	registerTestImpls()
	for round := 0; round < 5; round++ {
		names := StructureNames(KindCounter)
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("counter names not sorted: %v", names)
			}
		}
	}
	// "test-alpha" sorts before "test-zulu" regardless of registration
	// order (zulu was registered first).
	names := StructureNames(KindCounter)
	ai, zi := -1, -1
	for i, n := range names {
		switch n {
		case "test-alpha":
			ai = i
		case "test-zulu":
			zi = i
		}
	}
	if ai < 0 || zi < 0 || ai > zi {
		t.Errorf("deterministic order violated: %v", names)
	}
	// Structures lists the same entries in the same order.
	var infos []string
	for _, info := range Structures() {
		if info.Kinds.Has(KindCounter) {
			infos = append(infos, info.Name)
		}
	}
	if !slices.Equal(infos, names) {
		t.Errorf("Structures and StructureNames disagree: %v vs %v", infos, names)
	}
}

// checkParamsRead proves a registry entry reads every param it declares:
// built with that key alone set to a value no getter parses, build must
// fail and its error must name the key as "key=" (the getters' form). A
// declared knob the constructor never reads — or reads with o.String and
// never checks — builds instead. The other direction, a key read but
// undeclared, never reaches a constructor: checkParams rejects it first.
func checkParamsRead(name string, params []ParamInfo, build func(Options) error) error {
	const unparseable = "\x01"
	for _, p := range params {
		var o Options
		o.Set(p.Name, unparseable)
		err := build(o)
		if err == nil {
			return fmt.Errorf("%s: param %s=%q accepted: declared but never read", name, p.Name, unparseable)
		}
		if !strings.Contains(err.Error(), p.Name+"=") {
			return fmt.Errorf("%s: param %s=%q rejected without naming the key: %v", name, p.Name, unparseable, err)
		}
	}
	return nil
}
