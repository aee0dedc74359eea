package countq

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// testNativeStructure is a minimal async-capable structure with no
// direct-call view: sessions serve Inc off a shared counter and complete
// submissions immediately, so the registry and driver seams can be tested
// without internal/sim.
type testNativeStructure struct {
	mu   sync.Mutex
	next int64
}

func (s *testNativeStructure) NewSession() (Session, error) {
	return &testNativeSession{s: s, out: make(chan Completion, 16)}, nil
}

type testNativeSession struct {
	s   *testNativeStructure
	out chan Completion
}

func (n *testNativeSession) inc() int64 {
	n.s.mu.Lock()
	defer n.s.mu.Unlock()
	n.s.next++
	return n.s.next
}

func (n *testNativeSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return n.inc(), nil
}

func (n *testNativeSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return 0, ErrUnsupported
}

func (n *testNativeSession) Close() error { return nil }

func (n *testNativeSession) Submit(ctx context.Context, op Op) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if op.Kind != OpInc {
		return ErrUnsupported
	}
	n.out <- Completion{Op: op, Value: n.inc()}
	return nil
}

func (n *testNativeSession) Completions() <-chan Completion { return n.out }

var registerNativeTestStructure = sync.OnceFunc(func() {
	RegisterStructure(StructureInfo{
		Name:    "test-native",
		Summary: "async session structure without a direct-call view",
		Kinds:   KindCounter,
		Caps:    CapAsync,
		New: func(o Options) (Structure, error) {
			if err := o.Err(); err != nil {
				return nil, err
			}
			return &testNativeStructure{}, nil
		},
	})
})

func TestKindAndCapsStrings(t *testing.T) {
	if got := (KindCounter | KindQueue).String(); got != "counter+queue" {
		t.Errorf("kind string = %q", got)
	}
	if got := KindQueue.String(); got != "queue" {
		t.Errorf("kind string = %q", got)
	}
	if got := Caps(0).String(); got != "-" {
		t.Errorf("empty caps = %q", got)
	}
	if got := (CapHandle | CapBatch | CapAsync).String(); got != "handle,batch,async" {
		t.Errorf("caps string = %q", got)
	}
}

func TestStructureRegistryLookups(t *testing.T) {
	registerTestImpls()
	registerNativeTestStructure()
	// A counter is visible as a structure of kind counter only.
	if _, ok := LookupStructure("test-alpha", KindCounter); !ok {
		t.Error("test-alpha missing from the structure registry")
	}
	if _, ok := LookupStructure("test-alpha", KindQueue); ok {
		t.Error("test-alpha wrongly serves the queue kind")
	}
	// Declared capabilities.
	if info, _ := LookupStructure("test-batch", KindCounter); !info.Caps.Has(CapBatch) {
		t.Error("test-batch does not declare CapBatch")
	}
	if info, _ := LookupStructure("test-handle", KindCounter); !info.Caps.Has(CapHandle) {
		t.Error("test-handle does not declare CapHandle")
	}
	if info, _ := LookupStructure("test-alpha", KindCounter); info.Caps != 0 {
		t.Errorf("test-alpha declares caps %v", info.Caps)
	}
	// Unknown names report the kind's alternatives.
	if _, err := NewStructure("no-such", KindCounter); err == nil || !strings.Contains(err.Error(), "test-alpha") {
		t.Errorf("unknown structure error: %v", err)
	}
	// Undeclared params are rejected before construction.
	if _, err := NewStructure("test-native?x=1", KindCounter); err == nil {
		t.Error("undeclared param accepted")
	}
}

func TestNativeStructureHasNoLegacyView(t *testing.T) {
	registerNativeTestStructure()
	_, err := NewCounter("test-native")
	if err == nil {
		t.Fatal("NewCounter on a native structure accepted")
	}
	if !strings.Contains(err.Error(), "synchronous") {
		t.Errorf("error does not explain the missing synchronous view: %v", err)
	}
	// It is a registered structure all the same.
	found := false
	for _, info := range Structures() {
		if info.Name == "test-native" {
			found = true
		}
	}
	if !found {
		t.Error("native structure missing from Structures()")
	}
}

func TestDriverAsyncAgainstNativeStructure(t *testing.T) {
	registerTestImpls()
	registerNativeTestStructure()
	m, err := Run(Workload{Counter: "test-native", Goroutines: 3, Ops: 900, Inflight: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Ops != 900 {
		t.Errorf("async ops = %d, want 900", m.Aggregate.Ops)
	}
	if m.Aggregate.CounterCorr == nil {
		t.Error("async run recorded no corrected latency")
	}
	// Inflight against a sync-only structure fails loudly, naming the
	// capability.
	_, err = Run(Workload{Counter: "test-alpha", Ops: 200, Inflight: 4})
	if err == nil {
		t.Fatal("inflight against a sync-only counter accepted")
	}
	if !strings.Contains(err.Error(), "AsyncSession") {
		t.Errorf("inflight error does not name the capability: %v", err)
	}
	// Fairshare cannot combine with pipelining.
	if _, err := Run(Workload{Counter: "test-native", Ops: 200, Inflight: 4, Arrival: Fairshare}); err == nil {
		t.Error("fairshare + inflight accepted")
	}
}

func TestDriverFairshareArrival(t *testing.T) {
	registerTestImpls()
	m, err := Run(Workload{Counter: "test-alpha", Goroutines: 4, Ops: 8000, Arrival: Fairshare, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.Ops != 8000 {
		t.Errorf("fairshare ops = %d, want 8000", m.Aggregate.Ops)
	}
	// The rotating grant hands every worker the same share regardless of
	// scheduler placement — that is the pattern's whole purpose.
	if m.Phases[0].Fairness < 0.9 {
		t.Errorf("fairshare fairness = %v, want ≥ 0.9 (worker ops %v)", m.Phases[0].Fairness, m.Phases[0].WorkerOps)
	}
	if m.Phases[0].Arrival != "fairshare" {
		t.Errorf("arrival = %q", m.Phases[0].Arrival)
	}
	if _, err := ParseArrival("fairshare"); err != nil {
		t.Errorf("ParseArrival(fairshare): %v", err)
	}
}

func TestDriverCorrectedLatency(t *testing.T) {
	registerTestImpls()
	// Open arrivals record corrected quantiles; the corrected response
	// time can never undercut the service time it contains.
	m, err := Run(Workload{Counter: "test-alpha", Goroutines: 2, Ops: 4000, Arrival: Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corr := m.Aggregate.CounterCorr
	if corr == nil {
		t.Fatal("uniform arrivals recorded no corrected latency")
	}
	if svc := m.Aggregate.CounterLat; corr.P50Ns < svc.P50Ns {
		t.Errorf("corrected p50 %v below service p50 %v", corr.P50Ns, svc.P50Ns)
	}
	// Plain closed loops record none: the columns would duplicate the
	// service distribution.
	m, err = Run(Workload{Counter: "test-alpha", Goroutines: 2, Ops: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.CounterCorr != nil {
		t.Error("closed loop recorded corrected latency")
	}
}

func TestOptionsDurationAndString(t *testing.T) {
	var o Options
	o.Set("hoplat", "2us")
	o.Set("topo", "star")
	if d := o.Duration("hoplat", time.Millisecond); d != 2*time.Microsecond {
		t.Errorf("Duration = %v", d)
	}
	if s := o.String("topo", "x"); s != "star" {
		t.Errorf("String = %q", s)
	}
	if s := o.String("absent", "fallback"); s != "fallback" {
		t.Errorf("String default = %q", s)
	}
	if d := o.Duration("absent", 3*time.Second); d != 3*time.Second {
		t.Errorf("Duration default = %v", d)
	}
	o.Set("bad", "soon")
	if o.Duration("bad", 0); o.Err() == nil {
		t.Error("malformed duration accepted")
	}
	var zero Options
	zero.Set("z", "0")
	if d := zero.Duration("z", time.Second); d != 0 {
		t.Errorf("bare zero duration = %v", d)
	}
}

func TestCampaignEntryOverrides(t *testing.T) {
	registerTestImpls()
	cmp, err := Campaign{
		Base: Workload{Ops: 4000, Seed: 1, Goroutines: 2},
		Entries: []Entry{
			{Counter: "test-batch"},
			{Counter: "test-batch", Batch: 32},
			{Counter: "test-batch", Goroutines: 4},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"test-batch", "test-batch@batch=32", "test-batch@g=4"}
	for i, want := range labels {
		if got := cmp.Results[i].Label; got != want {
			t.Errorf("label[%d] = %q, want %q", i, got, want)
		}
	}
	if got := cmp.Results[1].Metrics.Phases[0].Batch; got != 32 {
		t.Errorf("batch override: phase batch = %d", got)
	}
	if got := cmp.Results[2].Metrics.Phases[0].Goroutines; got != 4 {
		t.Errorf("goroutine override: phase g = %d", got)
	}
	// Overrides participate in the duplicate-label check: the same spec
	// twice without distinct overrides is rejected.
	_, err = Campaign{
		Base:    Workload{Ops: 1000},
		Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-alpha"}},
	}.Run()
	if err == nil {
		t.Error("duplicate entries accepted")
	}
	// Batch override against a non-batching counter fails loudly.
	_, err = Campaign{
		Base:    Workload{Ops: 1000},
		Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-alpha", Batch: 16}},
	}.Run()
	if err == nil {
		t.Error("batch override against a non-batching counter accepted")
	}
}
