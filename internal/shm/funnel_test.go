package shm

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/countq"
)

// The rendezvous tests drive the funnel through its unexported seam:
// floor = spin pins every record's wait budget at the ceiling, so the park
// / capture / withdraw paths the adaptive wait would starve in a short
// test stay hot. They also wrap the record constructor behind the pool and
// every session to list every record it creates, so the records'
// single-writer counts can be summed once the counter is quiescent. The
// deterministic cases go further and run inc on records the test owns,
// parking partners by hand, so each path is reached by construction rather
// than by luck of the schedule.

var waitModes = []struct {
	name   string
	pinned bool
}{{"adaptive", false}, {"pinned", true}}

// testFunnel is a funnel that remembers its records.
type testFunnel struct {
	*FunnelCounter
	mu   sync.Mutex
	recs []*funnelOp
}

func newTestFunnel(t *testing.T, width, depth, spin int, pinned bool) *testFunnel {
	t.Helper()
	c, err := NewFunnelCounter(width, depth, spin)
	if err != nil {
		t.Fatal(err)
	}
	if pinned {
		c.floor = c.spin
	}
	f := &testFunnel{FunnelCounter: c}
	newOp := c.newOp
	c.newOp = func() *funnelOp {
		op := newOp()
		f.mu.Lock()
		f.recs = append(f.recs, op)
		f.mu.Unlock()
		return op
	}
	return f
}

// stats sums the records' counts; call it only once every Inc has returned.
func (f *testFunnel) stats() (parks, adds int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, op := range f.recs {
		parks += op.parks
		adds += op.adds
	}
	return parks, adds
}

// parkByHand leaves op in s the way inc would have: carrying its own
// increment and nothing else.
func parkByHand(t *testing.T, s *slot[funnelOp], op *funnelOp) {
	t.Helper()
	op.count = 1
	op.children = op.children[:0]
	if !s.park(op) {
		t.Fatal("slot already occupied")
	}
}

// collect takes the base a captor delivered to a hand-parked op and
// returns the op's own count.
func collect(t *testing.T, op *funnelOp) int64 {
	t.Helper()
	base, ok := op.got.await(1)
	if !ok {
		t.Fatal("captured operation was never delivered its range")
	}
	return op.deliver(base)
}

func (f *testFunnel) slotsEmpty() bool {
	for _, layer := range f.layers {
		for i := range layer {
			if layer[i].w.Load() != nil {
				return false
			}
		}
	}
	return true
}

func TestRendezvousSlot(t *testing.T) {
	var s slot[funnelOp]
	a, b := new(funnelOp), new(funnelOp)
	if s.capture() != nil {
		t.Error("captured from an empty slot")
	}
	if !s.park(a) || s.park(b) {
		t.Error("park: want a accepted, b refused while a is parked")
	}
	if s.withdraw(b) {
		t.Error("withdrew a record that was not parked")
	}
	if s.capture() != a || s.withdraw(a) {
		t.Error("capture must take a, and a's withdraw must then fail")
	}
	// The benign ABA: a captor that loaded a before a left and came back
	// completes its CAS against a's second stay, which is as parked as the
	// first.
	s.park(a)
	stale := s.w.Load()
	s.withdraw(a)
	s.park(a)
	if !s.w.CompareAndSwap(stale, nil) || s.withdraw(a) {
		t.Error("a re-parked record must be capturable through a stale load")
	}
}

func TestDeliveryRearms(t *testing.T) {
	var d delivery
	if _, ok := d.await(3 * pollsPerYield); ok {
		t.Error("await reported a value nobody sent")
	}
	d.send(0) // zero is a value (the diffracting tree's "left"), not "pending"
	if v, ok := d.await(1); !ok || v != 0 {
		t.Errorf("await = %d, %v; want 0, true", v, ok)
	}
	if _, ok := d.await(1); ok {
		t.Error("a consumed delivery was seen twice")
	}
}

func TestWaitRange(t *testing.T) {
	r := waitRange{spin: 32}
	b, steps := r.spin, 0
	for ; b > 0; steps++ {
		b = r.missed(b)
	}
	if want := bits.Len(uint(r.spin)); steps != want {
		t.Errorf("ceiling reached 0 in %d misses, want log2(spin)+1 = %d", steps, want)
	}
	for _, want := range []int{1, 2, 4, 8, 16, 32, 32} {
		if b = r.met(b); b != want {
			t.Fatalf("met → %d, want %d", b, want)
		}
	}
	r.floor = r.spin
	if b = r.missed(b); b != r.spin {
		t.Errorf("pinned budget fell to %d", b)
	}
}

// TestFunnelRendezvousCapture: an operation that finds a parked one takes
// it along, applies both increments with one fetch-and-add and hands the
// captive the second count.
func TestFunnelRendezvousCapture(t *testing.T) {
	f := newTestFunnel(t, 1, 1, 8, true)
	a, b := f.newOp(), f.newOp()
	parkByHand(t, &f.layers[0][0], a)
	if v := f.inc(b); v != 1 {
		t.Errorf("captor got %d, want 1", v)
	}
	if v := collect(t, a); v != 2 {
		t.Errorf("captive got %d, want 2", v)
	}
	if parks, adds := f.stats(); adds != 1 || parks != 0 || f.v.Load() != 2 {
		t.Errorf("adds=%d parks=%d v=%d, want one fetch-and-add of 2 and no park by the captor", adds, parks, f.v.Load())
	}
}

// TestFunnelRendezvousTimeout: with nobody to meet, a pinned operation
// parks once per layer, times out, withdraws and applies itself.
func TestFunnelRendezvousTimeout(t *testing.T) {
	f := newTestFunnel(t, 1, 2, 8, true)
	op := f.newOp()
	for want := int64(1); want <= 5; want++ {
		if v := f.inc(op); v != want {
			t.Fatalf("inc = %d, want %d", v, want)
		}
		if !f.slotsEmpty() {
			t.Fatal("a timed-out operation left itself in a slot")
		}
	}
	if op.parks != 10 || op.adds != 5 || op.wait != f.spin {
		t.Errorf("parks=%d adds=%d wait=%d, want 10, 5 and the pinned %d", op.parks, op.adds, op.wait, f.spin)
	}
}

// TestFunnelRendezvousLateCapture reaches the narrowest window: captured
// after the last poll, so the failed withdraw is the only notification.
// On one P a goroutine loses the processor only where it yields, and with
// spin = pollsPerYield a parked operation yields exactly once, after its
// final poll — a partner that captures it can only have run there. (The
// scheduler may still pick the parked goroutine again instead of the
// partner, so the scenario repeats until the capture happens.)
func TestFunnelRendezvousLateCapture(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newTestFunnel(t, 1, 1, pollsPerYield, true)
	a, b := f.newOp(), f.newOp()
	for try := 0; try < 200; try++ {
		base := f.v.Load()
		parks, adds := a.parks, a.adds
		done := make(chan int64, 1)
		go func() { done <- f.inc(b) }()
		va, vb := f.inc(a), <-done
		if va+vb != 2*base+3 || va == vb {
			t.Fatalf("counts %d and %d after %d", va, vb, base)
		}
		if a.parks == parks+1 && a.adds == adds {
			if vb != base+1 || va != base+2 {
				t.Errorf("captor got %d, captive %d; want %d, %d", vb, va, base+1, base+2)
			}
			return
		}
	}
	t.Error("the partner never ran inside the parked operation's yield")
}

// TestFunnelRendezvousCaptureTree builds the two-level tree by hand — c
// parked in layer 0, a captures it and parks in layer 1, b captures a —
// and checks the three disjoint counts of b's single fetch-and-add. Lives
// after the first run the same records through the same slots: every one
// of them has been captured, delivered to and recycled (the ABA the slot
// has to shrug off), so a stale delivery word, child list or count shows
// as a wrong or repeated value.
func TestFunnelRendezvousCaptureTree(t *testing.T) {
	f := newTestFunnel(t, 1, 2, 1<<30, false) // a stays parked until b comes
	a, b, c := f.newOp(), f.newOp(), f.newOp()
	for life := int64(0); life < 3; life++ {
		parkByHand(t, &f.layers[0][0], c)
		done := make(chan int64, 1)
		go func() { done <- f.inc(a) }()
		for f.layers[1][0].w.Load() != a {
			runtime.Gosched()
		}
		b.wait = 0 // b parks nowhere: it walks past the empty layer 0 into a
		vb, va, vc := f.inc(b), <-done, collect(t, c)
		if base := 3 * life; vb != base+1 || va != base+2 || vc != base+3 {
			t.Fatalf("life %d: b=%d a=%d c=%d, want %d, %d, %d", life, vb, va, vc, base+1, base+2, base+3)
		}
		if !f.slotsEmpty() {
			t.Fatal("a slot still holds a captured record")
		}
	}
	if parks, adds := f.stats(); adds != 3 || parks != 3 {
		t.Errorf("adds=%d parks=%d, want one fetch-and-add per tree and a's one park each", adds, parks)
	}
}

func TestFunnelCounterValidates(t *testing.T) {
	for _, mode := range waitModes {
		for _, cfg := range []struct{ width, depth, spin int }{
			{1, 1, 4}, {2, 2, 16}, {4, 3, 8}, {0, 0, 0},
		} {
			c := newTestFunnel(t, cfg.width, cfg.depth, cfg.spin, mode.pinned)
			if _, err := MeasureCounter("funnel", c, 8, 300); err != nil {
				t.Errorf("%s funnel %+v: %v", mode.name, cfg, err)
			}
			if !c.slotsEmpty() {
				t.Errorf("%s funnel %+v: a record is still parked after every Inc returned", mode.name, cfg)
			}
		}
	}
	if _, err := NewFunnelCounter(-1, 0, 0); err == nil {
		t.Error("negative width accepted")
	}
}

// TestFunnelCounterLinearizable: a batch's fetch-and-add happens after
// every member has started, so the funnel — unlike the counting network —
// preserves real-time order.
func TestFunnelCounterLinearizable(t *testing.T) {
	for _, mode := range waitModes {
		c := newTestFunnel(t, 2, 2, 16, mode.pinned)
		spans := RecordSpans(c, 8, 300)
		if err := CheckLinearizable(spans); err != nil {
			t.Errorf("%s funnel counter: %v", mode.name, err)
		}
	}
}

// TestFunnelOneP: with a single P a captive is the only thing keeping its
// captor off the processor, so it has to yield while it waits.
func TestFunnelOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range waitModes {
		finishes(t, mode.name+" funnel", func() rendezvousCounter { return newTestFunnel(t, 2, 2, 32, mode.pinned) })
	}
}

// rendezvousCounter is a counter with both paths: the direct Inc and
// sessions.
type rendezvousCounter interface {
	Counter
	countq.Structure
}

// finishes runs 8 goroutines over a counter from newC, first through the
// direct Inc and then over a fresh one each on its own session, and fails,
// rather than hangs, if they do not complete.
func finishes(t *testing.T, name string, newC func() rendezvousCounter) {
	t.Helper()
	for _, path := range []struct {
		name string
		run  func(c rendezvousCounter) error
	}{
		{"Inc", func(c rendezvousCounter) error { _, err := MeasureCounter(name, c, 8, 500); return err }},
		{"sessions", func(c rendezvousCounter) error { return measureSessions(c, 8, 500) }},
	} {
		errc := make(chan error, 1)
		go func(run func(rendezvousCounter) error, c rendezvousCounter) { errc <- run(c) }(path.run, newC())
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("%s %s: %v", name, path.name, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s %s: 8 goroutines on one P did not finish", name, path.name)
		}
	}
}

// TestFunnelAdaptiveSoloStopsParking: alone, every park times out and
// halves the budget, so a record writes a slot at most log2(spin)+1 times
// in its life and an operation then costs no shared write but its
// fetch-and-add.
func TestFunnelAdaptiveSoloStopsParking(t *testing.T) {
	f := newTestFunnel(t, 2, 2, 32, false)
	limit := int64(bits.Len(uint(f.spin))) // log2(spin)+1
	op := f.newOp()
	for i := int64(0); i < limit; i++ {
		f.inc(op)
	}
	if op.wait != 0 || op.parks > limit {
		t.Fatalf("after %d solo ops: wait=%d parks=%d, want 0 and ≤ %d", limit, op.wait, op.parks, limit)
	}
	parks := op.parks
	for i := int64(0); i < 1000; i++ {
		f.inc(op)
	}
	if op.parks != parks || op.adds != limit+1000 {
		t.Errorf("a quiet record parked again: parks %d → %d, adds=%d for %d ops", parks, op.parks, op.adds, limit+1000)
	}
	// The same through the pool, whichever records it hands out.
	for i := 0; i < 5000; i++ {
		f.Inc()
	}
	pooled := int64(len(f.recs) - 1)
	if got, _ := f.stats(); got-parks > limit*pooled {
		t.Errorf("solo Inc parked %d times over %d pooled records, want ≤ %d", got-parks, pooled, limit*pooled)
	}
}

// TestFunnelAdaptiveMeetingRaisesBudget: a record that has stopped
// parking still captures whoever it finds, and each meeting doubles its
// budget back up.
func TestFunnelAdaptiveMeetingRaisesBudget(t *testing.T) {
	f := newTestFunnel(t, 1, 1, 32, false)
	op, c := f.newOp(), f.newOp()
	op.wait = 0
	for _, want := range []int{1, 2} {
		parkByHand(t, &f.layers[0][0], c)
		f.inc(op)
		collect(t, c)
		if op.wait != want {
			t.Fatalf("budget after a capture = %d, want %d", op.wait, want)
		}
	}
	if f.v.Load() != 4 || op.adds != 2 {
		t.Errorf("v=%d adds=%d, want 4 counts from 2 fetch-and-adds", f.v.Load(), op.adds)
	}
}

// TestFunnelAdaptiveRearms: records that have all gone quiet find each
// other again through the one signal a bare fetch-and-add has — the word
// moved between its load and its add.
func TestFunnelAdaptiveRearms(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two fetch-and-adds in flight at once")
	}
	f := newTestFunnel(t, 1, 1, 32, false)
	for i := 0; i < 100; i++ {
		f.Inc()
	}
	quiet, _ := f.stats()
	for deadline := time.Now().Add(10 * time.Second); ; {
		hammer(f, 2, 20000)
		if parks, _ := f.stats(); parks > quiet {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("two goroutines colliding on the word never re-armed a budget")
		}
	}
}

// hammer runs goroutines×opsPerG increments and discards the counts.
func hammer(c Counter, goroutines, opsPerG int) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
}

// TestFunnelPinnedCombines: when partners exist the funnel still combines
// — fewer fetch-and-adds reach the word than operations were issued.
func TestFunnelPinnedCombines(t *testing.T) {
	f := newTestFunnel(t, 1, 2, 32, true)
	if _, err := MeasureCounter("funnel", f, 8, 2000); err != nil {
		t.Fatal(err)
	}
	if _, adds := f.stats(); adds >= 16000 {
		t.Errorf("%d fetch-and-adds for 16000 operations, want fewer", adds)
	}
}

// TestFunnelSessionOwnsRecord: a session takes one record from the
// constructor when it opens and runs every Inc on it; the pool is never
// reached.
func TestFunnelSessionOwnsRecord(t *testing.T) {
	f := newTestFunnel(t, 2, 2, 32, false)
	poolNew := f.ops.New
	var reached int
	f.ops.New = func() interface{} {
		reached++
		return poolNew()
	}
	s, err := f.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 1000
	for want := int64(1); want <= n; want++ {
		if v, err := s.Inc(context.Background()); err != nil || v != want {
			t.Fatalf("Inc = %d, %v; want %d", v, err, want)
		}
	}
	if len(f.recs) != 1 || reached != 0 {
		t.Fatalf("%d session Incs made %d records and reached the pool's New %d times, want 1 and 0", n, len(f.recs), reached)
	}
	if op := s.(*funnelSession).op; op != f.recs[0] || op.adds != n {
		t.Errorf("the session's record applied %d of its %d solo ops, want all of them", op.adds, n)
	}
}

// TestFunnelSessionPairCombines: two sessions with the wait pinned meet
// each other, so their records, the only two, carry fewer fetch-and-adds
// than the operations they issued.
func TestFunnelSessionPairCombines(t *testing.T) {
	f := newTestFunnel(t, 1, 2, 32, true)
	const perSession = 2000
	if err := measureSessions(f, 2, perSession); err != nil {
		t.Fatal(err)
	}
	if len(f.recs) != 2 {
		t.Fatalf("two sessions made %d records, want 2", len(f.recs))
	}
	if _, adds := f.stats(); adds >= 2*perSession {
		t.Errorf("%d fetch-and-adds for %d operations, want fewer", adds, 2*perSession)
	}
	if !f.slotsEmpty() {
		t.Error("a session record is still parked after every Inc returned")
	}
}

// allocSlack is the rendezvous gate's allowance per op: a GC that starts
// in the window empties the record and token pools, and the next Incs
// refill them. One allocation per 64 ops reads 0.0156, 7.8× over it.
const allocSlack = 2e-3

// allocsPerOp is testing.AllocsPerRun without its integer floor: at
// GOMAXPROCS(1), after one warm-up call, the exact malloc count over runs
// calls of body, divided as floats.
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

// TestRendezvousCountersZeroAlloc is the steady-state allocation gate for
// the two rendezvous structures on both paths: the direct Inc pools its
// records and tokens and a session owns one, so an operation allocates
// nothing whether it walks past empty slots, parks and times out, or meets
// a partner.
func TestRendezvousCountersZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops records under the race detector")
	}
	for _, mode := range waitModes {
		f := newTestFunnel(t, 1, 2, 16, mode.pinned)
		d := newTestDiffracting(t, 4, 16, mode.pinned)
		for _, c := range []struct {
			name string
			c    rendezvousCounter
		}{{"funnel", f}, {"diffracting", d}} {
			for _, path := range []string{"Inc", "session"} {
				for _, partnered := range []bool{false, true} {
					inc, partnerInc := incOn(t, c.c, path), incOn(t, c.c, path)
					partnered := partnered
					stop := make(chan struct{})
					done := make(chan struct{})
					before := meetings(c.c)
					go func() {
						defer close(done)
						for partnered {
							select {
							case <-stop:
								return
							default:
								partnerInc()
								// Leave the P to inc: a partner that never
								// yields costs it a preemption tick per
								// wait when goroutines outnumber Ps.
								runtime.Gosched()
							}
						}
					}()
					for i := 0; i < 100; i++ {
						inc() // fill the pools
					}
					if avg := allocsPerOp(4096, inc); avg > allocSlack {
						t.Errorf("%s %s %s (partner=%v): %.5f allocs per op in steady state, want 0", mode.name, c.name, path, partnered, avg)
					}
					close(stop)
					<-done
					if mode.pinned && partnered && meetings(c.c) == before {
						t.Errorf("%s %s %s (partner=true): no operation met a partner, so the gate never priced the meeting path", mode.name, c.name, path)
					}
				}
			}
		}
	}
}

// meetings counts the operations on c so far that met a partner instead of
// touching the shared word alone: operations minus fetch-and-adds on the
// funnel, balancer visits minus toggle moves on the diffracting tree. Call
// it only while no Inc is running.
func meetings(c rendezvousCounter) int64 {
	switch c := c.(type) {
	case *testFunnel:
		_, adds := c.stats()
		return c.v.Load() - adds
	case *DiffractingCounter:
		var visits, toggled int64
		for i := range c.leaves {
			visits += c.leaves[i].Load() * int64(bits.Len(uint(c.width-1)))
		}
		for i := 1; i < c.width; i++ {
			toggled += int64(c.nodes[i].toggle.Load())
		}
		return visits - toggled
	}
	panic("meetings: unknown rendezvous counter")
}

// incOn returns one goroutine's increment of c through path: the direct
// Inc, or a session of its own.
func incOn(t *testing.T, c rendezvousCounter, path string) func() {
	t.Helper()
	if path == "Inc" {
		return func() { c.Inc() }
	}
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	return func() {
		if _, err := s.Inc(ctx); err != nil {
			panic(err)
		}
	}
}
