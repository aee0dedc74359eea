package countq

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestDriverMixedWorkload(t *testing.T) {
	registerTestImpls()
	for _, arrival := range []Arrival{Closed, Uniform, Bursty} {
		res, err := Run(Workload{
			Counter:    "test-alpha",
			Queue:      "test-queue",
			Goroutines: 4,
			Ops:        4000,
			Mix:        0.5,
			Arrival:    arrival,
			Seed:       1,
		})
		if err != nil {
			t.Fatalf("%v: %v", arrival, err)
		}
		agg := res.Aggregate
		if agg.Ops != 4000 {
			t.Errorf("%v: ops = %d, want 4000", arrival, agg.Ops)
		}
		if agg.CounterOps+agg.QueueOps != agg.Ops {
			t.Errorf("%v: op split %d+%d != %d", arrival, agg.CounterOps, agg.QueueOps, agg.Ops)
		}
		// A 50/50 mix over 4000 draws should not be wildly lopsided.
		if agg.CounterOps < 1000 || agg.QueueOps < 1000 {
			t.Errorf("%v: mix lopsided: %d counter, %d queue", arrival, agg.CounterOps, agg.QueueOps)
		}
		if len(res.Phases) != 1 {
			t.Fatalf("%v: flat run has %d phases, want 1", arrival, len(res.Phases))
		}
		if res.Phases[0].Arrival != arrival.String() {
			t.Errorf("arrival = %q, want %q", res.Phases[0].Arrival, arrival)
		}
		if res.NsPerOp() <= 0 {
			t.Errorf("%v: ns/op = %v", arrival, res.NsPerOp())
		}
		if res.ValidateElapsed <= 0 {
			t.Errorf("%v: validation pass unaccounted for: ValidateElapsed = %v", arrival, res.ValidateElapsed)
		}
	}
}

// TestLaneReservationCoversPhase: a fixed-Ops phase's logs are reserved
// for its whole budget at setup, so one worker that claims every op of a
// two-worker phase — the most any lane can log — finds a free window
// whenever it needs one and appends into each within the room it was cut
// with, on every kind of log: claim never grows one.
func TestLaneReservationCoversPhase(t *testing.T) {
	for _, p := range []Phase{
		{Name: "mixed", Mix: 0.5},
		{Name: "lopsided", Mix: 0.9},
		{Name: "batched", Mix: 1, Batch: 16},
		{Name: "mixed batches", Mix: 0.5, Batch: 16},
		{Name: "queue", Mix: 0},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			p.Goroutines, p.Ops, p.LatencySample = 2, 10000, 64
			ph := newPhaseRun(&testBatchCounter{}, newSwapQueue(), Workload{Seed: seed}, 0, p, time.Now())
			caps := func() (c [][5]int) {
				for _, w := range ph.wins {
					c = append(c, [5]int{cap(w.counts), cap(w.blocks), cap(w.ids), cap(w.preds), cap(w.events)})
				}
				return c
			}
			before := caps()
			r := ph.newWorker(0)
			if err := r.openSessions(ph.cs, ph.qs, ph.base); err != nil {
				t.Fatal(err)
			}
			ln := &r.ln
			r.begin(time.Now())
			r.runSync(nil)
			r.flush()
			r.leave()
			r.closeSessions()
			if ln.err != nil {
				t.Fatal(ln.err)
			}
			if ln.issued != int64(p.Ops) {
				t.Fatalf("%s seed %d: one worker issued %d of %d ops", p.Name, seed, ln.issued, p.Ops)
			}
			if n, taken := len(ph.wins), ph.taken.v.Load(); taken > int64(n) {
				t.Errorf("%s seed %d: the lane asked for window %d of %d", p.Name, seed, taken, n)
			}
			if got := caps(); !slices.Equal(got, before) {
				t.Errorf("%s seed %d: windows grew from capacities %v to %v (counts, blocks, ids, preds, events)", p.Name, seed, before, got)
			}
		}
	}
}

// TestEvidenceFormsLaneRuns drives a small mixed synchronous run — an
// atomic counter and a queue, half and half, ramped from one worker to
// two — through the phases runPhases drives, and holds each lane's queue
// evidence, however many windows it fills, to at most one run of
// consecutive ids in the segments the validators read. Ids that stop
// forming runs send the order check back to its hash form: this fails on
// the run count, not on a validation time.
func TestEvidenceFormsLaneRuns(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-batch", Queue: "test-queue", Mix: 0.5, Scenario: "ramp?gmax=2", Goroutines: 2, Ops: 20000, Seed: 1}.withDefaults()
	sc, err := ExpandScenario(base.Scenario, base)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewStructure(base.Counter, KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewStructure(base.Queue, KindQueue)
	if err != nil {
		t.Fatal(err)
	}
	if err := normalizePhases(base, sc.Phases, cs, qs, StructureInfo{}, StructureInfo{}); err != nil {
		t.Fatal(err)
	}
	var segs []laneData
	lanes := 0
	for pi, p := range sc.Phases {
		_, _, ph, err := runPhase(cs, qs, base, pi, p, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		segs = ph.evidence(segs)
		lanes += p.Goroutines
	}
	var ids []int64
	for _, s := range segs {
		ids = append(ids, s.ids...)
	}
	k := len(ids)
	if k == 0 || len(segs) <= lanes {
		t.Fatalf("%d queued operations in %d segments: the lanes did not move windows", k, len(segs))
	}
	runs := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1]+1 {
			runs++
		}
	}
	if runs > lanes {
		t.Errorf("%d queued operations form %d runs of consecutive ids, want at most %d (one per lane per phase)", k, runs, lanes)
	}
	if idx, ok := newRunIndex(segs, k); !ok || len(idx.runs) != runs {
		t.Errorf("%d queued operations in %d runs indexed as %d runs (form found: %v)", k, runs, len(idx.runs), ok)
	}
	if err := validateOrder(segs, &orderScratch{}); err != nil {
		t.Error(err)
	}
}

func TestDriverPureWorkloads(t *testing.T) {
	registerTestImpls()
	res, err := Run(Workload{Counter: "test-alpha", Goroutines: 2, Ops: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.CounterOps != 500 || res.Aggregate.QueueOps != 0 {
		t.Errorf("pure counter split: %d/%d", res.Aggregate.CounterOps, res.Aggregate.QueueOps)
	}
	res, err = Run(Workload{Queue: "test-queue", Goroutines: 2, Ops: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.QueueOps != 500 || res.Aggregate.CounterOps != 0 {
		t.Errorf("pure queue split: %d/%d", res.Aggregate.CounterOps, res.Aggregate.QueueOps)
	}
	// Mix means what it says: the zero value with both structures set is a
	// pure-queue run — no silent 50/50, no escape-hatch field.
	res, err = Run(Workload{Counter: "test-alpha", Queue: "test-queue", Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.QueueOps != 300 || res.Aggregate.CounterOps != 0 {
		t.Errorf("zero Mix split: %d/%d, want pure queue", res.Aggregate.CounterOps, res.Aggregate.QueueOps)
	}
	// And Mix 1 with both set is a pure-counter run.
	res, err = Run(Workload{Counter: "test-alpha", Queue: "test-queue", Mix: 1, Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.CounterOps != 300 || res.Aggregate.QueueOps != 0 {
		t.Errorf("Mix=1 split: %d/%d, want pure counter", res.Aggregate.CounterOps, res.Aggregate.QueueOps)
	}
}

func TestDriverParameterizedSpecs(t *testing.T) {
	registerTestImpls()
	// Workload.Counter is a spec: parameters flow through the registry.
	// start=0 is required for validation (counts must cover 1..n), so this
	// exercises the parse-and-construct path end to end.
	res, err := Run(Workload{Counter: "test-param?start=0", Goroutines: 2, Ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter != "test-param?start=0" {
		t.Errorf("result spec = %q", res.Counter)
	}
	// Bad specs fail before any goroutine runs.
	if _, err := Run(Workload{Counter: "test-param?bogus=1"}); err == nil {
		t.Error("unknown param accepted by the driver")
	}
}

func TestDriverBatchGrants(t *testing.T) {
	registerTestImpls()
	// A CapBatch counter with Batch > 1 takes IncN block grants;
	// validation proves the granted ranges tile 1..ops with no overlap.
	res, err := Run(Workload{Counter: "test-batch", Goroutines: 4, Ops: 4096, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.CounterOps != 4096 {
		t.Errorf("batched counter ops = %d, want 4096", res.Aggregate.CounterOps)
	}
	if res.Phases[0].Batch != 64 {
		t.Errorf("result batch = %d, want 64", res.Phases[0].Batch)
	}
	// An uneven budget forces a short final block per goroutine.
	res, err = Run(Workload{Counter: "test-batch", Goroutines: 3, Ops: 1000, Batch: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.CounterOps != 1000 {
		t.Errorf("uneven batched ops = %d, want 1000", res.Aggregate.CounterOps)
	}
	// Mix still means the fraction of operations when batching: block
	// draws are down-weighted so a 50/50 mix stays near 50/50 in ops.
	res, err = Run(Workload{
		Counter: "test-batch", Queue: "test-queue",
		Goroutines: 2, Ops: 20000, Mix: 0.5, Batch: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Aggregate.CounterOps) / float64(res.Aggregate.Ops)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("batched mix drifted: counter fraction %.2f (split %d/%d)", frac, res.Aggregate.CounterOps, res.Aggregate.QueueOps)
	}
	// Batch on a counter without the capability is rejected loudly, and
	// the error names the missing capability.
	_, err = Run(Workload{Counter: "test-alpha", Ops: 200, Batch: 64})
	if err == nil {
		t.Fatal("batch on a non-batching counter accepted")
	}
	if !strings.Contains(err.Error(), "BatchSession") {
		t.Errorf("batch error does not name the missing capability: %v", err)
	}
	// Batch on a pure-queue run (mix forced to 0) never touches the
	// counter path and is not an error.
	if _, err := Run(Workload{Counter: "test-alpha", Queue: "test-queue", Mix: 0, Ops: 200, Batch: 64}); err != nil {
		t.Errorf("batch on a pure-queue mix rejected: %v", err)
	}
}

func TestDriverHandles(t *testing.T) {
	registerTestImpls()
	// A leasing counter serves each worker through its own session.
	// Validation passing proves the sessions' leases plus Close/Drain close
	// the range; the close count proves every worker got (and closed) one.
	res, err := Run(Workload{Counter: "test-handle", Goroutines: 4, Ops: 1002})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.CounterOps != 1002 {
		t.Errorf("handle ops = %d, want 1002", res.Aggregate.CounterOps)
	}
	c := lastHandleCounter.Load()
	if c == nil {
		t.Fatal("registry did not construct the test-handle counter")
	}
	if got := c.closes.Load(); got != 4 {
		t.Errorf("handle closes = %d, want 4 (one per goroutine)", got)
	}
}

func TestDriverLatencyMetrics(t *testing.T) {
	registerTestImpls()
	// With a sampling interval larger than 1 the per-kind latency
	// distributions still come out populated (the first op of each kind is
	// always sampled) and op totals stay exact.
	res, err := Run(Workload{
		Counter: "test-alpha", Queue: "test-queue",
		Goroutines: 2, Ops: 2000, Mix: 0.5, LatencySample: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops != 2000 {
		t.Errorf("sampled run ops = %d, want 2000", res.Aggregate.Ops)
	}
	cl, ql := res.Aggregate.CounterLat, res.Aggregate.QueueLat
	if cl == nil || ql == nil {
		t.Fatalf("sampled latencies missing: counter %v, queue %v", cl, ql)
	}
	for _, l := range []*LatencyStats{cl, ql} {
		if l.Samples <= 0 || l.MeanNs < 0 {
			t.Errorf("degenerate latency stats: %+v", l)
		}
		if l.P50Ns > l.P90Ns || l.P90Ns > l.P99Ns || l.P99Ns > l.P999Ns || l.P999Ns > l.MaxNs {
			t.Errorf("quantiles not monotone: %+v", l)
		}
	}
	// Sampling every op still works.
	res, err = Run(Workload{Counter: "test-alpha", Ops: 100, LatencySample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Aggregate.CounterLat.Samples; got != 100 {
		t.Errorf("per-op sampling covered %d ops, want 100", got)
	}
	// A negative sampling interval is rejected, not silently defaulted.
	if _, err := Run(Workload{Counter: "test-alpha", Ops: 100, LatencySample: -3}); err == nil {
		t.Error("negative LatencySample accepted")
	}
}

func TestDriverTimelineAndFairness(t *testing.T) {
	registerTestImpls()
	// A mixed run: the timeline must account for every operation of both
	// kinds, sampled or not.
	res, err := Run(Workload{
		Counter: "test-alpha", Queue: "test-queue",
		Goroutines: 4, Ops: 20000, Mix: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases[0]
	if len(p.Timeline) == 0 {
		t.Fatal("no throughput timeline recorded")
	}
	var tlOps int64
	for i, w := range p.Timeline {
		if w.EndNs <= w.StartNs {
			t.Errorf("window %d empty span [%d,%d)", i, w.StartNs, w.EndNs)
		}
		if i > 0 && w.StartNs != p.Timeline[i-1].EndNs {
			t.Errorf("window %d not contiguous: starts %d, previous ends %d", i, w.StartNs, p.Timeline[i-1].EndNs)
		}
		tlOps += w.Ops
	}
	if tlOps != int64(p.Ops) {
		t.Errorf("timeline accounts for %d ops, phase did %d", tlOps, p.Ops)
	}
	if len(p.WorkerOps) != 4 {
		t.Fatalf("worker op counts = %v, want 4 entries", p.WorkerOps)
	}
	var sum int64
	for _, w := range p.WorkerOps {
		sum += w
	}
	if sum != int64(p.Ops) {
		t.Errorf("worker ops sum to %d, phase did %d", sum, p.Ops)
	}
	if p.Fairness < 0 || p.Fairness > 1 {
		t.Errorf("fairness %v outside [0,1]", p.Fairness)
	}
	// A single worker is trivially fair.
	res, err = Run(Workload{Counter: "test-alpha", Goroutines: 1, Ops: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].Fairness != 1 {
		t.Errorf("single-worker fairness = %v, want 1", res.Phases[0].Fairness)
	}
}

func TestDriverDurationBudget(t *testing.T) {
	registerTestImpls()
	res, err := Run(Workload{
		Counter:  "test-alpha",
		Duration: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops == 0 {
		t.Error("duration-budget run performed no operations")
	}
	// A positive Duration replaces the ops budget, per the field doc: a
	// huge Ops value must not outlive the deadline.
	start := time.Now()
	res, err = Run(Workload{
		Counter:  "test-alpha",
		Ops:      1 << 40,
		Duration: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Duration did not replace Ops: run took %v", elapsed)
	}
	if res.Aggregate.Ops >= 1<<40 {
		t.Errorf("run honored Ops (%d) instead of Duration", res.Aggregate.Ops)
	}
}

func TestDriverRejectsBadConfig(t *testing.T) {
	registerTestImpls()
	if _, err := Run(Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(Workload{Counter: "no-such-counter"}); err == nil {
		t.Error("unknown counter accepted")
	}
	if _, err := Run(Workload{Queue: "no-such-queue"}); err == nil {
		t.Error("unknown queue accepted")
	}
	if _, err := Run(Workload{Counter: "test-alpha", Queue: "test-queue", Mix: 1.5}); err == nil {
		t.Error("mix > 1 accepted")
	}
	if _, err := Run(Workload{Counter: "test-alpha", Queue: "test-queue", Mix: -0.5}); err == nil {
		t.Error("mix < 0 accepted")
	}
	if _, err := Run(Workload{Counter: "?x=1"}); err == nil {
		t.Error("nameless spec accepted")
	}
	if _, err := Run(Workload{Counter: "test-alpha", Batch: -2, Queue: "test-queue", Mix: 0.5}); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := ParseArrival("fractal"); err == nil {
		t.Error("unknown arrival pattern accepted")
	}
}
