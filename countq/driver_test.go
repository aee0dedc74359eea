package countq

import (
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

// TestEvidenceFoldsIntoReservation: the run-level evidence buffers are
// sized once from the ops budgets, so folding ops-budget phases in copies
// into existing room — lane after lane, order kept — and only a duration
// phase, which promised nothing, makes the buffers grow.
func TestEvidenceFoldsIntoReservation(t *testing.T) {
	phases := []Phase{
		{Goroutines: 2, Ops: 10000, Mix: 0.5},
		{Goroutines: 2, Ops: 10000, Mix: 1, Batch: 16},
		{Goroutines: 2, Ops: 10000, Mix: 0},
		{Goroutines: 1, Mix: 0.5, Duration: time.Millisecond},
	}
	var all laneData
	all.reserve(phases)
	caps := [4]int{cap(all.counts), cap(all.blocks), cap(all.ids), cap(all.preds)}

	next := int64(0)
	fill := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i], next = next, next+1
		}
		return out
	}
	lanesOf := func(counts, blocks, queued int) []*lane {
		lanes := make([]*lane, 2)
		for i := range lanes {
			share := []int{3, 1}[i] // lopsided lanes
			lanes[i] = &lane{laneData: laneData{
				counts: fill(counts * share / 4),
				blocks: make([]CountRange, blocks*share/4),
				ids:    fill(queued * share / 4),
				preds:  fill(queued * share / 4),
			}}
		}
		return lanes
	}
	all.fold(lanesOf(5152, 0, 4848)) // the mix came up 3σ off an even split
	all.fold(lanesOf(0, 10000/16+10000/opsChunk, 0))
	all.fold(lanesOf(0, 0, 10000))
	if got := [4]int{cap(all.counts), cap(all.blocks), cap(all.ids), cap(all.preds)}; got != caps {
		t.Errorf("ops-budget phases outgrew the reservation: capacities %v, reserved %v", got, caps)
	}
	if len(all.counts) != 5152 || len(all.ids) != 14848 || len(all.preds) != len(all.ids) {
		t.Errorf("folded %d counts, %d ids, %d preds", len(all.counts), len(all.ids), len(all.preds))
	}
	all.fold(lanesOf(1<<16, 0, 1<<16))
	for name, got := range map[string][]int64{"counts": all.counts, "ids": all.ids, "preds": all.preds} {
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%s out of fold order at %d: %d after %d", name, i, got[i], got[i-1])
			}
		}
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
