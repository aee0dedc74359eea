package countq

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Arrival selects how operations arrive at the shared structure.
type Arrival int

const (
	// Closed is a closed loop: every goroutine issues its next operation
	// the moment the previous one returns — maximum sustained contention.
	Closed Arrival = iota
	// Uniform spaces operations with small random think times, modelling
	// independent clients arriving roughly uniformly.
	Uniform
	// Bursty alternates dense bursts of back-to-back operations with
	// longer pauses, modelling synchronized arrival spikes.
	Bursty
	// Fairshare is a closed loop driven by a rotating per-worker grant:
	// workers issue operations strictly round-robin, so per-worker op
	// counts — and the fairness ratio — measure the structure, not the
	// goroutine scheduler. It exists because on a single-core host a plain
	// closed loop legitimately reports fairness ≈ 0 (one worker drains the
	// shared pool per timeslice); under fairshare the number is
	// scheduler-independent. The rotation serializes issue order, so use
	// it for fairness readings, not throughput ceilings.
	Fairshare
)

// String returns the arrival pattern's registry name.
func (a Arrival) String() string {
	switch a {
	case Closed:
		return "closed"
	case Uniform:
		return "uniform"
	case Bursty:
		return "bursty"
	case Fairshare:
		return "fairshare"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// ParseArrival maps a name to an Arrival pattern.
func ParseArrival(name string) (Arrival, error) {
	switch name {
	case "", "closed":
		return Closed, nil
	case "uniform":
		return Uniform, nil
	case "bursty":
		return Bursty, nil
	case "fairshare":
		return Fairshare, nil
	default:
		return 0, fmt.Errorf("countq: unknown arrival pattern %q (closed|uniform|bursty|fairshare)", name)
	}
}

// Workload configures one counting/queuing run: which structures, the total
// budget, and the shape of the load. With Scenario set the run is phased —
// the named scenario reshapes mix, goroutines, arrival and batching over a
// sequence of Phases while the structures (and their accumulated state)
// persist; otherwise the whole budget runs as one steady phase.
type Workload struct {
	// Counter and Queue are structure specs — a registered name, optionally
	// with parameters ("sharded?shards=4&batch=16"). At least one must be
	// set; leaving one empty runs a pure workload of the other kind.
	Counter string
	Queue   string
	// Scenario, when set, is a scenario spec — a registered scenario name,
	// optionally with parameters ("ramp?gmax=16"). The scenario expands
	// into phases against this workload as the base: structures, seed and
	// total budget come from here, and each phase reshapes the load.
	// Empty means one steady phase of the base shape.
	Scenario string
	// Goroutines is the number of concurrent workers (default
	// GOMAXPROCS). Scenarios treat it as the contention ceiling.
	Goroutines int
	// Ops is the total operation budget across all goroutines (default
	// 65536 when Duration is also zero). The budget is a shared pool that
	// workers claim chunks from, so per-worker op counts reflect how the
	// structure actually served them (see PhaseMetrics.Fairness).
	Ops int
	// Duration, when positive, replaces Ops: goroutines issue operations
	// until the deadline passes. Scenarios split it across phases.
	Duration time.Duration
	// Mix is the fraction of operations sent to the counter (the rest
	// enqueue), and means exactly what it says: the zero value sends every
	// operation to the queue, so a mixed run must set Mix explicitly.
	// It is forced to 1 when Queue is empty and 0 when Counter is empty;
	// with both set it must lie in [0,1].
	Mix float64
	// Batch, when > 1, issues counter operations as IncN(Batch) block
	// grants — one coordination round per Batch counts — and validation
	// covers the granted ranges. The counter must declare CapBatch (its
	// sessions implement BatchSession): a batch request against a counter
	// without the capability is rejected, never silently downgraded to
	// single Incs.
	Batch int
	// Inflight, when > 1, keeps that many operations outstanding per
	// worker through the structure's AsyncSession capability — the op
	// pipeline that overlaps coordination rounds. Like batching, it is
	// demanded, not hinted: a phase with Inflight > 1 against a structure
	// without CapAsync is rejected, never silently run synchronously.
	// 0 or 1 is the synchronous call-and-return path.
	Inflight int
	// LatencySample controls per-operation timing: every Kth operation of
	// each kind is timed (default 64; 1 times every operation). Sampling
	// keeps the timing overhead from distorting ns/op for fast structures;
	// operation totals and wall-clock elapsed stay exact regardless.
	// Negative values are rejected.
	LatencySample int
	// Arrival selects the arrival pattern (default Closed).
	Arrival Arrival
	// Seed drives the per-goroutine mix and arrival randomness; runs
	// with the same seed and goroutine count draw identical op
	// sequences.
	Seed int64
}

// withDefaults resolves the implicit knobs (goroutine count, default op
// budget, sampling interval) so scenario expansion can divide concrete
// numbers instead of re-deriving the defaults.
func (w Workload) withDefaults() Workload {
	if w.Goroutines <= 0 {
		w.Goroutines = runtime.GOMAXPROCS(0)
	}
	if w.Duration > 0 {
		w.Ops = 0 // a positive Duration replaces the ops budget
	} else if w.Ops <= 0 {
		w.Ops = 1 << 16
	}
	if w.LatencySample == 0 {
		w.LatencySample = 64
	}
	return w
}

// pause realizes the arrival pattern's think time between operations.
// Closed pauses nowhere; Fairshare also falls through — its rotation is
// the runner's grant logic, not a think time.
func pause(a Arrival, rng *rand.Rand, burst *int) {
	switch a {
	case Uniform:
		for n := rng.Intn(8); n > 0; n-- {
			runtime.Gosched()
		}
	case Bursty:
		if *burst <= 0 {
			*burst = 1 + rng.Intn(32)
			for n := 16 + rng.Intn(64); n > 0; n-- {
				runtime.Gosched()
			}
		}
		*burst--
	}
}
