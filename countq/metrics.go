package countq

import "time"

// LatencyStats summarizes the sampled latency distribution of one
// operation kind: log-bucketed histogram quantiles plus the exact mean and
// maximum. Samples counts the operations the timings cover (a timed
// IncN block contributes its whole grant at the amortized per-count cost).
type LatencyStats struct {
	Samples int64   `json:"samples"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P90Ns   float64 `json:"p90_ns"`
	P99Ns   float64 `json:"p99_ns"`
	P999Ns  float64 `json:"p999_ns"`
	MaxNs   float64 `json:"max_ns"`
}

// Window is one slot of the throughput timeline: how many operations
// completed in [StartNs, EndNs), offsets relative to the start of the run.
// An empty window is a stall, not a gap in the record.
type Window struct {
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	Ops     int64 `json:"ops"`
}

// OpsPerSec reports the window's throughput in operations per second.
func (w Window) OpsPerSec() float64 {
	if w.EndNs <= w.StartNs {
		return 0
	}
	return float64(w.Ops) * 1e9 / float64(w.EndNs-w.StartNs)
}

// MemWindow is one slot of the live-heap timeline: the peak live heap
// observed in [StartNs, EndNs), offsets relative to the start of the run.
// Windows share the phase span (and slot count) with the throughput
// timeline, so footprint and throughput line up window for window.
type MemWindow struct {
	StartNs   int64 `json:"start_ns"`
	EndNs     int64 `json:"end_ns"`
	PeakBytes int64 `json:"peak_bytes"`
}

// Measurement is what a phase (or the fold of a run's measured phases)
// measured: exact op totals, sampled latency distributions per kind, a
// windowed throughput timeline, memory footprint and worker fairness.
// PhaseMetrics embeds it and Metrics.Aggregate is one, so every table
// renders a phase row and an aggregate row from the same record.
type Measurement struct {
	Elapsed    time.Duration `json:"elapsed_ns"`
	Ops        int           `json:"ops"`
	CounterOps int           `json:"counter_ops"`
	QueueOps   int           `json:"queue_ops"`
	CounterLat *LatencyStats `json:"counter_latency,omitempty"`
	QueueLat   *LatencyStats `json:"queue_latency,omitempty"`
	// CounterCorr and QueueCorr are the coordinated-omission-corrected
	// latency distributions: completion time measured against the
	// *intended* start from the arrival schedule, so an operation delayed
	// behind a slow predecessor is charged the backlog it actually
	// suffered. Recorded under open-loop arrivals (uniform, bursty) and on
	// the async (Inflight > 1) path; nil for plain closed loops, where
	// intended and actual starts coincide and the service-time
	// distributions above already tell the whole story.
	CounterCorr *LatencyStats `json:"counter_corrected,omitempty"`
	QueueCorr   *LatencyStats `json:"queue_corrected,omitempty"`
	Timeline    []Window      `json:"timeline,omitempty"`
	// AllocsPerOp and AllocBytesPerOp are the process-wide heap allocation
	// deltas across the phase, divided by its op count — the footprint the
	// structure (plus the allocation-free measurement path around it) costs
	// per operation. Always emitted, because 0 is the interesting value.
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	// MemTimeline is the live-heap timeline sampled during the phase, folded
	// into the same windows as Timeline; LivePeakBytes is its maximum.
	MemTimeline   []MemWindow `json:"mem_timeline,omitempty"`
	LivePeakBytes int64       `json:"live_peak_bytes,omitempty"`
	// Fairness is min/max over per-worker op counts: 1 is perfectly fair
	// service, values near 0 mean some worker was starved. 1 when
	// trivially fair (a single worker).
	Fairness float64 `json:"fairness"`
}

// NsPerOp reports average wall nanoseconds per operation.
func (r *Measurement) NsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
}

// OpsPerSec reports the throughput in operations per second.
func (r *Measurement) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// PhaseMetrics reports one phase of a run: the shape it ran under, its
// Measurement, and the per-worker op counts behind its fairness ratio.
type PhaseMetrics struct {
	Name       string  `json:"name"`
	Warmup     bool    `json:"warmup,omitempty"`
	Goroutines int     `json:"goroutines"`
	Mix        float64 `json:"mix"`
	Arrival    string  `json:"arrival"`
	Batch      int     `json:"batch,omitempty"`
	Inflight   int     `json:"inflight,omitempty"`
	StartNs    int64   `json:"start_ns"`
	Measurement
	// WorkerOps is how many operations each worker completed. The op
	// budget is a shared pool, so a worker the structure starves shows up
	// here instead of being hidden by a preassigned per-worker quota.
	WorkerOps []int64 `json:"worker_ops,omitempty"`
}

// PickLatency returns the preferred latency record of an op-kind pair:
// the counter side when present (the paper's expensive side), else the
// queue side, else nil. The table renderers and exports share it so every
// surface picks the same record.
func PickLatency(counter, queue *LatencyStats) *LatencyStats {
	if counter != nil {
		return counter
	}
	return queue
}

// Metrics reports one driver run. Counts (including block grants) and
// predecessor chains have already been validated — once, across all phases
// — when Run returns it. Phases holds the per-phase record in run order
// (warmup included, flagged).
type Metrics struct {
	Counter    string         `json:"counter,omitempty"`
	Queue      string         `json:"queue,omitempty"`
	Scenario   string         `json:"scenario,omitempty"`
	Goroutines int            `json:"goroutines"` // peak across phases
	Seed       int64          `json:"seed"`
	Elapsed    time.Duration  `json:"elapsed_ns"` // every phase, warmup included; stops before validation
	Phases     []PhaseMetrics `json:"phases"`
	// Aggregate folds the measured (non-warmup) phases: summed op totals
	// and elapsed time, merged latency histograms, concatenated timelines,
	// op-weighted allocation means, the peak live heap and the worst
	// per-phase fairness.
	Aggregate Measurement `json:"aggregate"`
	// ValidateElapsed is the wall time of the post-run pass: draining
	// leased counts, then the counts and order checks over the whole run's
	// evidence. It follows Elapsed and is part of no phase.
	ValidateElapsed time.Duration `json:"validate_ns"`
}

// NsPerOp reports average wall nanoseconds per measured operation.
func (m *Metrics) NsPerOp() float64 { return m.Aggregate.NsPerOp() }

// tlEvent is one worker-local throughput observation: ops operations
// completed by offset off (ns from run start) since the previous event.
type tlEvent struct {
	off int64
	ops int64
}

// timelineWindows is how many slots a phase's throughput timeline has.
const timelineWindows = 16

// buildTimeline folds worker-local completion events into fixed windows
// spanning the phase. Events carry the ops completed since the previous
// sampled op, so window totals are exact in sum and accurate to one
// sampling interval in placement.
func buildTimeline(events []tlEvent, startNs, elapsedNs int64) []Window {
	if elapsedNs <= 0 || len(events) == 0 {
		return nil
	}
	n := int64(timelineWindows)
	dur := elapsedNs / n
	if dur <= 0 {
		n, dur = 1, elapsedNs
	}
	win := make([]Window, n)
	for i := range win {
		win[i].StartNs = startNs + int64(i)*dur
		win[i].EndNs = win[i].StartNs + dur
	}
	win[n-1].EndNs = startNs + elapsedNs // absorb the integer-division remainder
	for _, ev := range events {
		idx := (ev.off - startNs) / dur
		if idx < 0 {
			idx = 0
		} else if idx >= n {
			idx = n - 1
		}
		win[idx].Ops += ev.ops
	}
	return win
}
