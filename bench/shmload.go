package main

import (
	"runtime"
	"time"

	"repro/countq"
)

// shmLoad is an op-budgeted workload: each repeat is one countq.Run of a
// fixed operation count over fresh shared-memory structures, two runner
// workers and nothing else busy. The measured window is the runner's own
// (Aggregate.Elapsed over the measured phases); everything else Run spends
// — construction, evidence buffers, the validation pass — is the repeat's
// set-up time, so work moved out of the phases shows there.
type shmLoad struct {
	w        countq.Workload
	quickOps int
}

var (
	shmRunner = shmLoad{
		w:        countq.Workload{Counter: "atomic", Queue: "swap", Mix: 0.5, Scenario: "ramp?gmax=2", Goroutines: 2, Ops: 4_000_000},
		quickOps: 40_000,
	}
	shmRendezvous = shmLoad{
		w:        countq.Workload{Counter: "funnel", Scenario: "ramp?gmax=2", Goroutines: 2, Ops: 200_000},
		quickOps: 4_000,
	}
)

func (l shmLoad) run(cfg runConfig) ([]repeat, error) {
	var reps []repeat
	start := time.Now()
	for i := 0; i < cfg.repeats || time.Since(start) < cfg.budget; i++ {
		w := l.w
		if cfg.quick {
			w.Ops = l.quickOps
		}
		// Each repeat draws its own op-mix sequence from the run's seed.
		w.Seed = cfg.seed<<8 + int64(i)
		reps = append(reps, shmRepeat(w, cfg.tr))
	}
	return reps, nil
}

func shmRepeat(w countq.Workload, tr *tracer) repeat {
	var rep repeat
	root := tr.begin(0, "repeat", -1)
	defer tr.end(root)
	runtime.GC()
	id := tr.begin(root, "countq.Run", -1)
	start := time.Now()
	m, err := countq.Run(w)
	wall := time.Since(start)
	tr.end(id)
	if err != nil {
		// Run validates before it returns, so an error rejects the lot.
		rep.attempted, rep.failed = int64(w.Ops), int64(w.Ops)
		rep.notef("countq.Run: %v", err)
		return rep
	}
	a := &m.Aggregate
	rep.attempted = int64(a.Ops)
	rep.ops = int64(a.Ops)
	rep.wall = a.Elapsed
	rep.setup = wall - a.Elapsed
	rep.rounds, rep.msgs = 1, 1
	rep.allocs = a.AllocsPerOp
	rep.p50, rep.p90 = timelineLatency(m)
	if l := countq.PickLatency(a.CounterLat, a.QueueLat); l != nil {
		rep.p99, rep.p999, rep.samples = l.P99Ns/1e3, l.P999Ns/1e3, l.Samples
	}
	return rep
}

// timelineLatency derives the run's typical and slow-window operation
// latency (µs) from the runner's throughput timeline: in a closed loop of
// g workers, a window that completed k operations served each in g·window/k
// on average (Little's law). The p50 and p90 over a phase's 16 windows are
// combined across the measured phases weighted by their operation counts.
//
// The runner's own sampled quantiles are not used for the gated metrics:
// countq.Histogram reports bucket midpoints, which move in 6% steps (or not
// at all) — too coarse to hold against a 10–20% bound, and a time that reads
// the same on every run. They are reported as the ungated tail.
func timelineLatency(m *countq.Metrics) (p50, p90 float64) {
	var ops float64
	for i := range m.Phases {
		p := &m.Phases[i]
		if p.Warmup || p.Ops == 0 || len(p.Timeline) == 0 {
			continue
		}
		lat := make([]float64, 0, len(p.Timeline))
		for _, w := range p.Timeline {
			k := w.Ops
			if k == 0 {
				k = 1 // a stalled window: whatever ran next waited the whole of it
			}
			lat = append(lat, float64(p.Goroutines)*float64(w.EndNs-w.StartNs)/float64(k)/1e3)
		}
		p50 += quantile(lat, 0.50) * float64(p.Ops)
		p90 += quantile(lat, 0.90) * float64(p.Ops)
		ops += float64(p.Ops)
	}
	if ops == 0 {
		return 0, 0
	}
	return p50 / ops, p90 / ops
}
