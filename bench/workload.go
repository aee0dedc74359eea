package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the gated metric set, reported by every workload. Each is the
// median over the run's repeats. bench_test.go holds BENCHMARK.json to this
// table.
//
// Metrics a workload has no natural value for still get one, because the
// contract wants every metric from every workload and none at 0:
// rounds_per_op and msgs_per_op read 1 on the shm workloads (no simulated
// network runs), lat_* on oneshot-offline time one pass over the legs, and
// allocations are reported as 1 + allocs/op so that the ≈0 of the sim
// workloads has a relative bound (1% of it is the 0.01 allocs/op gate).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "lat_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_op", Unit: "rounds/op", Better: "lower", Bound: 0.02},
	{Name: "msgs_per_op", Unit: "msgs/op", Better: "lower", Bound: 0.01},
	{Name: "allocs_per_op_plus1", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// runConfig is what one workload run is given. Time-windowed workloads
// (the sim bridges, oneshot-offline) measure repeats windows of window
// each; op-budgeted workloads (shm-*) make fixed-size countq.Run calls, at
// least repeats of them, until budget is spent.
type runConfig struct {
	seed    int64
	repeats int
	window  time.Duration
	budget  time.Duration
	quick   bool
	tr      *tracer
}

// repeat is what one repeat measured: a fresh structure, its set-up and
// warm-up, and one timed window.
type repeat struct {
	attempted int64 // every operation issued, warm-up included
	failed    int64 // operations that erred or that validation rejected
	ops       int64 // operations completed inside the timed window
	wall      time.Duration
	setup     time.Duration
	p50, p90  float64 // µs
	p99, p999 float64 // µs; tail, reported ungated
	samples   int64   // latency samples behind the quantiles
	rounds    float64 // simulated rounds per op
	msgs      float64 // simulated messages per op
	allocs    float64 // heap allocations per op in the window
	notes     []string
}

func (r *repeat) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// value returns the repeat's reading of one end-to-end metric.
func (r *repeat) value(name string) float64 {
	switch name {
	case "ops_per_s":
		if r.wall <= 0 {
			return 0
		}
		return float64(r.ops) / r.wall.Seconds()
	case "lat_p50_us":
		return r.p50
	case "lat_p90_us":
		return r.p90
	case "rounds_per_op":
		return r.rounds
	case "msgs_per_op":
		return r.msgs
	case "allocs_per_op_plus1":
		return 1 + r.allocs
	case "setup_s":
		return r.setup.Seconds()
	}
	panic("bench: unknown end-to-end metric " + name)
}

// setLatency turns the window's latency samples (µs; sorted in place)
// into the repeat's quantiles.
func (r *repeat) setLatency(us []float64) {
	sort.Float64s(us)
	r.samples = int64(len(us))
	r.p50 = quantileSorted(us, 0.50)
	r.p90 = quantileSorted(us, 0.90)
	r.p99 = quantileSorted(us, 0.99)
	r.p999 = quantileSorted(us, 0.999)
}

// workload is one named input set. run performs cfg.repeats repeats (or
// more, for op-budgeted workloads) and returns what each measured; an error
// means the workload could not run at all.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) ([]repeat, error)
}

// workloads is the benchmark's input sets, in reporting order. The why
// lines are BENCHMARK.json's.
var workloads = []workload{
	{"star9-sync-counter", "transport-bound: one synchronous session on a 9-node star, 2 rounds/op, so internal/ring and the bridge park/wake dominate", star9SyncCounter.run},
	{"list64-pipe-counter", "engine-bound central counting: 8 pipelined requesters on a 64-node list, Network.Step dominates and transport is amortised", list64PipeCounter.run},
	{"list64-pipe-queue", "arrow queuing on the same list and driver: the cheap side of the paper's separation, and the batch-drain use of the transport", list64PipeQueue.run},
	{"list64-pipe-tree", "combining-tree counting on the same list: the per-round Tick path, where the protocol layer does the work", list64PipeTree.run},
	{"shm-runner", "countq.Run over atomic+swap at 2 goroutines: runner and session adapters do the work, bridge, engine and ring none", shmRunner.run},
	{"shm-rendezvous", "countq.Run over the combining funnel, solo then partnered: the structure's spin/rendezvous cost dominates the same runner", shmRendezvous.run},
	{"oneshot-offline", "one-shot arrow/treecount/central/countnet simulations through Network.Run: the E-series code path, statistics pinned by a golden", oneshotOffline},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric: the set median (end-to-end) or the
// single reading (per-layer), with the per-repeat readings behind a median.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Repeats []float64 `json:"repeats,omitempty"`
}

// result is one workload run as printed and as written to -out.
type result struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Tail      map[string]metricValue `json:"tail,omitempty"`
	// Layers is the per-layer set of a traced run.
	Layers map[string]metricValue `json:"layers,omitempty"`
	Notes  []string               `json:"notes,omitempty"`
}

// summarize folds a workload's repeats into its end-to-end medians, the
// ungated tail and the correctness verdict.
func summarize(name string, reps []repeat) result {
	res := result{Name: name, Metrics: make(map[string]metricValue, len(endToEnd))}
	var p99, p999 []float64
	var samples int64
	for i := range reps {
		r := &reps[i]
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Notes = append(res.Notes, r.notes...)
		p99 = append(p99, r.p99)
		p999 = append(p999, r.p999)
		samples += r.samples
	}
	for _, def := range endToEnd {
		vals := make([]float64, len(reps))
		for i := range reps {
			vals[i] = reps[i].value(def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: median(vals), Unit: def.Unit, Repeats: vals}
	}
	res.Tail = map[string]metricValue{
		"tail.lat_p99_us":  {Value: median(p99), Unit: "us"},
		"tail.lat_p999_us": {Value: median(p999), Unit: "us"},
		"tail.samples":     {Value: float64(samples), Unit: "count"},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && len(res.Notes) == 0
	return res
}
