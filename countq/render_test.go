package countq

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// renderComparison is a hand-built two-entry Comparison — a counter
// baseline and a cross-kind queue entry, each with a warmup phase, open
// arrivals, corrected latencies, allocations and omitted ratios — so the
// renderers can be pinned byte for byte without a run.
func renderComparison() *Comparison {
	lat := func(p50, p99 float64) *LatencyStats {
		return &LatencyStats{Samples: 100, MeanNs: p50 * 1.25, P50Ns: p50, P90Ns: p99 / 2, P99Ns: p99, P999Ns: p99 * 3, MaxNs: p99 * 10}
	}
	us := time.Microsecond
	phase := func(name string, g int, mix float64, arrival string, batch, inflight int, m Measurement) PhaseMetrics {
		return PhaseMetrics{Name: name, Warmup: name == "warmup", Goroutines: g, Mix: mix, Arrival: arrival, Batch: batch, Inflight: inflight, Measurement: m}
	}
	result := func(label, counter, queue string, phases []PhaseMetrics, agg Measurement, deltas []Delta) StructureResult {
		m := &Metrics{Counter: counter, Queue: queue, Scenario: "steady?warmup=0.1;ramp?gmax=2", Goroutines: 2, Seed: 7, Phases: phases, Aggregate: agg}
		return StructureResult{Label: label, Counter: counter, Queue: queue, Baseline: label == "atomic", Metrics: m,
			PhaseDeltas: deltas[:len(phases)], AggregateDelta: deltas[len(phases)]}
	}
	self := Delta{NsPerOpRatio: 1, ThroughputRatio: 1, P50Ratio: 1, P99Ratio: 1, FairnessRatio: 1, AllocsRatio: 1, LivePeakRatio: 1}
	with := func(d Delta, phase string, edit func(*Delta)) Delta {
		d.Phase = phase
		edit(&d)
		return d
	}
	atomic := result("atomic", "atomic", "", []PhaseMetrics{
		phase("warmup", 1, 1, "closed", 0, 0, Measurement{Ops: 100, CounterOps: 100, Elapsed: 50 * us, CounterLat: lat(400, 1500), Fairness: 1}),
		phase("g=1", 1, 1, "closed", 0, 0, Measurement{Ops: 450, CounterOps: 450, Elapsed: 180 * us, CounterLat: lat(380, 1200), Fairness: 1, LivePeakBytes: 512}),
		phase("g=2", 2, 1, "uniform", 16, 4, Measurement{Ops: 450, CounterOps: 450, Elapsed: 120 * us, CounterLat: lat(300, 2200), CounterCorr: lat(600, 9000),
			Fairness: 0.8, AllocsPerOp: 0.25, AllocBytesPerOp: 12.5, LivePeakBytes: 3000}),
	}, Measurement{Ops: 900, CounterOps: 900, Elapsed: 300 * us, CounterLat: lat(390, 1300), CounterCorr: lat(600, 9000),
		Fairness: 0.8, AllocsPerOp: 0.125, AllocBytesPerOp: 6.25, LivePeakBytes: 3000}, []Delta{
		with(self, "warmup", func(d *Delta) { d.AllocsRatio, d.LivePeakRatio = 0, 0 }),
		with(self, "g=1", func(d *Delta) { d.AllocsRatio = 0 }),
		with(self, "g=2", func(*Delta) {}),
		with(self, "aggregate", func(*Delta) {}),
	})
	swap := result("swap@inflight=4", "", "swap", []PhaseMetrics{
		phase("warmup", 1, 0, "closed", 0, 4, Measurement{Ops: 100, QueueOps: 100, Elapsed: 70 * us, QueueLat: lat(700, 2500), Fairness: 1}),
		phase("g=1", 1, 0, "closed", 0, 4, Measurement{Ops: 450, QueueOps: 450, Elapsed: 90 * us, QueueLat: lat(200, 800),
			Fairness: 1, AllocsPerOp: 1.5, AllocBytesPerOp: 48, LivePeakBytes: 5 << 20}),
		phase("g=2", 2, 0, "bursty", 0, 4, Measurement{Ops: 450, QueueOps: 450, Elapsed: 100 * us, QueueLat: lat(220, 1000), QueueCorr: lat(250, 4000),
			Fairness: 0.5, AllocsPerOp: 2, AllocBytesPerOp: 64, LivePeakBytes: 1500}),
	}, Measurement{Ops: 900, QueueOps: 900, Elapsed: 190 * us, QueueLat: lat(210, 900), QueueCorr: lat(250, 4000),
		Fairness: 0.5, AllocsPerOp: 1.75, AllocBytesPerOp: 56, LivePeakBytes: 5 << 20}, []Delta{
		{Phase: "warmup", NsPerOpRatio: 1.4, ThroughputRatio: 0.7142857142857143, FairnessRatio: 1},
		{Phase: "g=1", NsPerOpRatio: 0.5, ThroughputRatio: 2, FairnessRatio: 1, LivePeakRatio: 10240},
		{Phase: "g=2", NsPerOpRatio: 0.8333333333333334, ThroughputRatio: 1.2, FairnessRatio: 0.625, AllocsRatio: 8, LivePeakRatio: 0.5},
		{Phase: "aggregate", NsPerOpRatio: 0.6333333333333333, ThroughputRatio: 1.5789473684210527, FairnessRatio: 0.625, AllocsRatio: 14, LivePeakRatio: 1747.6266666666666},
	})
	return &Comparison{Name: "golden", Scenario: "steady?warmup=0.1;ramp?gmax=2", Goroutines: 2, Ops: 1000, Seed: 7,
		Baseline: "atomic", Results: []StructureResult{atomic, swap}}
}

// TestRenderGolden pins every table format's exact bytes for the
// hand-built Comparison. The CSV and Markdown goldens predate the shared
// row loop; the text golden is the same table with Markdown's live-peak
// column.
func TestRenderGolden(t *testing.T) {
	c := renderComparison()
	var text bytes.Buffer
	if err := c.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	csv, err := c.MarshalCSV()
	if err != nil {
		t.Fatal(err)
	}
	md, err := c.MarshalMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string][]byte{"comparison.csv": csv, "comparison.md": md, "comparison.txt": text.Bytes()} {
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s:\n%s", file, file, got)
		}
	}
}

// jsonKeys marshals v and returns its top-level object keys, sorted.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsJSONKeys pins the JSON key sets of a fully populated run, one
// of its phases and its aggregate: a phase flattens its Measurement, and
// the aggregate is that same record.
func TestMetricsJSONKeys(t *testing.T) {
	c := renderComparison()
	m := c.Results[1].Metrics
	p := &m.Phases[0]
	p.StartNs = 1
	p.Timeline = []Window{{EndNs: 1, Ops: 1}}
	p.MemTimeline = []MemWindow{{EndNs: 1, PeakBytes: 1}}
	p.LivePeakBytes, p.CounterLat, p.CounterCorr, p.QueueCorr = 1, p.QueueLat, p.QueueLat, p.QueueLat
	p.WorkerOps = []int64{100}
	p.Batch = 8
	m.Aggregate = p.Measurement
	m.Counter = "atomic"
	m.Elapsed, m.ValidateElapsed = time.Millisecond, time.Microsecond

	measurement := []string{
		"alloc_bytes_per_op", "allocs_per_op", "counter_corrected", "counter_latency", "counter_ops",
		"elapsed_ns", "fairness", "live_peak_bytes", "mem_timeline", "ops", "queue_corrected",
		"queue_latency", "queue_ops", "timeline",
	}
	phaseKeys := append([]string{
		"arrival", "batch", "goroutines", "inflight", "mix", "name", "start_ns", "warmup", "worker_ops",
	}, measurement...)
	sort.Strings(phaseKeys)
	for _, tc := range []struct {
		what string
		v    any
		want []string
	}{
		{"metrics", m, []string{"aggregate", "counter", "elapsed_ns", "goroutines", "phases", "queue", "scenario", "seed", "validate_ns"}},
		{"phase", p, phaseKeys},
		{"aggregate", &m.Aggregate, measurement},
	} {
		if got := jsonKeys(t, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s JSON keys:\n got %s\nwant %s", tc.what, strings.Join(got, " "), strings.Join(tc.want, " "))
		}
	}
}
