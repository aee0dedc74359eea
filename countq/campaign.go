package countq

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"time"
)

// Entry is one structure configuration in a campaign: a counter spec, a
// queue spec, or both (a mixed workload). Mixed entries (both specs set)
// must share their shape with every other entry — the mix fraction forces
// the per-phase op split, and a diverging split would break the
// identical-phase-sequence guarantee the comparison rests on. Pure
// entries may differ in kind: a counter-only entry compared against a
// queue-only entry runs the same phase sequence, budgets and arrival
// schedule with its own operation kind, which is precisely the paper's
// counting-versus-queuing question (latency ratios across kinds are
// omitted; ns/op and throughput ratios compare the coordination cost).
type Entry struct {
	Counter string `json:"counter,omitempty"`
	Queue   string `json:"queue,omitempty"`
	// Goroutines, Batch and Inflight, when > 0, override the base
	// workload's values in every phase for this entry alone — declared
	// asymmetry for comparisons like "batched sharded vs unbatched atomic
	// at equal ops" (Batch: 1 forces the single-Inc path even when the
	// base batches; goroutine ramps are flattened to the override). An
	// overridden entry no longer runs the byte-identical phase shapes the
	// plain comparison guarantees; its deltas read as "this configuration
	// vs the baseline's", which is exactly what was asked.
	Goroutines int `json:"goroutines,omitempty"`
	Batch      int `json:"batch,omitempty"`
	Inflight   int `json:"inflight,omitempty"`
}

// Label is the entry's display and matching key: the counter spec, the
// queue spec, or "counter+queue" for a mixed entry, with any per-entry
// overrides appended ("atomic@g=4@batch=64").
func (e Entry) Label() string {
	var label string
	switch {
	case e.Counter != "" && e.Queue != "":
		label = e.Counter + "+" + e.Queue
	case e.Counter != "":
		label = e.Counter
	default:
		label = e.Queue
	}
	if e.Goroutines > 0 {
		label += fmt.Sprintf("@g=%d", e.Goroutines)
	}
	if e.Batch > 0 {
		label += fmt.Sprintf("@batch=%d", e.Batch)
	}
	if e.Inflight > 0 {
		label += fmt.Sprintf("@inflight=%d", e.Inflight)
	}
	return label
}

// applyOverrides rewrites a copy of the shared phase sequence with the
// entry's declared asymmetries.
func (e Entry) applyOverrides(phases []Phase) []Phase {
	out := append([]Phase(nil), phases...)
	for i := range out {
		if e.Goroutines > 0 {
			out[i].Goroutines = e.Goroutines
		}
		if e.Batch > 0 {
			out[i].Batch = e.Batch
		}
		if e.Inflight > 0 {
			out[i].Inflight = e.Inflight
		}
	}
	return out
}

// Campaign runs one scenario over a set of structure specs — the paper's
// comparative claim ("counting is harder than queuing", "scalable beats
// centralized under the right load") as a single call. Every entry runs
// under a byte-identical phase sequence: the scenario is expanded once
// against the base shape, and the shared seed means every entry draws the
// same per-worker op and arrival schedule. Each entry's run is validated
// independently (counts gap-free, predecessors one total order), and the
// Comparison reports per-structure Metrics plus per-phase and aggregate
// deltas against the declared baseline entry.
type Campaign struct {
	// Base is the shared workload shape: scenario, goroutines, ops or
	// duration budget, mix, batch, sampling, arrival, seed. Its Counter
	// and Queue fields must be empty — structures come from Entries.
	Base Workload
	// Entries are the structure configurations under comparison, all of
	// the same kind shape. Labels must be distinct.
	Entries []Entry
	// Baseline indexes the entry the deltas are computed against
	// (default 0, the first entry).
	Baseline int
	// Name optionally labels the campaign in the Comparison — useful when
	// several campaigns land in one file.
	Name string
}

// Delta is one phase's (or the aggregate's) ratios against the baseline
// entry's same phase. Ratios are this-entry over baseline: NsPerOp, P50
// and P99 below 1 mean faster than the baseline, Throughput and Fairness
// above 1 mean better. Latency ratios compare counter latency when both
// runs have it, queue latency otherwise; a ratio whose either side is
// missing or zero is omitted as 0.
type Delta struct {
	Phase           string  `json:"phase"`
	NsPerOpRatio    float64 `json:"ns_per_op_ratio,omitempty"`
	ThroughputRatio float64 `json:"throughput_ratio,omitempty"`
	P50Ratio        float64 `json:"p50_ratio,omitempty"`
	P99Ratio        float64 `json:"p99_ratio,omitempty"`
	FairnessRatio   float64 `json:"fairness_ratio,omitempty"`
	// AllocsRatio and LivePeakRatio compare the memory cost of counting:
	// heap allocations per operation and the peak live heap while the
	// phase ran. Below 1 means this entry allocates (or retains) less
	// than the baseline. An entry that allocates nothing per op has no
	// meaningful ratio and is omitted as 0, like the latency ratios.
	AllocsRatio   float64 `json:"allocs_ratio,omitempty"`
	LivePeakRatio float64 `json:"live_peak_ratio,omitempty"`
}

// StructureResult is one entry's outcome: its full Metrics plus the
// deltas against the baseline entry (self-ratios of 1 on the baseline
// itself, so consumers need no special case).
type StructureResult struct {
	Label    string   `json:"label"`
	Counter  string   `json:"counter,omitempty"`
	Queue    string   `json:"queue,omitempty"`
	Baseline bool     `json:"baseline,omitempty"`
	Metrics  *Metrics `json:"metrics"`
	// PhaseDeltas has one Delta per phase, in phase order (warmup phases
	// included); AggregateDelta folds the measured phases.
	PhaseDeltas    []Delta `json:"phase_deltas"`
	AggregateDelta Delta   `json:"aggregate_delta"`
}

// Comparison is a campaign's outcome: per-structure Metrics under the
// identical phase sequence, plus deltas against the baseline entry. It
// marshals to JSON as-is, and to CSV and Markdown via MarshalCSV and
// MarshalMarkdown for plots and reports.
type Comparison struct {
	Name       string            `json:"name,omitempty"`
	Scenario   string            `json:"scenario,omitempty"`
	Goroutines int               `json:"goroutines"`
	Ops        int               `json:"ops,omitempty"`
	Duration   time.Duration     `json:"duration_ns,omitempty"`
	Seed       int64             `json:"seed"`
	Baseline   string            `json:"baseline"`
	Results    []StructureResult `json:"results"`
}

// Run executes the campaign: one validated run per entry over the shared
// phase sequence, then the cross-structure deltas.
func (c Campaign) Run() (*Comparison, error) {
	if len(c.Entries) == 0 {
		return nil, fmt.Errorf("countq: campaign has no entries")
	}
	if c.Base.Counter != "" || c.Base.Queue != "" {
		return nil, fmt.Errorf("countq: campaign base names structures (%q, %q); structures come from Entries", c.Base.Counter, c.Base.Queue)
	}
	if c.Baseline < 0 || c.Baseline >= len(c.Entries) {
		return nil, fmt.Errorf("countq: campaign baseline index %d outside its %d entries", c.Baseline, len(c.Entries))
	}
	seen := make(map[string]bool, len(c.Entries))
	for i, e := range c.Entries {
		if e.Counter == "" && e.Queue == "" {
			return nil, fmt.Errorf("countq: campaign entry %d names neither a counter nor a queue", i)
		}
		mixed := e.Counter != "" && e.Queue != ""
		firstMixed := c.Entries[0].Counter != "" && c.Entries[0].Queue != ""
		if (mixed || firstMixed) && ((e.Counter == "") != (c.Entries[0].Counter == "") || (e.Queue == "") != (c.Entries[0].Queue == "")) {
			return nil, fmt.Errorf("countq: campaign entry %q has a different kind shape than mixed entry %q; a diverging mix would change the per-phase op split and break the identical-phase-sequence comparison (pure counter and pure queue entries may be compared cross-kind)", e.Label(), c.Entries[0].Label())
		}
		if seen[e.Label()] {
			return nil, fmt.Errorf("countq: campaign lists entry %q twice", e.Label())
		}
		seen[e.Label()] = true
	}

	// Expand the scenario once, against the base shape with the first
	// entry's structures (expansion may legitimately require both kinds,
	// as mixshift does). Every entry then runs its own copy of the same
	// phases, under the same seed — identical op and arrival schedules.
	base := c.Base
	base.Counter, base.Queue = c.Entries[0].Counter, c.Entries[0].Queue
	base = base.withDefaults()
	scenarioSpec := ""
	var phases []Phase
	if c.Base.Scenario != "" {
		sc, err := ExpandScenario(c.Base.Scenario, base)
		if err != nil {
			return nil, err
		}
		scenarioSpec, phases = sc.Spec, sc.Phases
	} else {
		phases = []Phase{basePhase(base, "steady")}
		phases[0].Ops, phases[0].Duration = base.Ops, base.Duration
	}

	cmp := &Comparison{
		Name:       c.Name,
		Scenario:   scenarioSpec,
		Goroutines: base.Goroutines,
		Ops:        base.Ops,
		Duration:   base.Duration,
		Seed:       base.Seed,
		Baseline:   c.Entries[c.Baseline].Label(),
	}
	for _, e := range c.Entries {
		w := base
		w.Counter, w.Queue = e.Counter, e.Queue
		m, err := runSpec(w, scenarioSpec, e.applyOverrides(phases))
		if err != nil {
			return nil, fmt.Errorf("countq: campaign entry %q: %w", e.Label(), err)
		}
		cmp.Results = append(cmp.Results, StructureResult{
			Label:   e.Label(),
			Counter: e.Counter,
			Queue:   e.Queue,
			Metrics: m,
		})
	}
	bm := cmp.Results[c.Baseline].Metrics
	for i := range cmp.Results {
		r := &cmp.Results[i]
		r.Baseline = i == c.Baseline
		for j := range r.Metrics.Phases {
			p, bp := &r.Metrics.Phases[j], &bm.Phases[j]
			r.PhaseDeltas = append(r.PhaseDeltas, Delta{
				Phase:           p.Name,
				NsPerOpRatio:    ratio(p.NsPerOp(), bp.NsPerOp()),
				ThroughputRatio: ratio(p.OpsPerSec(), bp.OpsPerSec()),
				P50Ratio:        latRatio(p.CounterLat, bp.CounterLat, p.QueueLat, bp.QueueLat, func(l *LatencyStats) float64 { return l.P50Ns }),
				P99Ratio:        latRatio(p.CounterLat, bp.CounterLat, p.QueueLat, bp.QueueLat, func(l *LatencyStats) float64 { return l.P99Ns }),
				FairnessRatio:   ratio(p.Fairness, bp.Fairness),
				AllocsRatio:     ratio(p.AllocsPerOp, bp.AllocsPerOp),
				LivePeakRatio:   ratio(float64(p.LivePeakBytes), float64(bp.LivePeakBytes)),
			})
		}
		a, ba := &r.Metrics.Aggregate, &bm.Aggregate
		r.AggregateDelta = Delta{
			Phase:           "aggregate",
			NsPerOpRatio:    ratio(a.NsPerOp(), ba.NsPerOp()),
			ThroughputRatio: ratio(a.OpsPerSec(), ba.OpsPerSec()),
			P50Ratio:        latRatio(a.CounterLat, ba.CounterLat, a.QueueLat, ba.QueueLat, func(l *LatencyStats) float64 { return l.P50Ns }),
			P99Ratio:        latRatio(a.CounterLat, ba.CounterLat, a.QueueLat, ba.QueueLat, func(l *LatencyStats) float64 { return l.P99Ns }),
			FairnessRatio:   ratio(a.Fairness, ba.Fairness),
			AllocsRatio:     ratio(a.AllocsPerOp, ba.AllocsPerOp),
			LivePeakRatio:   ratio(float64(a.LivePeakBytes), float64(ba.LivePeakBytes)),
		}
	}
	return cmp, nil
}

// ratio is n/d, or 0 (omitted) when either side is non-positive — a
// missing measurement must not masquerade as a delta.
func ratio(n, d float64) float64 {
	if n <= 0 || d <= 0 {
		return 0
	}
	return n / d
}

// latRatio picks the op kind both runs measured — counter first, the
// paper's expensive side — and returns the chosen quantile's ratio.
func latRatio(c, bc, q, bq *LatencyStats, pick func(*LatencyStats) float64) float64 {
	if c != nil && bc != nil {
		return ratio(pick(c), pick(bc))
	}
	if q != nil && bq != nil {
		return ratio(pick(q), pick(bq))
	}
	return 0
}

// csvHeader is the column set MarshalCSV emits: one row per structure per
// phase plus an aggregate row per structure, identical columns throughout
// so the file loads straight into a dataframe.
var csvHeader = []string{
	"structure", "phase", "warmup", "goroutines", "mix", "arrival", "batch", "inflight",
	"ops", "elapsed_ns", "ns_per_op", "ops_per_sec",
	"counter_p50_ns", "counter_p99_ns", "queue_p50_ns", "queue_p99_ns",
	"counter_corr_p50_ns", "counter_corr_p99_ns", "queue_corr_p50_ns", "queue_corr_p99_ns",
	"fairness", "allocs_per_op", "alloc_bytes_per_op", "live_peak_bytes",
	"ns_per_op_ratio", "throughput_ratio", "p50_ratio", "p99_ratio", "fairness_ratio",
	"allocs_ratio", "live_peak_ratio",
}

// MarshalCSV renders the comparison as CSV: the header above, then one row
// per structure per phase (warmup flagged, delta ratios against the
// baseline) and one aggregate row per structure.
func (c *Comparison) MarshalCSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(csvHeader); err != nil {
		return nil, err
	}
	for i := range c.Results {
		r := &c.Results[i]
		for j := range r.Metrics.Phases {
			p := &r.Metrics.Phases[j]
			d := r.PhaseDeltas[j]
			row := []string{
				r.Label, p.Name, strconv.FormatBool(p.Warmup),
				strconv.Itoa(p.Goroutines), num(p.Mix), p.Arrival, strconv.Itoa(p.Batch), strconv.Itoa(p.Inflight),
				strconv.Itoa(p.Ops), strconv.FormatInt(p.Elapsed.Nanoseconds(), 10),
				num(p.NsPerOp()), num(p.OpsPerSec()),
				latNum(p.CounterLat, func(l *LatencyStats) float64 { return l.P50Ns }),
				latNum(p.CounterLat, func(l *LatencyStats) float64 { return l.P99Ns }),
				latNum(p.QueueLat, func(l *LatencyStats) float64 { return l.P50Ns }),
				latNum(p.QueueLat, func(l *LatencyStats) float64 { return l.P99Ns }),
				latNum(p.CounterCorr, func(l *LatencyStats) float64 { return l.P50Ns }),
				latNum(p.CounterCorr, func(l *LatencyStats) float64 { return l.P99Ns }),
				latNum(p.QueueCorr, func(l *LatencyStats) float64 { return l.P50Ns }),
				latNum(p.QueueCorr, func(l *LatencyStats) float64 { return l.P99Ns }),
				num(p.Fairness),
				num(p.AllocsPerOp), num(p.AllocBytesPerOp), strconv.FormatInt(p.LivePeakBytes, 10),
				ratioNum(d.NsPerOpRatio), ratioNum(d.ThroughputRatio),
				ratioNum(d.P50Ratio), ratioNum(d.P99Ratio), ratioNum(d.FairnessRatio),
				ratioNum(d.AllocsRatio), ratioNum(d.LivePeakRatio),
			}
			if err := w.Write(row); err != nil {
				return nil, err
			}
		}
		a := &r.Metrics.Aggregate
		d := r.AggregateDelta
		row := []string{
			r.Label, "aggregate", "false",
			strconv.Itoa(r.Metrics.Goroutines), "", "", "", "",
			strconv.Itoa(a.Ops), strconv.FormatInt(a.Elapsed.Nanoseconds(), 10),
			num(a.NsPerOp()), num(a.OpsPerSec()),
			latNum(a.CounterLat, func(l *LatencyStats) float64 { return l.P50Ns }),
			latNum(a.CounterLat, func(l *LatencyStats) float64 { return l.P99Ns }),
			latNum(a.QueueLat, func(l *LatencyStats) float64 { return l.P50Ns }),
			latNum(a.QueueLat, func(l *LatencyStats) float64 { return l.P99Ns }),
			latNum(a.CounterCorr, func(l *LatencyStats) float64 { return l.P50Ns }),
			latNum(a.CounterCorr, func(l *LatencyStats) float64 { return l.P99Ns }),
			latNum(a.QueueCorr, func(l *LatencyStats) float64 { return l.P50Ns }),
			latNum(a.QueueCorr, func(l *LatencyStats) float64 { return l.P99Ns }),
			num(a.Fairness),
			num(a.AllocsPerOp), num(a.AllocBytesPerOp), strconv.FormatInt(a.LivePeakBytes, 10),
			ratioNum(d.NsPerOpRatio), ratioNum(d.ThroughputRatio),
			ratioNum(d.P50Ratio), ratioNum(d.P99Ratio), ratioNum(d.FairnessRatio),
			ratioNum(d.AllocsRatio), ratioNum(d.LivePeakRatio),
		}
		if err := w.Write(row); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MarshalMarkdown renders the comparison as a GitHub-flavoured Markdown
// table: per-phase rows with the delta columns, aggregate rows, and a
// footnote explaining the baseline and the single-core fairness caveat.
func (c *Comparison) MarshalMarkdown() ([]byte, error) {
	var buf bytes.Buffer
	head := "## campaign"
	if c.Name != "" {
		head += " " + c.Name
	}
	fmt.Fprintf(&buf, "%s\n\n", head)
	fmt.Fprintf(&buf, "scenario `%s` · goroutines %d · seed %d · baseline `%s`\n\n", orDash(c.Scenario), c.Goroutines, c.Seed, c.Baseline)
	fmt.Fprintln(&buf, "| structure | phase | ops | ns/op | Mops/s | p50 ns | p99 ns | corr p50 | corr p99 | fairness | allocs/op | live peak | Δns/op | Δp99 | Δtput | Δalloc |")
	fmt.Fprintln(&buf, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	latPair := func(c, q *LatencyStats) (string, string) {
		lat := PickLatency(c, q)
		if lat == nil {
			return "–", "–"
		}
		return fmt.Sprintf("%.0f", lat.P50Ns), fmt.Sprintf("%.0f", lat.P99Ns)
	}
	row := func(label, phase string, warm bool, ops int, nsPerOp, opsPerSec float64, cl, ql, cc, qc *LatencyStats, fair, allocs float64, peak int64, d Delta) {
		if warm {
			phase += "\\*"
		}
		p50, p99 := latPair(cl, ql)
		cp50, cp99 := latPair(cc, qc)
		fmt.Fprintf(&buf, "| %s | %s | %d | %.1f | %.2f | %s | %s | %s | %s | %.2f | %.2f | %s | %s | %s | %s | %s |\n",
			label, phase, ops, nsPerOp, opsPerSec/1e6, p50, p99, cp50, cp99, fair,
			allocs, mdBytes(peak),
			mdRatio(d.NsPerOpRatio), mdRatio(d.P99Ratio), mdRatio(d.ThroughputRatio), mdRatio(d.AllocsRatio))
	}
	for i := range c.Results {
		r := &c.Results[i]
		label := "`" + r.Label + "`"
		if r.Baseline {
			label += " (baseline)"
		}
		for j := range r.Metrics.Phases {
			p := &r.Metrics.Phases[j]
			row(label, p.Name, p.Warmup, p.Ops, p.NsPerOp(), p.OpsPerSec(), p.CounterLat, p.QueueLat, p.CounterCorr, p.QueueCorr, p.Fairness, p.AllocsPerOp, p.LivePeakBytes, r.PhaseDeltas[j])
		}
		a := &r.Metrics.Aggregate
		row(label, "**aggregate**", false, a.Ops, a.NsPerOp(), a.OpsPerSec(), a.CounterLat, a.QueueLat, a.CounterCorr, a.QueueCorr, a.Fairness, a.AllocsPerOp, a.LivePeakBytes, r.AggregateDelta)
	}
	fmt.Fprintln(&buf, "\nΔ columns are ratios against the baseline's same phase (Δns/op, Δp99 and Δalloc below 1"+
		" are better for this entry, Δtput above 1 is higher throughput); \\* marks warmup phases, excluded from the"+
		" aggregate. allocs/op is heap allocations per operation over the whole phase (workers preallocate before the"+
		" start barrier, so steady phases of allocation-free structures report 0.00 and Δalloc is omitted as –);"+
		" live peak is the highest sampled live-heap size while the phase ran."+
		" corr p50/p99 are coordinated-omission-corrected quantiles (completion against the intended start of"+
		" the arrival schedule), recorded under open-loop arrivals and async pipelining — '–' for plain closed"+
		" loops, where they would equal the service-time quantiles."+
		" Fairness is min/max worker ops: on a single-core host (GOMAXPROCS=1) closed-loop phases legitimately"+
		" report ≈ 0 — one worker drains the shared pool per timeslice — so compare fairness only at GOMAXPROCS > 1"+
		" (or use the fairshare arrival pattern, whose rotating grant is scheduler-independent).")
	return buf.Bytes(), nil
}

// num renders a float compactly for CSV (6 significant digits; zero stays
// "0" — only the ratio columns use empty cells, for "not measured").
func num(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// ratioNum renders a delta ratio, empty when omitted (0).
func ratioNum(v float64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// latNum renders one quantile of a possibly-absent latency record.
func latNum(l *LatencyStats, pick func(*LatencyStats) float64) string {
	if l == nil {
		return ""
	}
	return strconv.FormatFloat(pick(l), 'f', 1, 64)
}

// mdRatio renders a ratio for the Markdown table ("–" when omitted).
func mdRatio(v float64) string {
	if v == 0 {
		return "–"
	}
	return fmt.Sprintf("%.2f×", v)
}

// mdBytes renders a byte count human-readably for the Markdown table.
func mdBytes(b int64) string {
	switch {
	case b <= 0:
		return "–"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	}
}

// orDash substitutes "steady (no scenario)" for an empty scenario spec.
func orDash(s string) string {
	if s == "" {
		return "steady"
	}
	return s
}
