package countq

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// marshals to JSON as-is, to CSV and Markdown via MarshalCSV and
// MarshalMarkdown for plots and reports, and to a terminal table via
// WriteText.
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
			p := &r.Metrics.Phases[j]
			r.PhaseDeltas = append(r.PhaseDeltas, newDelta(p.Name, &p.Measurement, &bm.Phases[j].Measurement))
		}
		r.AggregateDelta = newDelta("aggregate", &r.Metrics.Aggregate, &bm.Aggregate)
	}
	return cmp, nil
}

// newDelta is m's ratios against the baseline's same row b.
func newDelta(phase string, m, b *Measurement) Delta {
	return Delta{
		Phase:           phase,
		NsPerOpRatio:    ratio(m.NsPerOp(), b.NsPerOp()),
		ThroughputRatio: ratio(m.OpsPerSec(), b.OpsPerSec()),
		P50Ratio:        latRatio(m, b, func(l *LatencyStats) float64 { return l.P50Ns }),
		P99Ratio:        latRatio(m, b, func(l *LatencyStats) float64 { return l.P99Ns }),
		FairnessRatio:   ratio(m.Fairness, b.Fairness),
		AllocsRatio:     ratio(m.AllocsPerOp, b.AllocsPerOp),
		LivePeakRatio:   ratio(float64(m.LivePeakBytes), float64(b.LivePeakBytes)),
	}
}

// ratio is n/d, or 0 (omitted) when either side is non-positive — a
// missing measurement must not masquerade as a delta.
func ratio(n, d float64) float64 {
	if n <= 0 || d <= 0 {
		return 0
	}
	return n / d
}

// latRatio picks the op kind both rows measured — counter first, the
// paper's expensive side — and returns the chosen quantile's ratio.
func latRatio(m, b *Measurement, pick func(*LatencyStats) float64) float64 {
	if m.CounterLat != nil && b.CounterLat != nil {
		return ratio(pick(m.CounterLat), pick(b.CounterLat))
	}
	if m.QueueLat != nil && b.QueueLat != nil {
		return ratio(pick(m.QueueLat), pick(b.QueueLat))
	}
	return 0
}

// row is one line of every campaign table: a phase of one entry's run,
// or (phase nil) that entry's aggregate over its measured phases.
type row struct {
	res   *StructureResult
	phase *PhaseMetrics
	m     *Measurement
	delta Delta
}

// name is the row's phase column: the phase name, or "aggregate".
func (rw row) name() string {
	if rw.phase == nil {
		return "aggregate"
	}
	return rw.phase.Name
}

func (rw row) warmup() bool { return rw.phase != nil && rw.phase.Warmup }

// eachRow calls fn on every table row in order: each entry's phases,
// then its aggregate. Every format renders from it, so a new column is
// one edit per format.
func (c *Comparison) eachRow(fn func(row)) {
	for i := range c.Results {
		r := &c.Results[i]
		for j := range r.Metrics.Phases {
			p := &r.Metrics.Phases[j]
			fn(row{r, p, &p.Measurement, r.PhaseDeltas[j]})
		}
		fn(row{r, nil, &r.Metrics.Aggregate, r.AggregateDelta})
	}
}

// cells renders the columns text and Markdown share: none marks a missing
// value and times suffixes a ratio.
func (rw row) cells(label, phase, none, times string) []string {
	m, d := rw.m, rw.delta
	p50, p99 := quantiles(PickLatency(m.CounterLat, m.QueueLat), "%.0f", none)
	cp50, cp99 := quantiles(PickLatency(m.CounterCorr, m.QueueCorr), "%.0f", none)
	ratio := func(v float64) string { return cell(v, "%.2f"+times, none) }
	return []string{
		label, phase, strconv.Itoa(m.Ops), fmt.Sprintf("%.1f", m.NsPerOp()), fmt.Sprintf("%.2f", m.OpsPerSec()/1e6),
		p50, p99, cp50, cp99, fmt.Sprintf("%.2f", m.Fairness), fmt.Sprintf("%.2f", m.AllocsPerOp), bytesCell(m.LivePeakBytes, none),
		ratio(d.NsPerOpRatio), ratio(d.P99Ratio), ratio(d.ThroughputRatio), ratio(d.AllocsRatio),
	}
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
// baseline) and one aggregate row per structure, whose shape columns
// carry only the peak goroutine count.
func (c *Comparison) MarshalCSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	// A failed write sticks in w and surfaces from w.Error below.
	w.Write(csvHeader)
	c.eachRow(func(rw row) {
		m, d := rw.m, rw.delta
		out := []string{rw.res.Label, rw.name(), strconv.FormatBool(rw.warmup())}
		if p := rw.phase; p != nil {
			out = append(out, strconv.Itoa(p.Goroutines), num(p.Mix), p.Arrival, strconv.Itoa(p.Batch), strconv.Itoa(p.Inflight))
		} else {
			out = append(out, strconv.Itoa(rw.res.Metrics.Goroutines), "", "", "", "")
		}
		out = append(out, strconv.Itoa(m.Ops), strconv.FormatInt(m.Elapsed.Nanoseconds(), 10), num(m.NsPerOp()), num(m.OpsPerSec()))
		for _, l := range []*LatencyStats{m.CounterLat, m.QueueLat, m.CounterCorr, m.QueueCorr} {
			p50, p99 := quantiles(l, "%.1f", "")
			out = append(out, p50, p99)
		}
		out = append(out, num(m.Fairness), num(m.AllocsPerOp), num(m.AllocBytesPerOp), strconv.FormatInt(m.LivePeakBytes, 10))
		for _, v := range []float64{d.NsPerOpRatio, d.ThroughputRatio, d.P50Ratio, d.P99Ratio, d.FairnessRatio, d.AllocsRatio, d.LivePeakRatio} {
			out = append(out, cell(v, "%.4f", ""))
		}
		w.Write(out)
	})
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
	fmt.Fprintf(&buf, "scenario `%s` · goroutines %d · seed %d · baseline `%s`\n\n", scenarioName(c.Scenario), c.Goroutines, c.Seed, c.Baseline)
	fmt.Fprintln(&buf, "| structure | phase | ops | ns/op | Mops/s | p50 ns | p99 ns | corr p50 | corr p99 | fairness | allocs/op | live peak | Δns/op | Δp99 | Δtput | Δalloc |")
	fmt.Fprintln(&buf, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	c.eachRow(func(rw row) {
		label := "`" + rw.res.Label + "`"
		if rw.res.Baseline {
			label += " (baseline)"
		}
		phase := rw.name()
		if rw.phase == nil {
			phase = "**aggregate**"
		} else if rw.warmup() {
			phase += "\\*"
		}
		fmt.Fprintf(&buf, "| %s |\n", strings.Join(rw.cells(label, phase, "–", "×"), " | "))
	})
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

// textWidths are the text table's column widths, negative for
// left-aligned; the columns are those of row.cells.
var textWidths = []int{-28, -12, 8, 9, 8, 8, 8, 8, 8, 5, 9, 9, 8, 7, 7, 7}

// WriteText renders the comparison as the human-readable table countq
// compare prints: every structure under the identical phase sequence,
// the columns of the Markdown table, and footnotes.
func (c *Comparison) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	line := func(cells []string) {
		for i, s := range cells {
			if i > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "%*s", textWidths[i], s)
		}
		buf.WriteByte('\n')
	}
	fmt.Fprintf(&buf, "campaign scenario=%s goroutines=%d seed=%d baseline=%s\n", scenarioName(c.Scenario), c.Goroutines, c.Seed, c.Baseline)
	line([]string{"structure", "phase", "ops", "ns/op", "Mops/s", "p50", "p99", "cp50", "cp99", "fair", "allocs/op", "live peak", "Δns/op", "Δp99", "Δtput", "Δalloc"})
	hasWarmup := false
	c.eachRow(func(rw row) {
		label := rw.res.Label
		if rw.res.Baseline {
			label += "*"
		}
		phase := rw.name()
		if rw.warmup() {
			phase += "~"
			hasWarmup = true
		}
		line(rw.cells(label, phase, "-", "x"))
	})
	notes := "(*) baseline structure; Δ columns are this/baseline ratios"
	if hasWarmup {
		notes += "; (~) warmup phase, excluded from the aggregate"
	}
	fmt.Fprintln(&buf, notes)
	fmt.Fprintln(&buf, "cp50/cp99 are coordinated-omission-corrected quantiles (completion vs intended start); '-' for plain closed loops")
	fmt.Fprintln(&buf, "allocs/op is heap allocations per operation (workers preallocate, so allocation-free structures report 0.00; Δalloc '-' when either side is 0)")
	fmt.Fprintln(&buf, "every structure validated independently: counts distinct and gap-free, predecessors one total order")
	fmt.Fprintln(&buf, "fairness is min/max worker ops; ≈ 0 on a single-core host is the scheduler, not the structure (see compare -h)")
	_, err := w.Write(buf.Bytes())
	return err
}

// num renders a float compactly for CSV (6 significant digits; zero stays
// "0" — only the ratio columns use empty cells, for "not measured").
func num(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// cell renders v with format, or none when v is 0 (omitted).
func cell(v float64, format, none string) string {
	if v == 0 {
		return none
	}
	return fmt.Sprintf(format, v)
}

// quantiles renders l's p50 and p99 with format, or none twice when the
// record is absent.
func quantiles(l *LatencyStats, format, none string) (string, string) {
	if l == nil {
		return none, none
	}
	return fmt.Sprintf(format, l.P50Ns), fmt.Sprintf(format, l.P99Ns)
}

// bytesCell renders a byte count human-readably, or none when it is 0.
func bytesCell(b int64, none string) string {
	switch {
	case b <= 0:
		return none
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

// scenarioName is the scenario spec, or "steady" when there is none.
func scenarioName(s string) string {
	if s == "" {
		return "steady"
	}
	return s
}
