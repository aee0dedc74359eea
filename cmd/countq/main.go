// Command countq runs the experiments reproducing Busch & Tirthapura,
// "Concurrent counting is harder than queuing" (IPDPS 2006 / TCS 2010),
// and drives the registered counter/queuer implementations directly.
//
// Usage:
//
//	countq list [-v]            # list experiments and registered protocols (-v: declared params)
//	countq scenarios [-v]       # list registered workload scenarios (-v: declared params)
//	countq run E1 E6 ...        # run selected experiments
//	countq run all              # run the full suite
//	countq compare -scenario 'ramp;spike' atomic 'sharded?shards=64'
//	countq benchdiff -noise 0.10 BENCH_old.json BENCH_new.json
//	countq topo -topo mesh2d -n 256
//	countq drive -counter 'sharded?shards=4&batch=16' -queue swap -g 8 -ops 100000
//	countq drive -counter sharded -scenario 'ramp?gmax=16' -json
//	countq drive -counter sharded -sweep batch=16,64,256,1024
//
// Structures and scenarios are named by spec: a bare registry name
// constructs the declared defaults, "name?param=value&..." tunes the
// declared parameters (list -v and scenarios -v print them). Scenario
// specs compose: "ramp?gmax=8;spike" sequences registered scenarios, with
// reserved per-segment weight= (budget share) and warmup= (mark the
// segment warmup) parameters. -scenario runs the workload as the named
// phase sequence and reports per-phase metrics — latency quantiles, a
// throughput timeline, worker fairness. -sweep varies one counter
// parameter over a list of values and reports one configuration per line.
//
// compare runs a campaign: several structure specs under one scenario's
// byte-identical phase sequence and a shared seed, reporting per-phase
// metrics plus delta ratios against a baseline spec (table, -csv, -md or
// -json). Alongside latency and throughput every table carries memory
// columns — allocs/op and the live-heap peak with its windowed timeline —
// so coordination cost and allocation cost read side by side. benchdiff
// compares two -benchjson files on p99, throughput and allocs/op within
// a noise band and exits nonzero on regression. topo compares the
// distributed protocols on a chosen topology.
//
// Experiments, protocols and scenarios all come from registries
// (internal/core's spec registry and the public repro/countq registries),
// so new entries appear here without touching this command.
//
// Flags for run: -quick (small sizes), -seed N (workload seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/countq"
	"repro/internal/core"
	"repro/internal/graph"
	_ "repro/internal/shm" // register the shared-memory counters and queues
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		listArgs(os.Args[2:])
	case "scenarios":
		scenariosArgs(os.Args[2:])
	case "run":
		runCmd(os.Args[2:])
	case "compare":
		compareCampaignCmd(os.Args[2:])
	case "benchdiff":
		benchdiffCmd(os.Args[2:])
	case "topo":
		topoCmd(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	case "drive":
		driveCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: countq {list [-v] | scenarios [-v] | run [-quick] [-seed N] <ids...|all>
              | compare [-scenario SPEC] [-queue SPEC] [-baseline SPEC] [-sweep P=V1,V2,...] [-g N] [-ops N] [-dur D] [-mix F] [-batch N] [-inflight K] [-sample K] [-arrival A] [-seed N] [-csv|-md|-json] <spec>[@g=N][@batch=N][@inflight=K] ...
              | benchdiff [-noise F] OLD.json NEW.json
              | topo [-topo T] [-n N] | trace [-n N] [-reqs K]
              | drive [-counter SPEC] [-queue SPEC] [-scenario SPEC] [-g N] [-ops N] [-dur D] [-mix F] [-batch N] [-inflight K] [-sample K] [-arrival A] [-seed N] [-sweep P=V1,V2,...] [-json]}`)
}

// scenariosArgs parses the scenarios flags and prints the listing.
func scenariosArgs(args []string) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print each scenario's declared parameters")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	scenariosCmd(os.Stdout, *verbose)
}

// scenariosCmd prints the scenario registry; like the structure listing,
// every line comes from registry declarations, never a hand-kept roster.
func scenariosCmd(w io.Writer, verbose bool) {
	fmt.Fprintln(w, "scenarios (countq registry):")
	for _, info := range countq.Scenarios() {
		fmt.Fprintf(w, "  %-12s %s\n", info.Name, info.Summary)
		if verbose {
			listParams(w, info.Params)
		}
	}
}

// listArgs parses the list flags and prints the listing.
func listArgs(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print each structure's declared construction parameters")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	listCmd(os.Stdout, *verbose)
}

// listCmd prints the experiment suite and the structure registry; every
// line — including the per-structure parameter documentation — is
// generated from registry declarations, never hand-maintained.
func listCmd(w io.Writer, verbose bool) {
	fmt.Fprintln(w, "experiments:")
	for _, s := range core.Experiments() {
		fmt.Fprintf(w, "  %-4s %-70s %s\n", s.ID, s.Title, s.Ref)
	}
	fmt.Fprintln(w, "\nstructures (countq registry; kind, consistency and session capabilities):")
	for _, info := range countq.Structures() {
		consistency := "quiescent"
		if info.Linearizable {
			consistency = "linearizable"
		}
		fmt.Fprintf(w, "  %-12s %-14s %-13s caps=%-14s %s\n", info.Name, info.Kinds, consistency, info.Caps, info.Summary)
		if verbose {
			listParams(w, info.Params)
		}
	}
}

// listParams prints one structure's declared parameters, -v style.
func listParams(w io.Writer, params []countq.ParamInfo) {
	for _, p := range params {
		fmt.Fprintf(w, "      %-8s default %-12s %s\n", p.Name, p.Default, p.Doc)
	}
}

// driveCmd runs the workload driver — one steady phase or a registered
// scenario's phase sequence — over any registered protocol pair, named by
// spec ("sharded?shards=4&batch=16"). With -sweep it varies one counter
// parameter over a list of values and reports one configuration per line.
// Both paths run through the campaign layer: a plain drive is the
// 1-structure campaign, a sweep is a campaign whose baseline is the first
// swept value.
func driveCmd(args []string) {
	fs := flag.NewFlagSet("drive", flag.ExitOnError)
	counter := fs.String("counter", "atomic", "counter spec, e.g. 'sharded?shards=4&batch=16' (empty for a pure queue workload)")
	queue := fs.String("queue", "swap", "queue spec (empty for a pure counter workload)")
	scenario := fs.String("scenario", "", "scenario spec, e.g. 'ramp?gmax=16' (empty for one steady phase; see countq scenarios)")
	g := fs.Int("g", 0, "goroutines (0 = GOMAXPROCS); scenarios treat this as the contention ceiling")
	ops := fs.Int("ops", 1<<17, "total operation budget (scenarios split it across phases)")
	dur := fs.Duration("dur", 0, "run for a duration instead of an ops budget")
	mix := fs.Float64("mix", 0.5, "fraction of operations that count (the rest enqueue; 0 = pure queue)")
	batch := fs.Int("batch", 0, "issue counter ops as IncN block grants of this size (requires the batch capability)")
	inflight := fs.Int("inflight", 0, "keep this many ops outstanding per worker (requires the async capability; 0/1 = synchronous)")
	sample := fs.Int("sample", 0, "time every Kth operation for per-op latency (0 = default 64)")
	arrival := fs.String("arrival", "closed", "arrival pattern: closed|uniform|bursty|fairshare")
	seed := fs.Int64("seed", 1, "workload seed")
	sweep := fs.String("sweep", "", "sweep one counter param over values, e.g. 'batch=16,64,256'")
	asJSON := fs.Bool("json", false, "emit the full metrics as JSON")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	arr, err := countq.ParseArrival(*arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq drive:", err)
		os.Exit(2)
	}
	base := countq.Workload{
		Scenario:      *scenario,
		Goroutines:    *g,
		Ops:           *ops,
		Mix:           *mix,
		Batch:         *batch,
		Inflight:      *inflight,
		LatencySample: *sample,
		Arrival:       arr,
		Seed:          *seed,
	}
	if *dur > 0 {
		base.Duration = *dur // replaces the ops budget
	}
	if *sweep != "" {
		if err := checkSweepShadow(*sweep, *scenario); err != nil {
			fmt.Fprintln(os.Stderr, "countq drive:", err)
			os.Exit(2)
		}
		specs, err := sweepSpecs(*counter, *sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq drive:", err)
			os.Exit(2)
		}
		c := countq.Campaign{Base: base, Name: "sweep"}
		for _, spec := range specs {
			c.Entries = append(c.Entries, countq.Entry{Counter: spec, Queue: *queue})
		}
		cmp, err := c.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq drive:", err)
			os.Exit(1)
		}
		if *asJSON {
			printJSON(cmp)
			return
		}
		for i := range cmp.Results {
			r := &cmp.Results[i]
			m := r.Metrics
			line := fmt.Sprintf("%-40s %10.1f ns/op overall", m.Counter, m.NsPerOp())
			if l := m.Aggregate.CounterLat; l != nil {
				line += fmt.Sprintf("   counting p50 %8.1f  p99 %8.1f", l.P50Ns, l.P99Ns)
			}
			if !r.Baseline && r.AggregateDelta.P99Ratio > 0 {
				line += fmt.Sprintf("   p99 %5.2fx vs %s", r.AggregateDelta.P99Ratio, cmp.Baseline)
			}
			fmt.Println(line)
		}
		return
	}
	c := countq.Campaign{Base: base, Entries: []countq.Entry{{Counter: *counter, Queue: *queue}}}
	cmp, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq drive:", err)
		os.Exit(1)
	}
	m := cmp.Results[0].Metrics
	if *asJSON {
		printJSON(m)
		return
	}
	printMetrics(os.Stdout, m)
}

// checkSweepShadow rejects a sweep whose parameter name a composed
// scenario segment also pins. The namespaces differ — -sweep varies the
// *counter spec*, segment parameters shape the *scenario* — but the name
// collision is exactly the case where a user who meant to sweep the
// scenario knob would instead silently measure the pinned segment value
// on every run, so the ambiguity fails loudly instead. Single-segment
// scenarios keep the existing behavior — the sweep varies the counter
// spec, the scenario keeps its own parameters.
func checkSweepShadow(sweep, scenario string) error {
	if scenario == "" || !strings.Contains(scenario, ";") {
		return nil
	}
	param, _, ok := strings.Cut(sweep, "=")
	if !ok || param == "" {
		return nil // sweepSpecs reports the malformed sweep itself
	}
	segs, err := countq.Segments(scenario)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if v, set := seg.Options.Lookup(param); set {
			return fmt.Errorf("ambiguous sweep: -sweep varies the counter parameter %q, but scenario segment %d (%s) pins a parameter of the same name (%s=%s), which a sweep never varies — if you meant to sweep the scenario knob, that stays fixed at %s; drop the segment parameter or sweep a differently-named one to disambiguate (shadowing)", param, i+1, seg.Name, param, v, v)
		}
	}
	return nil
}

// printMetrics renders a run's metrics as the human-readable per-phase
// table: latency quantiles per op kind, throughput, and worker fairness,
// then the aggregate over the measured phases.
func printMetrics(w io.Writer, m *countq.Metrics) {
	head := fmt.Sprintf("counter=%s queue=%s", m.Counter, m.Queue)
	if m.Scenario != "" {
		head += " scenario=" + m.Scenario
	}
	fmt.Fprintf(w, "%s goroutines=%d seed=%d elapsed=%v\n", head, m.Goroutines, m.Seed, m.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "%-12s %5s %5s %8s %9s %10s  %-30s %-30s %-24s %5s %9s\n",
		"phase", "g", "mix", "ops", "ns/op", "Mops/s", "counting p50/p99/p999", "queuing p50/p99/p999", "corrected p50/p99", "fair", "allocs/op")
	row := func(name string, g int, mix string, ops int, nsPerOp, mopsPerSec float64, cl, ql, cc, qc *countq.LatencyStats, fair string, allocs float64) {
		fmt.Fprintf(w, "%-12s %5d %5s %8d %9.1f %10.2f  %-30s %-30s %-24s %5s %9.2f\n",
			name, g, mix, ops, nsPerOp, mopsPerSec, latCell(cl), latCell(ql), corrCell(cc, qc), fair, allocs)
	}
	hasCorr := false
	for i := range m.Phases {
		p := &m.Phases[i]
		name := p.Name
		if p.Warmup {
			name += "*"
		}
		tput := 0.0
		if p.Elapsed > 0 {
			tput = float64(p.Ops) / p.Elapsed.Seconds() / 1e6
		}
		if p.CounterCorr != nil || p.QueueCorr != nil {
			hasCorr = true
		}
		row(name, p.Goroutines, fmt.Sprintf("%.2f", p.Mix), p.Ops, p.NsPerOp(), tput, p.CounterLat, p.QueueLat, p.CounterCorr, p.QueueCorr, fmt.Sprintf("%.2f", p.Fairness), p.AllocsPerOp)
	}
	a := &m.Aggregate
	tput := 0.0
	if a.Elapsed > 0 {
		tput = float64(a.Ops) / a.Elapsed.Seconds() / 1e6
	}
	row("aggregate", m.Goroutines, "", a.Ops, a.NsPerOp(), tput, a.CounterLat, a.QueueLat, a.CounterCorr, a.QueueCorr, fmt.Sprintf("%.2f", a.Fairness), a.AllocsPerOp)
	if len(a.Timeline) > 1 {
		fmt.Fprintf(w, "throughput timeline (Mops/s): %s\n", timelineCells(a.Timeline))
	}
	if a.LivePeakBytes > 0 {
		fmt.Fprintf(w, "live heap peak: %s", byteCell(a.LivePeakBytes))
		if len(a.MemTimeline) > 1 {
			fmt.Fprintf(w, "   timeline: %s", memTimelineCells(a.MemTimeline))
		}
		fmt.Fprintln(w)
	}
	for i := range m.Phases {
		if m.Phases[i].Warmup {
			fmt.Fprintln(w, "(*) warmup phase, excluded from the aggregate")
			break
		}
	}
	if hasCorr {
		fmt.Fprintln(w, "corrected p50/p99: coordinated-omission-corrected (completion vs the arrival schedule's intended start)")
	}
	fmt.Fprintf(w, "validated in %v: counts distinct and gap-free, predecessors form one total order\n", m.ValidateElapsed.Round(time.Microsecond))
}

// latCell renders one op kind's latency quantiles, or "-" when the run
// had no operations of that kind.
func latCell(l *countq.LatencyStats) string {
	if l == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f/%.0f ns", l.P50Ns, l.P99Ns, l.P999Ns)
}

// corrCell renders the coordinated-omission-corrected quantiles, counter
// side first (the paper's expensive side), or "-" for plain closed loops
// where none were recorded.
func corrCell(c, q *countq.LatencyStats) string {
	l := countq.PickLatency(c, q)
	if l == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f ns", l.P50Ns, l.P99Ns)
}

// byteCell renders a byte count human-readably.
func byteCell(b int64) string {
	switch {
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

// memTimelineCells renders the live-heap timeline as one peak per window.
func memTimelineCells(tl []countq.MemWindow) string {
	var b strings.Builder
	for i, win := range tl {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(byteCell(win.PeakBytes))
	}
	return b.String()
}

// timelineCells renders the aggregate throughput timeline as one number
// per window.
func timelineCells(tl []countq.Window) string {
	var b strings.Builder
	for i, win := range tl {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", win.OpsPerSec()/1e6)
	}
	return b.String()
}

// sweepSpecs expands a base counter spec and a "param=v1,v2,..." sweep
// argument into one spec per value.
func sweepSpecs(counter, sweep string) ([]string, error) {
	if counter == "" {
		return nil, fmt.Errorf("-sweep needs a -counter to vary")
	}
	param, list, ok := strings.Cut(sweep, "=")
	if !ok || param == "" || list == "" {
		return nil, fmt.Errorf("malformed -sweep %q (want param=v1,v2,...)", sweep)
	}
	base, err := countq.ParseSpec(counter)
	if err != nil {
		return nil, err
	}
	var specs []string
	for _, v := range strings.Split(list, ",") {
		if v == "" {
			return nil, fmt.Errorf("malformed -sweep %q: empty value", sweep)
		}
		specs = append(specs, base.With(param, v).String())
	}
	return specs, nil
}

// printJSON writes v as indented JSON to stdout.
func printJSON(v interface{}) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq drive:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 15, "tree size (perfect binary levels chosen to fit)")
	k := fs.Int("reqs", 6, "number of lock/queue requests")
	width := fs.Int("width", 72, "chart width")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	out, err := core.TraceDemo(*n, *k, *width, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq trace:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use the small problem sizes")
	seed := fs.Int64("seed", 1, "workload seed")
	format := fs.String("format", "text", "output format: text|csv|json|markdown")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "countq run: no experiment ids given (try 'all')")
		os.Exit(2)
	}
	var specs []*core.Spec
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		specs = core.Experiments()
	} else {
		for _, id := range ids {
			s := core.Lookup(id)
			if s == nil {
				fmt.Fprintf(os.Stderr, "countq run: unknown experiment %q\n", id)
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}
	cfg := core.Config{Quick: *quick, Seed: *seed}
	for _, s := range specs {
		tbl, err := s.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "countq run %s: %v\n", s.ID, err)
			os.Exit(1)
		}
		out, err := tbl.Format(*format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq run:", err)
			os.Exit(2)
		}
		fmt.Println(out)
	}
}

// topoCmd (formerly `compare`) contrasts the distributed protocols on a
// chosen message-passing topology; `compare` now names the shared-memory
// campaign comparison.
func topoCmd(args []string) {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	topo := fs.String("topo", "mesh2d", "topology: complete|mesh2d|mesh3d|hypercube|list|star|mary|caterpillar|ccc|debruijn")
	n := fs.Int("n", 256, "approximate number of nodes")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	g, err := buildTopology(*topo, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq topo:", err)
		os.Exit(2)
	}
	tbl, err := core.CompareOn(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq topo:", err)
		os.Exit(1)
	}
	fmt.Println(tbl.Render())
}

// buildTopology constructs the requested topology with roughly n nodes.
func buildTopology(topo string, n int) (*graph.Graph, error) {
	switch topo {
	case "complete":
		return graph.Complete(n), nil
	case "list":
		return graph.Path(n), nil
	case "star":
		return graph.Star(n), nil
	case "mesh2d":
		side := intSqrt(n)
		return graph.Mesh(side, side), nil
	case "mesh3d":
		side := intCbrt(n)
		return graph.Mesh(side, side, side), nil
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return graph.Hypercube(d), nil
	case "mary":
		levels := 1
		for size := 1; size*3+1 <= n; {
			size = size*3 + 1
			levels++
		}
		return graph.PerfectMAryTree(3, levels), nil
	case "caterpillar":
		return graph.Caterpillar(n, 0.75), nil
	case "ccc":
		d := 3
		for (d+1)*(1<<uint(d+1)) <= n {
			d++
		}
		return graph.CubeConnectedCycles(d), nil
	case "debruijn":
		d := 1
		for 1<<uint(d+1) <= n {
			d++
		}
		return graph.DeBruijn(d), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func intCbrt(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}
