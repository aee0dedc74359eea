package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/countq"
)

// parseInterleaved parses args with fs, allowing flags and positional
// arguments in any order ("countq compare SPEC -scenario ramp" works like
// "countq compare -scenario ramp SPEC"): the standard flag package stops
// at the first positional, so each stop collects it and parsing resumes.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return positional, nil
		}
		positional = append(positional, rest[0])
		args = rest[1:]
	}
}

// parseEntry turns one positional compare argument into a campaign entry:
// a structure spec, optionally followed by '@'-separated per-entry
// overrides ("sharded?shards=8@batch=64@g=4"). Overrides declare
// asymmetric comparisons — batched vs unbatched, pipelined vs synchronous
// — at equal op budgets; batch=1 forces the single-Inc path even when the
// campaign base batches.
//
// A spec naming a queue-only structure becomes a pure queue entry even
// without -queues, so cross-kind campaigns read naturally:
// `countq compare "sim-counter,sim-arrow-queue,sim-tree-counter"` prices
// counting against queuing under one phase sequence — the paper's
// separation as one command.
func parseEntry(arg, sharedQueue string, asQueue bool) (countq.Entry, error) {
	parts := strings.Split(arg, "@")
	e := countq.Entry{Counter: parts[0], Queue: sharedQueue}
	if asQueue {
		e = countq.Entry{Queue: parts[0]}
	} else if sharedQueue == "" {
		name, _, _ := strings.Cut(parts[0], "?")
		_, isCounter := countq.LookupStructure(name, countq.KindCounter)
		_, isQueue := countq.LookupStructure(name, countq.KindQueue)
		if isQueue && !isCounter {
			e = countq.Entry{Queue: parts[0]}
		}
	}
	for _, ov := range parts[1:] {
		k, v, ok := strings.Cut(ov, "=")
		if !ok || v == "" {
			return countq.Entry{}, fmt.Errorf("malformed per-entry override %q (want g=N, batch=N or inflight=N)", ov)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return countq.Entry{}, fmt.Errorf("per-entry override %q is not a positive integer", ov)
		}
		switch k {
		case "g":
			e.Goroutines = n
		case "batch":
			e.Batch = n
		case "inflight":
			e.Inflight = n
		default:
			return countq.Entry{}, fmt.Errorf("unknown per-entry override %q (g|batch|inflight)", k)
		}
	}
	return e, nil
}

// compareCampaignCmd runs a campaign: one or more positional structure
// specs under one scenario's byte-identical phase sequence and a shared
// seed, printing per-phase metrics plus delta ratios against the baseline
// spec (self-ratios when there is only one). Specs are
// given as separate arguments or comma-separated in one
// ("sharded?shards=8,sim-counter?hoplat=1us"); flags may follow them.
// -sweep fans one base spec into entries instead.
func compareCampaignCmd(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	scenario := fs.String("scenario", "", "scenario spec, composable with ';' (e.g. 'ramp?gmax=8;spike'); empty for one steady phase")
	queue := fs.String("queue", "", "queue spec paired with every counter spec (mixed workloads); empty compares pure counting")
	queues := fs.Bool("queues", false, "treat the positional specs as queue specs (pure queuing comparison)")
	baseline := fs.String("baseline", "", "the spec deltas are computed against (default: the first spec)")
	sweep := fs.String("sweep", "", "fan ONE base spec into campaign entries varying a param: 'param=v1,v2,...' (baseline: the first value)")
	g := fs.Int("g", 0, "goroutines (0 = GOMAXPROCS); scenarios treat this as the contention ceiling")
	ops := fs.Int("ops", 1<<17, "total operation budget per structure (scenarios split it across phases)")
	dur := fs.Duration("dur", 0, "run each structure for a duration instead of an ops budget")
	mix := fs.Float64("mix", 0.5, "fraction of operations that count when -queue is set (the rest enqueue)")
	batch := fs.Int("batch", 0, "issue counter ops as IncN block grants of this size (requires the batch capability)")
	inflight := fs.Int("inflight", 0, "keep this many ops outstanding per worker (requires the async capability; 0/1 = synchronous)")
	sample := fs.Int("sample", 0, "time every Kth operation for per-op latency (0 = default 64)")
	arrival := fs.String("arrival", "closed", "arrival pattern: closed|uniform|bursty|fairshare")
	seed := fs.Int64("seed", 1, "workload seed, shared by every structure (identical op and arrival schedules)")
	asCSV := fs.Bool("csv", false, "emit the comparison as CSV")
	asMD := fs.Bool("md", false, "emit the comparison as a Markdown table")
	asJSON := fs.Bool("json", false, "emit the full Comparison as JSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: countq compare [flags] <spec>[@g=N][@batch=N][@inflight=N] [<spec> ...]")
		fmt.Fprintln(os.Stderr, "specs may also be comma-separated in one argument, and flags may follow them.")
		fmt.Fprintln(os.Stderr, "runs every spec under the same phase sequence and seed; Δ columns are")
		fmt.Fprintln(os.Stderr, "this-structure / baseline ratios (Δns/op and Δp99 below 1 are faster,")
		fmt.Fprintln(os.Stderr, "Δtput above 1 is higher throughput). '@' overrides declare per-entry")
		fmt.Fprintln(os.Stderr, "asymmetries (batched vs unbatched, pipelined vs sync) at equal budgets;")
		fmt.Fprintln(os.Stderr, "-sweep fans one base spec over a parameter list instead.")
		fmt.Fprintln(os.Stderr, "")
		fmt.Fprintln(os.Stderr, "cp50/cp99 are coordinated-omission-corrected quantiles: completion time")
		fmt.Fprintln(os.Stderr, "against the intended start of the arrival schedule, recorded under open")
		fmt.Fprintln(os.Stderr, "arrivals (uniform|bursty) and -inflight pipelining; '-' for plain closed")
		fmt.Fprintln(os.Stderr, "loops, where they would equal the service-time quantiles.")
		fmt.Fprintln(os.Stderr, "")
		fmt.Fprintln(os.Stderr, "allocs/op is heap allocations per operation, measured over the whole")
		fmt.Fprintln(os.Stderr, "phase via runtime GC counters; the driver preallocates its own state")
		fmt.Fprintln(os.Stderr, "before each phase's start barrier, so the number is the structure's")
		fmt.Fprintln(os.Stderr, "allocation cost, and allocation-free structures report 0.00. Δalloc is")
		fmt.Fprintln(os.Stderr, "this/baseline; '-' when either side allocates nothing. live peak is the")
		fmt.Fprintln(os.Stderr, "peak sampled live heap. -csv adds alloc_bytes_per_op and both op kinds'")
		fmt.Fprintln(os.Stderr, "quantiles; -json adds p999 and the throughput and live-heap timelines.")
		fmt.Fprintln(os.Stderr, "")
		fmt.Fprintln(os.Stderr, "The fair column is min/max per-worker ops (1 = perfectly fair service).")
		fmt.Fprintln(os.Stderr, "On a single-core host (GOMAXPROCS=1) closed-loop phases legitimately")
		fmt.Fprintln(os.Stderr, "report fairness ≈ 0 — one worker drains the shared op pool per")
		fmt.Fprintln(os.Stderr, "timeslice, which is the scheduler's doing, not the structure's. Compare")
		fmt.Fprintln(os.Stderr, "fairness across structures only when GOMAXPROCS > 1 (e.g. run with")
		fmt.Fprintln(os.Stderr, "GOMAXPROCS=8), or use -arrival fairshare, whose rotating per-worker")
		fmt.Fprintln(os.Stderr, "grant makes the number scheduler-independent on any host.")
		fmt.Fprintln(os.Stderr, "")
		fmt.Fprintln(os.Stderr, "flags:")
		fs.PrintDefaults()
	}
	positional, err := parseInterleaved(fs, args)
	if err != nil {
		os.Exit(2) // unreachable with ExitOnError; kept for other policies
	}
	arr, err := countq.ParseArrival(*arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq compare:", err)
		os.Exit(2)
	}
	if *queues && *queue != "" {
		fmt.Fprintln(os.Stderr, "countq compare: -queues (positional queue specs) and -queue (shared queue) are mutually exclusive")
		os.Exit(2)
	}
	// Expand comma-separated spec lists, then '@' overrides.
	var specArgs []string
	for _, arg := range positional {
		for _, part := range strings.Split(arg, ",") {
			if part == "" {
				fmt.Fprintf(os.Stderr, "countq compare: empty spec in %q\n", arg)
				os.Exit(2)
			}
			specArgs = append(specArgs, part)
		}
	}
	if *sweep != "" {
		if len(specArgs) != 1 {
			fmt.Fprintf(os.Stderr, "countq compare: -sweep fans one base spec into entries; got %d specs %v\n", len(specArgs), specArgs)
			os.Exit(2)
		}
		if err := checkSweepShadow(*sweep, *scenario); err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(2)
		}
		base, overrides, _ := strings.Cut(specArgs[0], "@")
		swept, err := sweepSpecs(base, *sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(2)
		}
		specArgs = specArgs[:0]
		for _, s := range swept {
			if overrides != "" {
				s += "@" + overrides
			}
			specArgs = append(specArgs, s)
		}
	}
	if len(specArgs) == 0 {
		fmt.Fprintln(os.Stderr, "countq compare: no structure spec given")
		fs.Usage()
		os.Exit(2)
	}
	c := countq.Campaign{
		Base: countq.Workload{
			Scenario:      *scenario,
			Goroutines:    *g,
			Ops:           *ops,
			Batch:         *batch,
			Inflight:      *inflight,
			LatencySample: *sample,
			Arrival:       arr,
			Seed:          *seed,
		},
	}
	if *dur > 0 {
		c.Base.Duration = *dur // replaces the ops budget
	}
	if *queue != "" {
		c.Base.Mix = *mix
	}
	baselineIdx := -1
	for i, arg := range specArgs {
		e, err := parseEntry(arg, *queue, *queues)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(2)
		}
		if *baseline != "" && (arg == *baseline || e.Label() == *baseline) {
			baselineIdx = i
		}
		c.Entries = append(c.Entries, e)
	}
	switch {
	case baselineIdx >= 0:
		c.Baseline = baselineIdx
	case *baseline != "":
		fmt.Fprintf(os.Stderr, "countq compare: -baseline %q is not among the compared specs %v\n", *baseline, specArgs)
		os.Exit(2)
	}
	cmp, err := c.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq compare:", err)
		os.Exit(1)
	}
	switch {
	case *asJSON:
		printJSON(cmp)
	case *asCSV:
		out, err := cmp.MarshalCSV()
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
	case *asMD:
		out, err := cmp.MarshalMarkdown()
		if err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
	default:
		if err := cmp.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "countq compare:", err)
			os.Exit(1)
		}
	}
}
