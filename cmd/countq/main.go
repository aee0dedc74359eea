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
//	countq compare -queue swap -g 8 -ops 100000 'sharded?shards=4&batch=16'
//	countq compare -scenario 'ramp?gmax=16' -json sharded
//	countq compare -sweep batch=16,64,256,1024 sharded
//	countq topo -topo mesh2d -n 256
//
// Structures and scenarios are named by spec: a bare registry name
// constructs the declared defaults, "name?param=value&..." tunes the
// declared parameters (list -v and scenarios -v print them). Scenario
// specs compose: "ramp?gmax=8;spike" sequences registered scenarios, with
// reserved per-segment weight= (budget share) and warmup= (mark the
// segment warmup) parameters.
//
// compare runs a campaign: one or more structure specs under one
// scenario's byte-identical phase sequence and a shared seed, reporting
// per-phase metrics — latency quantiles, throughput, worker fairness,
// allocs/op and the live-heap peak — plus delta ratios against a baseline
// spec (table, -csv, -md or -json; -csv adds both op kinds' quantiles,
// -json adds p999 and the throughput and live-heap timelines). -sweep
// varies one parameter of a single spec over a list of values, the first
// value being the baseline. topo compares the distributed protocols on a
// chosen topology.
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
	case "topo":
		topoCmd(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: countq {list [-v] | scenarios [-v] | run [-quick] [-seed N] <ids...|all>
              | compare [-scenario SPEC] [-queue SPEC] [-baseline SPEC] [-sweep P=V1,V2,...] [-g N] [-ops N] [-dur D] [-mix F] [-batch N] [-inflight K] [-sample K] [-arrival A] [-seed N] [-csv|-md|-json] <spec>[@g=N][@batch=N][@inflight=K] ...
              | topo [-topo T] [-n N] | trace [-n N] [-reqs K]}`)
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
		fmt.Fprintln(os.Stderr, "countq:", err)
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

// topoCmd contrasts the distributed protocols on a chosen
// message-passing topology.
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
