// Command bench is the repository's benchmark: seven workloads that price
// the transport (internal/ring), the round engine and bridge (internal/sim),
// the protocols (internal/arrow, internal/counting), the runner (countq) and
// the offline one-shot model, in wall-clock time and in the paper's units
// (rounds/op, messages/op). BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench                            every workload, untraced
//	go run ./bench -workload NAME -seed N     one workload
//	go run ./bench -trace 1 -out FILE         per-layer ladder, spans, overhead
//	go run ./bench -compare A.json B.json     two -out files against the bounds
//
// Every run validates what the program returned (counts distinct and
// gap-free, predecessors one total order, offline statistics against a
// golden) and exits non-zero on any correctness failure. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	_ "repro/internal/arrow"    // registers sim-arrow-queue
	_ "repro/internal/counting" // registers sim-tree-counter
	_ "repro/internal/shm"      // registers the shared-memory structures
)

// fullRepeats is how many repeats (fresh structure, warm-up, timed window)
// an untraced workload run makes; every end-to-end metric is the median
// over them. A traced run makes traceRepeats untraced and as many traced.
const (
	fullRepeats  = 7
	traceRepeats = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// hostInfo stamps a result file with where it was measured. SpinScore is a
// 200 ms calibration loop's speed, so two files from different machines
// are recognisably different even when the core counts match.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	SpinScore  float64 `json:"spin_score_miter_per_s"`
}

// report is the -out file.
type report struct {
	Host      hostInfo `json:"host"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     int      `json:"trace"`
	Quick     bool     `json:"quick,omitempty"`
	Workloads []result `json:"workloads"`
	// Spans is every span the traced runs recorded, in recording order;
	// see README.md, "Reading the span file".
	Spans []span `json:"spans,omitempty"`
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all of them)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds one workload run measures")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics (micro-ladder, spans, tracing overhead) instead of the end-to-end ones")
	fs.BoolVar(&o.quick, "quick", false, "smoke budgets: milliseconds per repeat, numbers mean nothing")
	fs.StringVar(&o.out, "out", "", "write the full result (and the spans of a traced run) to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || trace < 0 || trace > 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	o.trace = trace == 1
	// A baseline recorded without parallelism prices no park/wake, no
	// rendezvous partner and no pump running beside its sessions; refuse
	// rather than record one again.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "bench: this host has %d CPU; the benchmark pins GOMAXPROCS=2 and needs 2 to mean anything\n", runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(2)

	rep, err := runSet(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return printVerdict(rep, stdout)
}

// runSet runs the chosen workloads and prints each one's metrics as it
// finishes.
func runSet(o options, stdout io.Writer) (*report, error) {
	chosen := workloads
	if o.workload != "" {
		w, ok := lookupWorkload(o.workload)
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
		}
		chosen = []workload{w}
	}
	spin := 200 * time.Millisecond
	if o.quick {
		spin = 5 * time.Millisecond
	}
	rep := &report{
		Host: hostInfo{
			NProc:      runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			SpinScore:  spinScore(spin),
		},
		Seed:    o.seed,
		Seconds: o.seconds,
		Quick:   o.quick,
	}
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d %s %s/%s spin_score=%.1f Miter/s\n",
		rep.Host.NProc, rep.Host.GoMaxProcs, rep.Host.Go, rep.Host.OS, rep.Host.Arch, rep.Host.SpinScore)

	total := time.Duration(o.seconds) * time.Second
	nFull, nTraced := fullRepeats, traceRepeats
	if o.quick {
		total, nFull, nTraced = 40*time.Millisecond, 2, 2
	}
	if !o.trace {
		cfg := runConfig{seed: o.seed, repeats: nFull, window: total / time.Duration(nFull), budget: total, quick: o.quick}
		for _, w := range chosen {
			reps, err := w.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res := summarize(w.name, reps)
			printResult(stdout, res)
			rep.Workloads = append(rep.Workloads, res)
		}
		return rep, nil
	}

	// A traced run splits its seconds: two fifths to the micro-ladder, the
	// rest halved between an untraced and a traced run of the workload,
	// whose throughputs give the tracing overhead.
	rep.Trace = 1
	ladder, err := runLadder(ladderConfig{budget: total * 2 / 5, seed: o.seed, quick: o.quick, spin: rep.Host.SpinScore})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	share := total * 3 / 10
	cfg := runConfig{seed: o.seed, repeats: nTraced, window: share / time.Duration(nTraced), budget: share, quick: o.quick}
	for _, w := range chosen {
		plain, err := w.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		tcfg := cfg
		tcfg.tr = newTracer()
		traced, err := w.run(tcfg)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		res := summarize(w.name, plain)
		tres := summarize(w.name, traced)
		res.Attempted += tres.Attempted
		res.Failed += tres.Failed
		res.Notes = append(res.Notes, tres.Notes...)
		res.Correct = res.Correct && tres.Correct
		res.Layers = layerMetrics(ladder, res, tres, tcfg.tr.spans)
		if err := checkLayers(res.Layers); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
		rep.Spans = append(rep.Spans, tcfg.tr.spans...)
	}
	return rep, nil
}

// spinScore runs a fixed integer recurrence for d and reports millions of
// iterations per second.
func spinScore(d time.Duration) float64 {
	const chunk = 1 << 16
	x, n := uint64(88172645463325252), 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += chunk
	}
	elapsed := time.Since(start)
	if x == 0 { // never: xorshift has no zero state; keeps x live
		n++
	}
	return float64(n) / elapsed.Seconds() / 1e6
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(w io.Writer, res result) {
	line := func(name string, v metricValue) {
		fmt.Fprintf(w, "%-20s %-34s %16.6g %s\n", res.Name, name, v.Value, v.Unit)
	}
	for _, def := range endToEnd {
		line(def.Name, res.Metrics[def.Name])
	}
	for _, k := range sortedKeys(res.Tail) {
		line(k, res.Tail[k])
	}
	for _, k := range sortedKeys(res.Layers) {
		line(k, res.Layers[k])
	}
	fmt.Fprintf(w, "%-20s correct=%v attempted=%d failed=%d\n", res.Name, res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "%-20s FAILED %s\n", res.Name, n)
	}
}

// printVerdict prints the contract's last line — one JSON object with
// correct, attempted, failed and metrics — and returns the exit code. With
// one workload the metrics carry their plain names (the end-to-end set, or
// the per-layer set of a traced run); with several they are prefixed with
// the workload's name.
func printVerdict(rep *report, stdout io.Writer) int {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]reading)}
	for _, res := range rep.Workloads {
		verdict.Correct = verdict.Correct && res.Correct
		verdict.Attempted += res.Attempted
		verdict.Failed += res.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = res.Name + "/"
		}
		metrics := res.Metrics
		if rep.Trace == 1 {
			metrics = res.Layers
		}
		for name, v := range metrics {
			verdict.Metrics[prefix+name] = reading{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintln(stdout, string(line))
	if !verdict.Correct {
		return 1
	}
	return 0
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
