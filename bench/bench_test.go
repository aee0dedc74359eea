package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/oneshot.golden.json from what the simulator reports now, and ../BENCHMARK.json from the program's tables")

// runSeconds is BENCHMARK.json's run_seconds: what one driver run measures.
const runSeconds = 10

// manifest is BENCHMARK.json as the contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables the program
// reports from, and both to the contract's naming rules.
func TestManifestMatchesTables(t *testing.T) {
	if *update {
		m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
		for _, w := range workloads {
			m.Workloads = append(m.Workloads, struct {
				Name string `json:"name"`
				Why  string `json:"why"`
			}{w.name, w.why})
		}
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(what string, got, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i, d := range want {
			name(d.Name)
			if got[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the program %+v", what, i, got[i], d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q breaks the contract's unit rule", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v (end-to-end metrics need one in (0, 0.25], per-layer metrics none)", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	setup := false
	for _, d := range endToEnd {
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || strings.Join(m.Command, " ") != "go run ./bench" {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", m.RunSeconds, runSeconds)
	}
}

type verdictLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// quickRun runs the program at smoke budgets and returns its last line.
func quickRun(t *testing.T, args ...string) (verdictLine, string) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on one CPU")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-quick"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var v verdictLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("last line is not the verdict object: %v\n%s", err, lines[len(lines)-1])
	}
	if !v.Correct || v.Attempted < 1 || v.Failed != 0 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d", args, v.Correct, v.Attempted, v.Failed)
	}
	return v, stdout.String()
}

// wantMetrics checks that the verdict carries exactly the defined metrics
// under prefix, each with its unit and a finite value.
func wantMetrics(t *testing.T, v verdictLine, prefix string, defs []metricDef) {
	t.Helper()
	n := 0
	for name := range v.Metrics {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	if n != len(defs) {
		t.Errorf("%q: %d metrics reported, want %d", prefix, n, len(defs))
	}
	for _, d := range defs {
		got, ok := v.Metrics[prefix+d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s%s is not reported", prefix, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("metric %s%s has unit %q, want %q", prefix, d.Name, got.Unit, d.Unit)
		case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("metric %s%s has no finite value", prefix, d.Name)
		}
	}
}

// TestQuickSetReportsEveryMetric runs all seven workloads untraced and
// checks each reports every end-to-end metric once, none of them 0.
func TestQuickSetReportsEveryMetric(t *testing.T) {
	v, out := quickRun(t)
	for _, w := range workloads {
		wantMetrics(t, v, w.name+"/", endToEnd)
		for _, d := range endToEnd {
			if got := v.Metrics[w.name+"/"+d.Name]; got.Value != nil && *got.Value == 0 {
				t.Errorf("%s: %s reads 0; the contract wants end-to-end metrics that never do", w.name, d.Name)
			}
			if c := strings.Count(out, "\n"+w.name+" "); c == 0 {
				t.Errorf("%s: no metric lines printed", w.name)
			}
		}
	}
	if len(v.Metrics) != len(workloads)*len(endToEnd) {
		t.Errorf("%d metrics in the verdict, want %d", len(v.Metrics), len(workloads)*len(endToEnd))
	}
}

// TestQuickDriverInvocation runs one workload the way the contract's driver
// does, untraced and traced, and writes and compares result files.
func TestQuickDriverInvocation(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	v, _ := quickRun(t, "--workload", "list64-pipe-queue", "--seed", "3", "--seconds", "1", "--trace", "0", "-out", a)
	wantMetrics(t, v, "", endToEnd)
	v, _ = quickRun(t, "--workload", "list64-pipe-queue", "--seed", "3", "--seconds", "1", "--trace", "1", "-out", b)
	wantMetrics(t, v, "", perLayer)

	rep, err := readReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) == 0 || rep.Host.GoMaxProcs != 2 || rep.Host.SpinScore <= 0 {
		t.Errorf("traced result file: %d spans, host %+v", len(rep.Spans), rep.Host)
	}
	names := make(map[string]bool)
	for _, s := range rep.Spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"repeat", "setup", "new_structure", "new_sessions", "warmup", "measure", "op", "submit", "wait", "close", "validate"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}

	// At smoke budgets the numbers mean nothing, so only the plumbing is
	// checked: a file compared with itself has no regressed row.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "7 rows, 0 regressed") {
		t.Errorf("-compare output:\n%s", stdout.String())
	}
}

// TestQuickTracedSet runs the ladder and every workload traced.
func TestQuickTracedSet(t *testing.T) {
	v, _ := quickRun(t, "-trace", "1")
	for _, w := range workloads {
		wantMetrics(t, v, w.name+"/", perLayer)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-quick"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("bench %v: exit 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("bench %v printed a verdict", args)
		}
	}
}

// TestOfflineGolden checks the one-shot statistics at seed 1 against the
// golden (go test ./bench -run TestOfflineGolden -update rewrites it), and
// that another seed moves only the seeded legs.
func TestOfflineGolden(t *testing.T) {
	path := filepath.Join("testdata", "oneshot.golden.json")
	if *update {
		legs, want, err := offlineSetup(1, nil, new(repeat))
		if err != nil {
			t.Fatal(err)
		}
		golden := make(map[string]legStats, len(legs))
		for i, l := range legs {
			golden[l.name] = want[i]
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("rewrote %s; run again without -update", path)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		var rep repeat
		legs, want, err := offlineSetup(seed, golden, &rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("seed %d: %d of %d requests failed: %v", seed, rep.failed, rep.attempted, rep.notes)
		}
		if len(legs) != len(golden) {
			t.Errorf("seed %d: %d legs, golden pins %d", seed, len(legs), len(golden))
		}
		for i, l := range legs {
			if moved := want[i] != golden[l.name]; moved && !l.seeded {
				t.Errorf("seed %d: unseeded leg %s reports %+v, golden %+v", seed, l.name, want[i], golden[l.name])
			}
		}
	}
	// A wrong golden must cost the leg's requests, not pass silently.
	bad := map[string]legStats{}
	for k, v := range golden {
		bad[k] = v
	}
	g := bad["arrow-list256"]
	g.Rounds++
	bad["arrow-list256"] = g
	var rep repeat
	if _, _, err := offlineSetup(1, bad, &rep); err != nil || rep.failed != 2*256 || len(rep.notes) != 1 {
		t.Errorf("a golden off by one round failed %d requests (%v, %v), want %d", rep.failed, rep.notes, err, 2*256)
	}
}

func TestQuantiles(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	xs := []float64{9, 1, 5, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if xs[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.9, 8.2}, {1, 9}, {-1, 1}, {2, 9}} {
		if got := quantile(xs, c.q); !approx(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !approx(q1, 2.75) || !approx(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 4, 4, 5, 9}); !approx(q1, 3) || !approx(q3, 7) {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
	if got := spread(ten); !approx(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "wait", Start: 20, End: 50},  // overlaps submit: counted once
		{ID: 4, Parent: 1, Name: "wait", Start: 90, End: 130}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35}, // a grandchild covers its own parent only
		{ID: 6, Name: "op", Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 40, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	means := spanMeans(spans)
	if m := means["op"]; m.N != 2 || m.DurNs != 80 || m.SelfNs != 55 {
		t.Errorf("op spans: %+v, want 2 of mean 80 ns, self 55 ns", m)
	}
	if m := means["wait"]; m.N != 2 || m.DurNs != 35 {
		t.Errorf("wait spans: %+v, want 2 of mean 35 ns", m)
	}

	tr := newTracer()
	root := tr.begin(0, "repeat", -1)
	for i := 0; i < spansPerRepeat+10; i++ {
		tr.end(tr.begin(root, "op", int64(i)))
	}
	tr.end(tr.begin(root, "close", -1))
	tr.end(root)
	if n := len(tr.spans); n != spansPerRepeat+2 {
		t.Errorf("%d spans kept, want the cap of %d and the two structural ones", n, spansPerRepeat)
	}
	var none *tracer
	none.end(none.begin(0, "repeat", -1)) // a nil tracer records nothing and does not panic
}

func TestJudge(t *testing.T) {
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Repeats: []float64{v * 0.99, v, v, v, v * 1.01}}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Repeats: []float64{v * 0.5, v * 0.7, v, v * 1.3, v * 1.5}}
	}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		def     metricDef
		a, b    metricValue
		verdict string
	}{
		{higher, steady(100), steady(95), "ok"},
		{higher, steady(100), steady(85), "REGRESSED"},
		{higher, steady(100), steady(150), "ok"},
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "REGRESSED"},
		{lower, steady(100), steady(50), "ok"},
		{lower, steady(100), noisy(105), "unresolved"},
		{lower, noisy(100), steady(120), "REGRESSED"},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.verdict {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.verdict)
		}
	}
}
