package main

import (
	"strings"
	"testing"

	"repro/countq"
)

// TestListIsRegistryDriven checks that the listing is generated from the
// two registries: every experiment ID and every registered protocol —
// including the sharded and funnel counters — appears, with no
// hand-maintained roster to fall out of date.
func TestListIsRegistryDriven(t *testing.T) {
	var b strings.Builder
	listCmd(&b, false)
	out := b.String()
	for _, want := range []string{"E1", "E11", "E16", "sharded", "funnel", "atomic", "combining", "network", "swap"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
	for _, info := range countq.Structures() {
		if !strings.Contains(out, info.Name) {
			t.Errorf("registered %v %q not listed", info.Kinds, info.Name)
		}
	}
}

// TestListVerboseShowsParams checks that list -v prints every declared
// parameter of every registered structure, straight from the registry.
func TestListVerboseShowsParams(t *testing.T) {
	var b strings.Builder
	listCmd(&b, true)
	out := b.String()
	for _, want := range []string{"shards", "batch", "width", "depth", "spin", "leaves", "pending"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose list missing param %q", want)
		}
	}
	for _, info := range countq.Structures() {
		for _, p := range info.Params {
			if !strings.Contains(out, p.Name) || !strings.Contains(out, p.Doc) {
				t.Errorf("verbose list missing declared param %s.%s", info.Name, p.Name)
			}
		}
	}
	// The terse listing stays terse.
	var terse strings.Builder
	listCmd(&terse, false)
	if strings.Contains(terse.String(), "default") {
		t.Error("non-verbose list leaks param documentation")
	}
}

// TestDriveRegistryResolution runs the driver end-to-end over a registered
// pair — including a parameterized spec, the acceptance-criteria path —
// as a one-entry compare does.
func TestDriveRegistryResolution(t *testing.T) {
	res, err := countq.Run(countq.Workload{
		Counter: "sharded", Queue: "swap", Goroutines: 4, Ops: 2000, Mix: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops != 2000 {
		t.Errorf("ops = %d, want 2000", res.Aggregate.Ops)
	}
	res, err = countq.Run(countq.Workload{
		Counter: "sharded?shards=4&batch=16", Queue: "swap",
		Goroutines: 4, Ops: 2000, Mix: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter != "sharded?shards=4&batch=16" {
		t.Errorf("result spec = %q", res.Counter)
	}
}

// TestScenariosListIsRegistryDriven checks that the scenario listing is
// generated from the scenario registry — every canonical scenario appears,
// and -v prints every declared parameter.
func TestScenariosListIsRegistryDriven(t *testing.T) {
	var b strings.Builder
	scenariosCmd(&b, false)
	out := b.String()
	for _, want := range []string{"steady", "ramp", "spike", "mixshift", "batched"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenarios output missing %q", want)
		}
	}
	if strings.Contains(out, "default") {
		t.Error("non-verbose scenarios listing leaks param documentation")
	}
	var v strings.Builder
	scenariosCmd(&v, true)
	for _, info := range countq.Scenarios() {
		for _, p := range info.Params {
			if !strings.Contains(v.String(), p.Name) || !strings.Contains(v.String(), p.Doc) {
				t.Errorf("verbose scenarios missing declared param %s.%s", info.Name, p.Name)
			}
		}
	}
}

// TestCompareOneEntry runs the one-entry campaign — compare with a single
// spec and a scenario — and checks the rendered table carries the
// per-phase quantities (quantiles, fairness, warmup marker) the engine
// produces, with self-ratios on the lone baseline row.
func TestCompareOneEntry(t *testing.T) {
	table := func(base countq.Workload, e countq.Entry) string {
		t.Helper()
		cmp, err := countq.Campaign{Base: base, Entries: []countq.Entry{e}}.Run()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := cmp.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := table(countq.Workload{Scenario: "ramp?gmax=4", Goroutines: 4, Ops: 4000, Mix: 0.5, Seed: 1},
		countq.Entry{Counter: "sharded", Queue: "swap"})
	for _, want := range []string{"scenario=ramp?gmax=4", "sharded+swap*", "g=1", "g=2", "g=4", "aggregate", "fair", "p99", "1.00x", "validated"} {
		if !strings.Contains(out, want) {
			t.Errorf("one-entry table missing %q in:\n%s", want, out)
		}
	}
	// Warmup phases are flagged and footnoted.
	out = table(countq.Workload{Scenario: "steady", Ops: 2000, Seed: 1}, countq.Entry{Counter: "atomic"})
	if !strings.Contains(out, "warmup~") || !strings.Contains(out, "excluded from the aggregate") {
		t.Errorf("warmup marker missing in:\n%s", out)
	}
}

func TestSweepSpecs(t *testing.T) {
	specs, err := sweepSpecs("sharded?shards=4", "batch=16,64,256")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sharded?batch=16&shards=4",
		"sharded?batch=64&shards=4",
		"sharded?batch=256&shards=4",
	}
	if len(specs) != len(want) {
		t.Fatalf("specs = %v", specs)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("specs[%d] = %q, want %q", i, specs[i], want[i])
		}
	}
	// Each swept spec must actually construct and run.
	for _, spec := range specs {
		if _, err := countq.Run(countq.Workload{Counter: spec, Ops: 200, Seed: 1}); err != nil {
			t.Errorf("swept spec %q failed: %v", spec, err)
		}
	}
	for _, bad := range []struct{ counter, sweep string }{
		{"", "batch=1,2"},
		{"sharded", "batch"},
		{"sharded", "=1,2"},
		{"sharded", "batch=1,,2"},
		{"?x=1", "batch=1"},
	} {
		if _, err := sweepSpecs(bad.counter, bad.sweep); err == nil {
			t.Errorf("sweepSpecs(%q, %q) accepted", bad.counter, bad.sweep)
		}
	}
}

// TestCompareCampaignTable runs the acceptance-criteria path — a campaign
// over two structure specs under a composed scenario — and checks the
// rendered delta table, CSV and Markdown all carry both structures under
// identical phase sequences.
func TestCompareCampaignTable(t *testing.T) {
	cmp, err := countq.Campaign{
		Base:    countq.Workload{Scenario: "ramp?gmax=2;spike?cycles=1", Goroutines: 2, Ops: 8000, Seed: 1},
		Entries: []countq.Entry{{Counter: "atomic"}, {Counter: "sharded?shards=64"}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cmp.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"scenario=ramp?gmax=2;spike?cycles=1", "baseline=atomic",
		"atomic*", "sharded?shards=64", "g=1", "g=2", "spike-1", "calm-1",
		"aggregate", "Δp99", "validated", "fairness is min/max",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q in:\n%s", want, out)
		}
	}
	// Identical phase sequences: the same per-phase op budgets on both.
	a, s := cmp.Results[0].Metrics, cmp.Results[1].Metrics
	for i := range a.Phases {
		if a.Phases[i].Ops != s.Phases[i].Ops || a.Phases[i].Name != s.Phases[i].Name {
			t.Errorf("phase %d diverges: %s/%d vs %s/%d",
				i, a.Phases[i].Name, a.Phases[i].Ops, s.Phases[i].Name, s.Phases[i].Ops)
		}
	}
	if _, err := cmp.MarshalCSV(); err != nil {
		t.Errorf("CSV export: %v", err)
	}
	if _, err := cmp.MarshalMarkdown(); err != nil {
		t.Errorf("Markdown export: %v", err)
	}
}

// TestCheckSweepShadow pins the fail-loudly rule for sweeps under composed
// scenarios: a segment pinning the swept parameter is rejected instead of
// silently overriding every swept value.
func TestCheckSweepShadow(t *testing.T) {
	// A composed scenario whose segment pins the swept parameter fails.
	err := checkSweepShadow("gmax=2,4,8", "ramp?gmax=8;spike")
	if err == nil {
		t.Fatal("shadowed sweep accepted")
	}
	for _, want := range []string{"ramp", "gmax=8", "shadow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("shadow error %q does not mention %q", err, want)
		}
	}
	// Later segments are checked too.
	if err := checkSweepShadow("cycles=1,2", "ramp;spike?cycles=3"); err == nil {
		t.Error("shadow in the second segment accepted")
	}
	// No shadowing: composed scenario with disjoint params, single-segment
	// scenarios (even pinning the name), and no scenario at all.
	for _, ok := range []struct{ sweep, scenario string }{
		{"batch=16,64", "ramp?gmax=8;spike"},
		{"gmax=2,4", "ramp?gmax=8"}, // single segment keeps existing behavior
		{"batch=16,64", ""},
		{"malformed", "ramp;spike"}, // sweepSpecs reports the malformed sweep itself
	} {
		if err := checkSweepShadow(ok.sweep, ok.scenario); err != nil {
			t.Errorf("checkSweepShadow(%q, %q) = %v, want nil", ok.sweep, ok.scenario, err)
		}
	}
	// An invalid composition surfaces its own error.
	if err := checkSweepShadow("gmax=2,4", "ramp;;spike"); err == nil {
		t.Error("invalid composition accepted")
	}
}
