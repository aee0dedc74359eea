package main

import (
	"flag"
	"strings"
	"testing"

	"repro/countq"
)

// TestParseInterleaved pins the flags-after-positionals behavior the
// acceptance invocation relies on:
// countq compare "spec,spec" -scenario "ramp?gmax=8".
func TestParseInterleaved(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "")
	ops := fs.Int("ops", 0, "")
	pos, err := parseInterleaved(fs, []string{"a,b", "-scenario", "ramp?gmax=8", "c", "-ops", "42"})
	if err != nil {
		t.Fatal(err)
	}
	if *scenario != "ramp?gmax=8" || *ops != 42 {
		t.Errorf("flags not parsed: scenario=%q ops=%d", *scenario, *ops)
	}
	if len(pos) != 2 || pos[0] != "a,b" || pos[1] != "c" {
		t.Errorf("positionals = %v", pos)
	}
	// A malformed flag is returned as an error, not an os.Exit, so
	// ContinueOnError callers (tests included) keep control.
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	fs2.SetOutput(&strings.Builder{})
	fs2.Int("ops", 0, "")
	if _, err := parseInterleaved(fs2, []string{"spec", "-ops", "banana"}); err == nil {
		t.Error("malformed flag value accepted")
	}
}

func TestParseEntry(t *testing.T) {
	e, err := parseEntry("sharded?shards=8@batch=64@g=4", "", false)
	if err != nil {
		t.Fatal(err)
	}
	want := countq.Entry{Counter: "sharded?shards=8", Batch: 64, Goroutines: 4}
	if e != want {
		t.Errorf("entry = %+v, want %+v", e, want)
	}
	if got := e.Label(); got != "sharded?shards=8@g=4@batch=64" {
		t.Errorf("label = %q", got)
	}
	e, err = parseEntry("sim-counter?hoplat=1us@inflight=16", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Inflight != 16 || e.Counter != "sim-counter?hoplat=1us" {
		t.Errorf("entry = %+v", e)
	}
	// Queue-side positional specs.
	e, err = parseEntry("swap@g=2", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Queue != "swap" || e.Counter != "" || e.Goroutines != 2 {
		t.Errorf("queue entry = %+v", e)
	}
	// Shared queue pairing.
	e, err = parseEntry("atomic", "swap", false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Counter != "atomic" || e.Queue != "swap" {
		t.Errorf("paired entry = %+v", e)
	}
	for _, bad := range []string{"atomic@", "atomic@g", "atomic@g=", "atomic@g=0", "atomic@g=x", "atomic@turbo=9"} {
		if _, err := parseEntry(bad, "", false); err == nil {
			t.Errorf("parseEntry(%q) accepted", bad)
		}
	}
}

// TestCompareBridgeCampaign runs the acceptance-criteria campaign through
// the library path the CLI uses: the sim bridge against a shared-memory
// counter under the ramp scenario, both validated, with the corrected
// columns present in every export format.
func TestCompareBridgeCampaign(t *testing.T) {
	entries := []countq.Entry{}
	for _, part := range strings.Split("sharded?shards=8,sim-counter?hoplat=0", ",") {
		e, err := parseEntry(part, "", false)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	cmp, err := countq.Campaign{
		Base:    countq.Workload{Scenario: "ramp?gmax=4", Ops: 6000, Goroutines: 4, Seed: 1},
		Entries: entries,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cmp.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"sim-counter?hoplat=0", "sharded?shards=8*", "cp50", "cp99", "validated"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q in:\n%s", want, out)
		}
	}
	csv, err := cmp.MarshalCSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "counter_corr_p99_ns") {
		t.Error("CSV export lacks the corrected columns")
	}
	md, err := cmp.MarshalMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "corr p99") {
		t.Error("Markdown export lacks the corrected columns")
	}
}
