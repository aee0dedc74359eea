package countq

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// registerComposeTestScenario registers a one-phase scenario whose phase
// can be forced to warmup (measure=false) — inexpressible through the
// canonical library, needed to exercise the all-warmup composition check
// without the reserved warmup key. The tag param keeps phase names
// distinct across segments; the measured default keeps the scenario
// standalone-expandable for the registry round-trip test.
var registerComposeTestScenario = sync.OnceFunc(func() {
	RegisterScenario(ScenarioInfo{
		Name:    "test-allwarm",
		Summary: "test scenario expanding to a single, optionally-warmup phase",
		Params: []ParamInfo{
			{Name: "tag", Default: "w", Doc: "phase name"},
			{Name: "measure", Default: "true", Doc: "false marks the phase warmup"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			tag := o.String("tag", "w")
			measure := o.Bool("measure", true)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if tag == "" || strings.IndexFunc(tag, unicode.IsControl) >= 0 {
				return nil, fmt.Errorf("tag=%q is not a printable phase name", tag)
			}
			p := basePhase(base, tag)
			p.Warmup = !measure
			p.Ops = base.Ops
			p.Duration = base.Duration
			return []Phase{p}, nil
		},
	})
})

func TestCompositionSequencesSegments(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Goroutines: 4, Ops: 8000}
	sc, err := ExpandScenario("ramp?gmax=4;spike?cycles=1", base)
	if err != nil {
		t.Fatal(err)
	}
	// ramp?gmax=4 → g=1, g=2, g=4; spike?cycles=1 → spike-1, calm-1.
	wantNames := []string{"g=1", "g=2", "g=4", "spike-1", "calm-1"}
	if len(sc.Phases) != len(wantNames) {
		t.Fatalf("composition phases = %d, want %d", len(sc.Phases), len(wantNames))
	}
	total := 0
	for i, p := range sc.Phases {
		if p.Name != wantNames[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, wantNames[i])
		}
		total += p.Ops
	}
	if total != 8000 {
		t.Errorf("composition phases carry %d ops, budget was 8000", total)
	}
	if sc.Name != "ramp;spike" {
		t.Errorf("composition name = %q", sc.Name)
	}
	if sc.Spec != "ramp?gmax=4;spike?cycles=1" {
		t.Errorf("canonical spec = %q", sc.Spec)
	}
	// The composed spec runs end to end and reports itself in the metrics.
	m, err := Run(Workload{Counter: "test-alpha", Scenario: "ramp?gmax=2;spike?cycles=1", Goroutines: 2, Ops: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Scenario != "ramp?gmax=2;spike?cycles=1" {
		t.Errorf("metrics scenario = %q", m.Scenario)
	}
	if len(m.Phases) != 4 {
		t.Errorf("ran %d phases, want 4", len(m.Phases))
	}
}

func TestCompositionWeights(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Goroutines: 2, Ops: 4000}
	// weight is a reserved segment key: ramp?gmax=1 is one phase, so the
	// 3:1 split is visible directly in the phase budgets.
	sc, err := ExpandScenario("ramp?gmax=1&weight=3;spike?cycles=1", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(sc.Phases))
	}
	if sc.Phases[0].Ops != 3000 {
		t.Errorf("weighted segment got %d ops, want 3000", sc.Phases[0].Ops)
	}
	if got := sc.Phases[1].Ops + sc.Phases[2].Ops; got != 1000 {
		t.Errorf("unit-weight segment got %d ops, want 1000", got)
	}
	// The canonical form keeps the non-default weight.
	if sc.Spec != "ramp?gmax=1&weight=3;spike?cycles=1" {
		t.Errorf("canonical spec = %q", sc.Spec)
	}
	// A scenario that declares a reserved name keeps its own parameter:
	// steady's warmup stays a fraction, not a segment marker.
	sc, err = ExpandScenario("steady?warmup=0.5;spike?cycles=1", Workload{Counter: "test-alpha", Ops: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Phases[0].Warmup || sc.Phases[1].Warmup {
		t.Errorf("steady's own warmup fraction misapplied: %+v", sc.Phases)
	}
}

func TestCompositionSegmentWarmup(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Goroutines: 2, Ops: 4000}
	// The reserved warmup key marks a whole segment as warmup.
	sc, err := ExpandScenario("ramp?gmax=2&warmup=true;spike?cycles=1", base)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sc.Phases[:2] {
		if !p.Warmup {
			t.Errorf("ramp phase %d not marked warmup", i)
		}
	}
	for i, p := range sc.Phases[2:] {
		if p.Warmup {
			t.Errorf("spike phase %d marked warmup", i)
		}
	}
	m, err := Run(Workload{Counter: "test-alpha", Scenario: "ramp?gmax=2&warmup=true;spike?cycles=1", Goroutines: 2, Ops: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var warm int
	for _, p := range m.Phases {
		if p.Warmup {
			warm += p.Ops
		}
	}
	if m.Aggregate.Ops != 4000-warm {
		t.Errorf("aggregate %d ops with %d warmup, budget 4000", m.Aggregate.Ops, warm)
	}
}

func TestCompositionEdgeCases(t *testing.T) {
	registerTestImpls()
	registerComposeTestScenario()
	base := Workload{Counter: "test-alpha", Goroutines: 2, Ops: 4000}
	for _, tc := range []struct {
		spec string
		want string // substring of the error
	}{
		{"ramp;;spike", "empty"},
		{";ramp", "empty"},
		{"ramp;", "empty"},
		{"ramp;ramp", "twice"},                             // duplicate phase names across segments
		{"ramp;no-such-scenario", "unknown"},               // unknown segment scenario
		{"ramp?bogus=1;spike", "bogus"},                    // undeclared segment param
		{"ramp?weight=0;spike", "positive"},                // non-positive weight
		{"ramp?weight=banana;spike", "weight"},             // mistyped weight
		{"ramp?warmup=banana;spike", "boolean"},            // mistyped segment warmup
		{"ramp?warmup=true;spike?warmup=true", "measured"}, // all-warmup via reserved keys
		{"test-allwarm?measure=false&tag=a;test-allwarm?measure=false&tag=b", "measured"}, // all-warmup scenarios composed
		{"test-allwarm?tag=x;test-allwarm?tag=x", "twice"},                                // duplicate names across segments
		{"mixshift?steps=3;spike", "both a counter and a queue"},                          // segment expansion errors surface
		{"ramp?gmax=1;spike?cycles=2000", "cannot cover"},                                 // a segment's share too small for its phases
		{"steady?warmup=0.25&weight=2;steady?warmup=0.25", "twice"},                       // same scenario twice still collides
	} {
		_, err := ExpandScenario(tc.spec, base)
		if err == nil {
			t.Errorf("ExpandScenario(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ExpandScenario(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
	// The budget must cover every segment.
	if _, err := ExpandScenario("ramp;spike;mixshift", Workload{Counter: "test-alpha", Queue: "test-queue", Ops: 2}); err == nil {
		t.Error("2-op budget across 3 segments accepted")
	}
	// A single all-warmup scenario is rejected on the single-segment path
	// too — the measured check holds with and without composition.
	if _, err := ExpandScenario("test-allwarm?measure=false", base); err == nil {
		t.Error("single all-warmup scenario accepted")
	}
}

func TestCompositionDurationBudget(t *testing.T) {
	registerTestImpls()
	m, err := Run(Workload{
		Counter: "test-alpha", Scenario: "ramp?gmax=2&weight=2;spike?cycles=1",
		Duration: 40_000_000, // 40ms
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(m.Phases))
	}
	for _, p := range m.Phases {
		if p.Ops == 0 {
			t.Errorf("duration phase %q did no operations", p.Name)
		}
	}
}
