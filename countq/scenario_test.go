package countq

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode"
)

// TestScenarioRegistryRoundTrip is the round-trip gate for the scenario
// registry: every registered scenario — the canonical library plus
// anything registered later — must expand against a real base workload,
// run at a tiny budget over registered structures, produce validated,
// structurally sound metrics, and do so under -race (CI runs this suite
// with the race detector on).
func TestScenarioRegistryRoundTrip(t *testing.T) {
	registerTestImpls()
	if len(Scenarios()) == 0 {
		t.Fatal("no scenarios registered")
	}
	for _, info := range Scenarios() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			// test-batch declares CapBatch so the batched
			// scenario (and any future batching phase) can run.
			base := Workload{
				Counter:    "test-batch",
				Queue:      "test-queue",
				Scenario:   info.Name,
				Goroutines: 4,
				Ops:        4000,
				Mix:        0.5,
				Seed:       1,
			}
			sc, err := ExpandScenario(info.Name, base)
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			if sc.Spec != info.Name {
				t.Errorf("canonical spec = %q, want bare name", sc.Spec)
			}
			m, err := Run(base)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if m.Scenario != info.Name {
				t.Errorf("metrics scenario = %q", m.Scenario)
			}
			if len(m.Phases) != len(sc.Phases) {
				t.Fatalf("ran %d phases, expansion has %d", len(m.Phases), len(sc.Phases))
			}
			var totalOps, measuredOps int
			measured := 0
			for i, pm := range m.Phases {
				if pm.Name != sc.Phases[i].Name {
					t.Errorf("phase %d name %q, want %q", i, pm.Name, sc.Phases[i].Name)
				}
				totalOps += pm.Ops
				if !pm.Warmup {
					measured++
					measuredOps += pm.Ops
				}
				if pm.Ops > 0 && len(pm.Timeline) == 0 {
					t.Errorf("phase %q did %d ops but has no timeline", pm.Name, pm.Ops)
				}
				if pm.Fairness < 0 || pm.Fairness > 1 {
					t.Errorf("phase %q fairness %v outside [0,1]", pm.Name, pm.Fairness)
				}
				for _, l := range []*LatencyStats{pm.CounterLat, pm.QueueLat} {
					if l == nil {
						continue
					}
					if l.P50Ns > l.P99Ns || l.P99Ns > l.P999Ns || l.P999Ns > l.MaxNs {
						t.Errorf("phase %q quantiles not monotone: %+v", pm.Name, l)
					}
				}
			}
			if measured == 0 {
				t.Error("no measured phase ran")
			}
			if totalOps != 4000 {
				t.Errorf("phases did %d ops total, budget was 4000", totalOps)
			}
			if m.Aggregate.Ops != measuredOps {
				t.Errorf("aggregate ops %d, measured phases did %d", m.Aggregate.Ops, measuredOps)
			}
		})
	}
}

// TestScenarioParamsRead holds every registered scenario to its declared
// params the way checkDeclaration holds structures: through
// ExpandScenario, each key alone at an unparseable value must fail the
// expansion and name the key. The seeded twins show the check bites — a
// declared param the expansion never reads, and one it reads with
// o.String but never checks — and that their honest versions pass.
func TestScenarioParamsRead(t *testing.T) {
	registerTestImpls()
	registerComposeTestScenario()
	base := Workload{Counter: "test-alpha", Queue: "test-queue", Goroutines: 2, Ops: 1000}
	for _, info := range Scenarios() {
		err := checkParamsRead(info.Name, info.Params, func(o Options) error {
			_, err := ExpandScenario(Spec{Name: info.Name, Options: o}.String(), base)
			return err
		})
		if err != nil {
			t.Error(err)
		}
	}

	steady := func(base Workload, o Options) ([]Phase, error) {
		return assignBudgets(base, []Phase{basePhase(base, "measure")}, []float64{1})
	}
	label := func(check bool) func(Workload, Options) ([]Phase, error) {
		return func(base Workload, o Options) ([]Phase, error) {
			name := o.String("label", "measure")
			if check && strings.IndexFunc(name, unicode.IsControl) >= 0 {
				return nil, fmt.Errorf("label=%q is not a printable phase name", name)
			}
			return assignBudgets(base, []Phase{basePhase(base, name)}, []float64{1})
		}
	}
	cycles := []ParamInfo{{Name: "cycles", Default: "3"}}
	labels := []ParamInfo{{Name: "label", Default: "measure"}}
	for _, tc := range []struct {
		info   ScenarioInfo
		honest bool
	}{
		{ScenarioInfo{Name: "cycles-unread", Params: cycles, Phases: steady}, false},
		{ScenarioInfo{Name: "label-unchecked", Params: labels, Phases: label(false)}, false},
		{ScenarioInfo{Name: "spike", Params: cycles, Phases: scenarios["spike"].Phases}, true},
		{ScenarioInfo{Name: "label", Params: labels, Phases: label(true)}, true},
	} {
		err := checkParamsRead(tc.info.Name, tc.info.Params, func(o Options) error {
			_, err := tc.info.Phases(base.withDefaults(), o)
			return err
		})
		if tc.honest && err != nil {
			t.Error(err)
		}
		if !tc.honest && err == nil {
			t.Errorf("%s: wrong declaration passed the check", tc.info.Name)
		}
	}
}

func TestScenarioRampShape(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Goroutines: 8, Ops: 8000}
	sc, err := ExpandScenario("ramp", base)
	if err != nil {
		t.Fatal(err)
	}
	wantG := []int{1, 2, 4, 8}
	if len(sc.Phases) != len(wantG) {
		t.Fatalf("ramp phases = %d, want %d", len(sc.Phases), len(wantG))
	}
	for i, p := range sc.Phases {
		if p.Goroutines != wantG[i] {
			t.Errorf("phase %d goroutines = %d, want %d", i, p.Goroutines, wantG[i])
		}
	}
	// A non-power-of-two ceiling still ends exactly at the ceiling.
	sc, err = ExpandScenario("ramp?gmax=6", base)
	if err != nil {
		t.Fatal(err)
	}
	last := sc.Phases[len(sc.Phases)-1]
	if last.Goroutines != 6 {
		t.Errorf("ramp?gmax=6 tops out at %d goroutines", last.Goroutines)
	}
}

func TestScenarioMixshiftShape(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Queue: "test-queue", Ops: 5000}
	sc, err := ExpandScenario("mixshift", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 5 {
		t.Fatalf("mixshift phases = %d, want 5", len(sc.Phases))
	}
	if sc.Phases[0].Mix != 0 || sc.Phases[4].Mix != 1 {
		t.Errorf("mixshift endpoints %v..%v, want 0..1", sc.Phases[0].Mix, sc.Phases[4].Mix)
	}
	// mixshift without both structures fails at expansion, before any run.
	if _, err := ExpandScenario("mixshift", Workload{Counter: "test-alpha", Ops: 5000}); err == nil {
		t.Error("mixshift without a queue accepted")
	}
}

func TestScenarioSteadyWarmupExcluded(t *testing.T) {
	registerTestImpls()
	m, err := Run(Workload{
		Counter: "test-alpha", Scenario: "steady?warmup=0.25",
		Goroutines: 2, Ops: 4000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 2 || !m.Phases[0].Warmup || m.Phases[1].Warmup {
		t.Fatalf("steady phases malformed: %+v", m.Phases)
	}
	if m.Phases[0].Ops != 1000 || m.Phases[1].Ops != 3000 {
		t.Errorf("warmup split %d/%d, want 1000/3000", m.Phases[0].Ops, m.Phases[1].Ops)
	}
	if m.Aggregate.Ops != 3000 {
		t.Errorf("aggregate includes warmup: %d ops, want 3000", m.Aggregate.Ops)
	}
	// warmup=0 drops the warmup phase entirely.
	m, err = Run(Workload{Counter: "test-alpha", Scenario: "steady?warmup=0", Ops: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 1 || m.Phases[0].Warmup {
		t.Errorf("steady?warmup=0 phases: %+v", m.Phases)
	}
}

func TestScenarioBatchedRequiresCapability(t *testing.T) {
	registerTestImpls()
	// The batched scenario on a counter without IncN fails loudly, naming
	// the capability — the fail-loudly rule end to end through a scenario.
	_, err := Run(Workload{Counter: "test-alpha", Scenario: "batched", Ops: 2000})
	if err == nil {
		t.Fatal("batched scenario on a non-batching counter accepted")
	}
	if !strings.Contains(err.Error(), "BatchSession") {
		t.Errorf("error does not name the missing capability: %v", err)
	}
	// On a batching counter the second phase actually batches.
	m, err := Run(Workload{Counter: "test-batch", Scenario: "batched?batch=32", Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Phases[0].Batch != 0 || m.Phases[1].Batch != 32 {
		t.Errorf("batched phases batch = %d/%d, want 0/32", m.Phases[0].Batch, m.Phases[1].Batch)
	}
}

func TestScenarioDurationBudgetSplits(t *testing.T) {
	registerTestImpls()
	start := time.Now()
	m, err := Run(Workload{
		Counter: "test-alpha", Scenario: "ramp?gmax=2",
		Duration: 30 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("duration scenario ran far past its budget")
	}
	if len(m.Phases) != 2 {
		t.Fatalf("ramp?gmax=2 phases = %d", len(m.Phases))
	}
	for _, p := range m.Phases {
		if p.Ops == 0 {
			t.Errorf("duration phase %q did no operations", p.Name)
		}
	}
}

func TestScenarioSpecErrors(t *testing.T) {
	registerTestImpls()
	base := Workload{Counter: "test-alpha", Ops: 1000}
	if _, err := ExpandScenario("no-such-scenario", base); err == nil {
		t.Error("unknown scenario accepted")
	} else if !strings.Contains(err.Error(), "ramp") {
		t.Errorf("unknown-scenario error does not list alternatives: %v", err)
	}
	if _, err := ExpandScenario("ramp?bogus=1", base); err == nil {
		t.Error("unknown scenario param accepted")
	}
	if _, err := ExpandScenario("ramp?gmax=banana", base); err == nil {
		t.Error("mistyped scenario param accepted")
	}
	if _, err := ExpandScenario("steady?warmup=0.99", base); err == nil {
		t.Error("out-of-range warmup fraction accepted")
	}
	if _, err := ExpandScenario("spike?cycles=0", base); err == nil {
		t.Error("zero spike cycles accepted")
	}
	// A budget too small to give every phase an op fails at expansion.
	if _, err := ExpandScenario("mixshift?steps=20", Workload{Counter: "test-alpha", Queue: "test-queue", Ops: 10}); err == nil {
		t.Error("10-op budget across 20 phases accepted")
	}
	// Run surfaces expansion errors too.
	if _, err := Run(Workload{Counter: "test-alpha", Scenario: "no-such-scenario", Ops: 100}); err == nil {
		t.Error("Run accepted an unknown scenario")
	}
}

func TestScenarioRegistryDuplicatePanics(t *testing.T) {
	mustPanic(t, "duplicate scenario", func() {
		RegisterScenario(ScenarioInfo{
			Name:   "ramp",
			Phases: func(Workload, Options) ([]Phase, error) { return nil, nil },
		})
	})
	mustPanic(t, "nil scenario expansion", func() {
		RegisterScenario(ScenarioInfo{Name: "test-nil-scenario"})
	})
	mustPanic(t, "scenario spec metacharacter", func() {
		RegisterScenario(ScenarioInfo{
			Name:   "bad?name",
			Phases: func(Workload, Options) ([]Phase, error) { return nil, nil },
		})
	})
}
