package countq

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase is one segment of a phased run: a fully resolved workload shape
// (goroutines, mix, arrival, batching, sampling) plus its own slice of the
// run's budget. The structures, their accumulated state, and the seed come
// from the base Workload and persist across phases — a phase reshapes the
// load, it never swaps the structure under test. Scenario expansion
// produces phases; Workload.Scenario is the usual way to run them.
type Phase struct {
	// Name labels the phase in metrics ("warmup", "g=4", "mix=0.75").
	// Names must be non-empty and distinct within a scenario.
	Name string
	// Warmup phases run (and their operations are validated) but are
	// excluded from the run's aggregate metrics.
	Warmup bool
	// Goroutines is the phase's worker count (0 inherits the base).
	Goroutines int
	// Ops and Duration are the phase's budget: exactly one must be
	// positive (a positive Duration wins, as on Workload).
	Ops      int
	Duration time.Duration
	// Mix, Batch, Inflight, LatencySample and Arrival mean what they mean
	// on Workload, per phase. Mix is forced to 1/0 for pure workloads;
	// Inflight and LatencySample 0 inherit the base.
	Mix           float64
	Batch         int
	Inflight      int
	LatencySample int
	Arrival       Arrival
}

// ScenarioInfo describes one registered scenario: a named, parameterized
// recipe that expands a base workload into a sequence of phases. Scenarios
// self-register like structures (registry v2): declared params, unknown
// keys rejected, `countq scenarios -v` self-documents the catalogue.
type ScenarioInfo struct {
	// Name is the registry key (e.g. "ramp").
	Name string
	// Summary is a one-line human-readable description.
	Summary string
	// Params declares every parameter the scenario accepts. Spec keys
	// outside this set are rejected before Phases runs.
	Params []ParamInfo
	// Phases expands the scenario against a base workload whose defaults
	// (goroutine count, op budget, sampling) have been resolved. It
	// derives each phase from the base shape and divides the base budget;
	// typed-getter errors on o must be surfaced (o.Err()).
	Phases func(base Workload, o Options) ([]Phase, error)
}

var scenarios = make(map[string]ScenarioInfo)

// RegisterScenario records a scenario under info.Name. It is intended to
// be called from package init functions; registering an empty name, a nil
// expansion, malformed params, or a name twice panics.
func RegisterScenario(info ScenarioInfo) {
	regMu.Lock()
	defer regMu.Unlock()
	checkInfo("Scenario", info.Name, info.Phases != nil, info.Params)
	if _, dup := scenarios[info.Name]; dup {
		panic(fmt.Sprintf("countq: scenario %q registered twice", info.Name))
	}
	scenarios[info.Name] = info
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []ScenarioInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]ScenarioInfo, 0, len(scenarios))
	for _, info := range scenarios {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	infos := Scenarios()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// Scenario is an expanded scenario: the canonical spec it came from and
// the concrete phases it will run against the base workload it was
// expanded for.
type Scenario struct {
	Name   string
	Spec   string // canonical parseable form
	Phases []Phase
}

// ExpandScenario parses a scenario spec ("ramp", "ramp?gmax=16", or a
// ';'-separated composition like "ramp?gmax=8;spike"), resolves the base
// workload's defaults, and expands the scenario into its phases. The
// expansion is validated structurally — at least one phase, distinct
// non-empty names across the whole expansion, at least one measured
// (non-warmup) phase — and the per-phase workload shapes are validated
// again by Run. compose.go documents the ';' composition semantics
// (per-segment weight and warmup, duration-weighted budget splits).
func ExpandScenario(spec string, base Workload) (*Scenario, error) {
	if strings.Contains(spec, ";") {
		return expandComposition(spec, base.withDefaults())
	}
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	phases, err := expandOne(s, base.withDefaults())
	if err != nil {
		return nil, err
	}
	if err := validatePhases(fmt.Sprintf("scenario %q", s.Name), phases); err != nil {
		return nil, err
	}
	return &Scenario{Name: s.Name, Spec: s.String(), Phases: phases}, nil
}

// expandOne resolves one already-parsed scenario spec against a resolved
// base workload and runs its registered expansion. It validates the
// segment-local invariants (known scenario, declared params, at least one
// phase, non-empty phase names); the cross-expansion checks — distinct
// names, at least one measured phase — are the caller's, so a composition
// can apply them across all of its segments at once.
func expandOne(s Spec, base Workload) ([]Phase, error) {
	regMu.RLock()
	info, ok := scenarios[s.Name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("countq: unknown scenario %q (registered: %v)", s.Name, ScenarioNames())
	}
	if err := checkParams("scenario", s.Name, s.Options, info.Params); err != nil {
		return nil, err
	}
	phases, err := info.Phases(base, s.Options)
	if err != nil {
		return nil, fmt.Errorf("countq: scenario %q: %w", s.Name, err)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("countq: scenario %q expanded to no phases", s.Name)
	}
	for _, p := range phases {
		if p.Name == "" {
			return nil, fmt.Errorf("countq: scenario %q has a phase with no name", s.Name)
		}
	}
	return phases, nil
}

// validatePhases applies the whole-expansion structural checks: phase
// names distinct across the full sequence and at least one measured
// (non-warmup) phase.
func validatePhases(what string, phases []Phase) error {
	seen := make(map[string]bool, len(phases))
	measured := 0
	for _, p := range phases {
		if seen[p.Name] {
			return fmt.Errorf("countq: %s names phase %q twice", what, p.Name)
		}
		seen[p.Name] = true
		if !p.Warmup {
			measured++
		}
	}
	if measured == 0 {
		return fmt.Errorf("countq: %s has no measured (non-warmup) phase", what)
	}
	return nil
}
