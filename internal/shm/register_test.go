package shm

import (
	"testing"

	"repro/countq"
)

// TestRegistryRoundTrip proves every registered structure constructs and
// validates through the public spec API, both at declared defaults and —
// for every structure with params — at every canonical non-default
// variant (VariantSpecs, shared with E11 and the benchmarks). Runs under
// -race in CI, so this is also the zoo-wide concurrency check for the
// spec-constructed configurations.
func TestRegistryRoundTrip(t *testing.T) {
	variants := VariantSpecs()
	counterNames := make(map[string]bool)
	for _, info := range countq.Counters() {
		counterNames[info.Name] = true
		res, err := countq.Run(countq.Workload{Counter: info.Name, Goroutines: 4, Ops: 2000, Seed: 1})
		if err != nil {
			t.Errorf("%s at defaults: %v", info.Name, err)
		} else if res.Aggregate.CounterOps != 2000 {
			t.Errorf("%s at defaults: %d ops", info.Name, res.Aggregate.CounterOps)
		}
		specs := variants[info.Name]
		if len(info.Params) > 0 && len(specs) == 0 {
			t.Errorf("%s declares params but has no variant in VariantSpecs", info.Name)
			continue
		}
		for _, spec := range specs {
			// The variant must really be parameterized, not a stale bare name.
			s, err := countq.ParseSpec(spec)
			if err != nil || s.Name != info.Name || s.Options.Len() == 0 {
				t.Errorf("VariantSpecs[%s] entry %q is not a parameterized spec of that structure", info.Name, spec)
				continue
			}
			res, err := countq.Run(countq.Workload{Counter: spec, Goroutines: 4, Ops: 2000, Seed: 1})
			if err != nil {
				t.Errorf("%s: %v", spec, err)
			} else if res.Aggregate.CounterOps != 2000 {
				t.Errorf("%s: %d ops", spec, res.Aggregate.CounterOps)
			}
		}
	}
	for _, info := range countq.Queues() {
		res, err := countq.Run(countq.Workload{Queue: info.Name, Goroutines: 4, Ops: 2000, Seed: 1})
		if err != nil {
			t.Errorf("queue %s at defaults: %v", info.Name, err)
		} else if res.Aggregate.QueueOps != 2000 {
			t.Errorf("queue %s: %d ops", info.Name, res.Aggregate.QueueOps)
		}
		if len(info.Params) > 0 && len(variants[info.Name]) == 0 {
			t.Errorf("queue %s declares params but has no variant in VariantSpecs", info.Name)
		}
		counterNames[info.Name] = true // registered queue names are live too
	}
	// This package's native session structures (no legacy Counter/Queuer
	// view) go through the same defaults + canonical-variants sweep, driven
	// by spec. Listed explicitly: the registry also holds structures from
	// other packages (the sim bridge) that own their variant sets elsewhere.
	shmNative := map[string]bool{"async-funnel": true, "elim": true}
	for _, info := range countq.Structures() {
		if counterNames[info.Name] || !shmNative[info.Name] {
			continue // legacy-covered, or not this package's structure
		}
		counterNames[info.Name] = true
		w := countq.Workload{Goroutines: 4, Ops: 2000, Seed: 1}
		specs := append([]string{info.Name}, variants[info.Name]...)
		if len(info.Params) > 0 && len(variants[info.Name]) == 0 {
			t.Errorf("%s declares params but has no variant in VariantSpecs", info.Name)
		}
		for _, spec := range specs {
			w := w
			if info.Kinds.Has(countq.KindCounter) {
				w.Counter = spec
			} else {
				w.Queue = spec
			}
			res, err := countq.Run(w)
			if err != nil {
				t.Errorf("%s: %v", spec, err)
			} else if res.Aggregate.Ops != 2000 {
				t.Errorf("%s: %d ops", spec, res.Aggregate.Ops)
			}
		}
	}
	// The other direction: a renamed or removed structure must not leave a
	// stale variant entry behind (it would silently vanish from every
	// sweep that looks variants up by registry name).
	for name := range variants {
		if !counterNames[name] {
			t.Errorf("VariantSpecs names %q, which is not a registered structure", name)
		}
	}
}

// TestRegistryRejectsExplicitZeroParams: the constructors treat 0 as "use
// the default", so the registration shims must reject explicit zeros
// rather than silently reinterpreting them — a swept spin=0 data point
// must not quietly measure spin=32.
func TestRegistryRejectsExplicitZeroParams(t *testing.T) {
	for _, spec := range []string{
		"funnel?spin=0", "funnel?width=0", "funnel?depth=-1",
		"sharded?batch=0", "sharded?shards=0",
		"diffracting?spin=0", "diffracting?spin=-1", "diffracting?leaves=0",
		"combining?pending=0", "network?width=0",
	} {
		if _, err := countq.NewCounter(spec); err == nil {
			t.Errorf("%s accepted (would silently run at the default)", spec)
		}
	}
	// Native structures have no legacy view; reject nonsense via the
	// structure constructor (spin=0 is a real value for them, not a
	// default sentinel, so only genuinely invalid settings appear here).
	for _, spec := range []string{
		"async-funnel?pipeline=0", "async-funnel?spin=-1", "elim?pipeline=0",
	} {
		if _, err := countq.NewStructure(spec, 0); err == nil {
			t.Errorf("%s accepted (invalid combining parameters)", spec)
		}
	}
}

// TestRegistryCapabilities pins which structures advertise the optional
// capability interfaces the driver exploits.
func TestRegistryCapabilities(t *testing.T) {
	batchers := map[string]bool{"atomic": true, "mutex": true, "sharded": true}
	handlers := map[string]bool{"sharded": true}
	for _, info := range countq.Counters() {
		c, err := info.New(countq.Options{})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if _, ok := c.(countq.BatchIncrementer); ok != batchers[info.Name] {
			t.Errorf("%s: BatchIncrementer = %v, want %v", info.Name, ok, batchers[info.Name])
		}
		if _, ok := c.(countq.HandleMaker); ok != handlers[info.Name] {
			t.Errorf("%s: HandleMaker = %v, want %v", info.Name, ok, handlers[info.Name])
		}
	}
	// The batch path validates end to end through the driver.
	res, err := countq.Run(countq.Workload{Counter: "sharded?shards=2&batch=16", Ops: 3000, Batch: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].Batch != 32 || res.Aggregate.CounterOps != 3000 {
		t.Errorf("sharded batch run: batch=%d ops=%d", res.Phases[0].Batch, res.Aggregate.CounterOps)
	}
}
