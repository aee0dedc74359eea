package shm

import (
	"strings"
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
	live := make(map[string]bool)
	for _, info := range countq.Structures() {
		if strings.HasPrefix(info.Name, "sim-") {
			continue // the bridges own their variant sets elsewhere
		}
		live[info.Name] = true
		specs := variants[info.Name]
		if len(info.Params) > 0 && len(specs) == 0 {
			t.Errorf("%s declares params but has no variant in VariantSpecs", info.Name)
		}
		for _, spec := range append([]string{info.Name}, specs...) {
			// A variant must really be parameterized, not a stale bare name.
			s, err := countq.ParseSpec(spec)
			if err != nil || s.Name != info.Name || (spec != info.Name && s.Options.Len() == 0) {
				t.Errorf("VariantSpecs[%s] entry %q is not a parameterized spec of that structure", info.Name, spec)
				continue
			}
			w := countq.Workload{Goroutines: 4, Ops: 2000, Seed: 1}
			if info.Kinds.Has(countq.KindCounter) {
				w.Counter = spec
			} else {
				w.Queue = spec
			}
			res, err := countq.Run(w)
			if err != nil {
				t.Errorf("%v %s: %v", info.Kinds, spec, err)
			} else if res.Aggregate.Ops != 2000 {
				t.Errorf("%v %s: %d ops", info.Kinds, spec, res.Aggregate.Ops)
			}
		}
	}
	// The other direction: a renamed or removed structure must not leave a
	// stale variant entry behind (it would silently vanish from every
	// sweep that looks variants up by registry name).
	for name := range variants {
		if !live[name] {
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
		if _, err := countq.NewStructure(spec, countq.KindCounter); err == nil {
			t.Errorf("%s accepted (would silently run at the default)", spec)
		}
	}
	// For the async combiners spin=0 is a real value, not a default
	// sentinel, so only genuinely invalid settings appear here.
	for _, spec := range []string{
		"async-funnel?pipeline=0", "async-funnel?spin=-1", "elim?pipeline=0",
	} {
		if _, err := countq.NewStructure(spec, 0); err == nil {
			t.Errorf("%s accepted (invalid combining parameters)", spec)
		}
	}
}

// TestRegistryCapabilities pins which synchronous counters declare the
// optional capabilities the driver exploits, and that their sessions carry
// what is declared.
func TestRegistryCapabilities(t *testing.T) {
	batchers := map[string]bool{"atomic": true, "mutex": true, "sharded": true}
	handlers := map[string]bool{"sharded": true}
	for _, info := range SyncStructures(countq.KindCounter) {
		if got := info.Caps.Has(countq.CapBatch); got != batchers[info.Name] {
			t.Errorf("%s: CapBatch = %v, want %v", info.Name, got, batchers[info.Name])
		}
		if got := info.Caps.Has(countq.CapHandle); got != handlers[info.Name] {
			t.Errorf("%s: CapHandle = %v, want %v", info.Name, got, handlers[info.Name])
		}
		st, err := info.New(countq.Options{})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		sess, err := st.NewSession()
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if _, ok := sess.(countq.BatchSession); ok != batchers[info.Name] {
			t.Errorf("%s: BatchSession = %v, want %v", info.Name, ok, batchers[info.Name])
		}
		sess.Close()
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
