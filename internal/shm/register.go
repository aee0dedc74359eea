package shm

import (
	"fmt"

	"repro/countq"
)

// variantSpecs is the canonical set of non-default parameterizations for
// every registered structure that declares params: one small/serializing
// configuration and one wide/spread one per structure. E11, the top-level
// benchmarks and the registry cost gate (countq's TestRegistryCost) all
// sweep this list, and the registry round-trip test enforces it both ways
// (every parameterized structure has variants; every variant names a live
// structure), so the covered surface can't silently narrow back to
// defaults when the zoo changes.
var variantSpecs = map[string][]string{
	"combining":    {"combining?pending=16", "combining?pending=4096"},
	"funnel":       {"funnel?width=4&depth=3&spin=8", "funnel?width=8&depth=3"},
	"network":      {"network?width=4", "network?width=16"},
	"diffracting":  {"diffracting?leaves=4&spin=4", "diffracting?leaves=16"},
	"sharded":      {"sharded?shards=2&batch=8", "sharded?shards=16&batch=256"},
	"async-funnel": {"async-funnel?pipeline=8", "async-funnel?spin=64"},
	"elim":         {"elim?pipeline=8&spin=16", "elim?pipeline=1024"},
}

// VariantSpecs returns the canonical non-default spec strings for each
// parameterized structure, keyed by registry name. The map is a copy;
// mutating it does not affect the canonical set.
func VariantSpecs() map[string][]string {
	out := make(map[string][]string, len(variantSpecs))
	for name, specs := range variantSpecs {
		out[name] = append([]string(nil), specs...)
	}
	return out
}

// SyncStructures returns the registered structures of kind whose sessions
// are synchronous only (no CapAsync), sorted by name: the roster E11 and
// the top-level benchmarks sweep. The native-async combiners and the sim
// bridges have campaigns of their own.
func SyncStructures(kind countq.Kind) []countq.StructureInfo {
	var out []countq.StructureInfo
	for _, info := range countq.Structures() {
		if info.Kinds.Has(kind) && !info.Caps.Has(countq.CapAsync) {
			out = append(out, info)
		}
	}
	return out
}

// requireAtLeast1 rejects parameters the spec set explicitly to a value
// below 1. The constructors treat 0 as "use the default", so without this
// check an explicit funnel?spin=0 would silently run at spin=32 — the
// opposite of the spec contract (mistyped values fail loudly, never
// silently defaulted).
func requireAtLeast1(o *countq.Options, keys ...string) error {
	for _, k := range keys {
		if _, set := o.Lookup(k); set && o.Int64(k, 1) < 1 {
			v, _ := o.Lookup(k)
			return fmt.Errorf("shm: param %s=%s must be ≥ 1 (omit it for the default)", k, v)
		}
	}
	return o.Err()
}

// The shared-memory zoo registers itself with the public countq registry,
// database/sql style: importing this package (even blank) makes every
// implementation constructible by spec — "name" for the declared defaults,
// "name?param=value&…" to tune the knobs that control its coordination
// cost — and new entries added here show up automatically in cmd/countq's
// listing, core's E11 experiment, and the top-level benchmarks. Every
// tunable is declared as a ParamInfo, so unknown spec keys are rejected
// and `countq list -v` self-documents the zoo. Kinds, Caps and
// Linearizable are literals: nothing is constructed here, and the
// conformance suite's checkDeclaration holds each Caps to the session type
// NewSession returns and proves each declared param is read.
func init() {
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "atomic",
		Summary:      "hardware fetch-and-increment on one shared word",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Caps:         countq.CapBatch,
		New: func(o countq.Options) (countq.Structure, error) {
			return NewAtomicCounter(), nil
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "mutex",
		Summary:      "increments serialized behind a single mutex",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Caps:         countq.CapBatch,
		New: func(o countq.Options) (countq.Structure, error) {
			return NewMutexCounter(), nil
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "combining",
		Summary:      "flat combiner: one caller applies the whole pending batch",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Params: []countq.ParamInfo{
			{Name: "pending", Default: "1024", Doc: "publication queue capacity (max simultaneous publishers absorbed)"},
		},
		New: func(o countq.Options) (countq.Structure, error) {
			pending := o.Int("pending", 1024)
			if err := requireAtLeast1(&o, "pending"); err != nil {
				return nil, err
			}
			return NewCombiningCounter(pending), nil
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "funnel",
		Summary:      "combining funnel: rendezvous layers batch increments into one fetch-and-add",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Params: []countq.ParamInfo{
			{Name: "width", Default: "GOMAXPROCS/2", Doc: "top layer's rendezvous slot count (each deeper layer halves it)"},
			{Name: "depth", Default: "2", Doc: "number of rendezvous layers"},
			{Name: "spin", Default: "32", Doc: "ceiling of the adaptive wait: most polls an operation parks in a slot for a partner (meetings double the wait, timeouts halve it)"},
		},
		New: func(o countq.Options) (countq.Structure, error) {
			width := o.Int("width", 0)
			depth := o.Int("depth", 0)
			spin := o.Int("spin", 0)
			if err := requireAtLeast1(&o, "width", "depth", "spin"); err != nil {
				return nil, err
			}
			return NewFunnelCounter(width, depth, spin)
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "network",
		Summary:      "bitonic counting network with per-balancer locks",
		Kinds:        countq.KindCounter,
		Linearizable: false,
		Params: []countq.ParamInfo{
			{Name: "width", Default: "8", Doc: "network width (wires; a power of two) — Θ(log² w) balancers per count"},
		},
		New: func(o countq.Options) (countq.Structure, error) {
			width := o.Int("width", 8)
			if err := o.Err(); err != nil {
				return nil, err
			}
			return NewNetworkCounter(width)
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "diffracting",
		Summary:      "diffracting tree: paired tokens bypass the toggles",
		Kinds:        countq.KindCounter,
		Linearizable: false,
		Params: []countq.ParamInfo{
			{Name: "leaves", Default: "pow2 ≥ GOMAXPROCS", Doc: "leaf count (a power of two); each leaf owns a counter stripe"},
			{Name: "spin", Default: "16", Doc: "ceiling of the adaptive wait: most polls a token parks at a prism for a diffraction partner (pairs double the wait, timeouts halve it)"},
		},
		New: func(o countq.Options) (countq.Structure, error) {
			leaves := o.Int("leaves", 0)
			spin := o.Int("spin", 0)
			if err := requireAtLeast1(&o, "leaves", "spin"); err != nil {
				return nil, err
			}
			return NewDiffractingCounter(leaves, spin)
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "sharded",
		Summary:      "per-P shards leasing count blocks, reconciled on demand",
		Kinds:        countq.KindCounter,
		Linearizable: false,
		Params: []countq.ParamInfo{
			{Name: "shards", Default: "GOMAXPROCS", Doc: "number of shards, each leasing count blocks independently"},
			{Name: "batch", Default: "64", Doc: "counts leased from the global high-water mark per refill"},
		},
		Caps: countq.CapHandle | countq.CapBatch,
		New: func(o countq.Options) (countq.Structure, error) {
			shards := o.Int("shards", 0)
			batch := o.Int64("batch", 0)
			if err := requireAtLeast1(&o, "shards", "batch"); err != nil {
				return nil, err
			}
			return NewShardedCounter(shards, batch)
		},
	})

	countq.RegisterStructure(countq.StructureInfo{
		Name:         "swap",
		Summary:      "one atomic swap yields your predecessor (distributed swap)",
		Kinds:        countq.KindQueue,
		Linearizable: true,
		New: func(o countq.Options) (countq.Structure, error) {
			return NewSwapQueue(), nil
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "list",
		Summary:      "CLH-style linked nodes installed with a swap",
		Kinds:        countq.KindQueue,
		Linearizable: true,
		New: func(o countq.Options) (countq.Structure, error) {
			return NewListQueue(), nil
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "mutex",
		Summary:      "tail pointer updated under a mutex",
		Kinds:        countq.KindQueue,
		Linearizable: true,
		New: func(o countq.Options) (countq.Structure, error) {
			return NewMutexQueue(), nil
		},
	})
}
