package countq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry: one StructureInfo per implementation, with declared kinds,
// parameters, consistency and session capabilities, recorded through the
// one registration function RegisterStructure. Names are shared across
// kinds the way the zoo already uses them ("mutex" the counter and "mutex"
// the queue coexist): lookups are always kind-qualified, and registering
// two structures of overlapping kind under one name panics.

// StructureInfo describes one registered structure implementation.
type StructureInfo struct {
	// Name is the registry key (e.g. "sharded", "sim-counter").
	Name string
	// Summary is a one-line human-readable description.
	Summary string
	// Kinds declares the operation kinds the structure's sessions serve.
	Kinds Kind
	// Linearizable records whether the implementation guarantees
	// real-time (linearizable) ordering, as opposed to the weaker
	// quiescent consistency of counting networks and sharded designs.
	Linearizable bool
	// Params declares every construction parameter the implementation
	// accepts. Spec keys outside this set are rejected before New runs.
	Params []ParamInfo
	// Caps declares the session capabilities (CapHandle, CapBatch,
	// CapAsync) the structure's sessions implement. The driver trusts the
	// declaration to validate workloads before running them.
	Caps Caps
	// New constructs a fresh instance from the given options; the zero
	// Options means all defaults.
	New func(Options) (Structure, error)
}

var (
	regMu sync.RWMutex
	// structures maps a name to its registered entries — at most one per
	// kind, so the slice has 1 or 2 elements.
	structures = make(map[string][]StructureInfo)
)

// checkInfo enforces the shared registration invariants: a non-empty name
// without spec metacharacters, a constructor, and distinct non-empty
// parameter names.
func checkInfo(kind, name string, hasNew bool, params []ParamInfo) {
	if name == "" || !hasNew {
		panic(fmt.Sprintf("countq: Register%s with empty name or nil constructor", kind))
	}
	if strings.ContainsAny(name, "?&=;,@") {
		panic(fmt.Sprintf("countq: %s name %q contains a spec metacharacter", kind, name))
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Name == "" {
			panic(fmt.Sprintf("countq: %s %q declares a param with no name", kind, name))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("countq: %s %q declares param %q twice", kind, name, p.Name))
		}
		seen[p.Name] = true
	}
}

// RegisterStructure records a structure constructor under info.Name for
// the kinds it declares. It is intended to be called from package init
// functions; registering an empty name, a nil constructor, no kinds,
// malformed params, or an already-taken (name, kind) pair panics.
func RegisterStructure(info StructureInfo) {
	regMu.Lock()
	defer regMu.Unlock()
	checkInfo("Structure", info.Name, info.New != nil, info.Params)
	if info.Kinds&(KindCounter|KindQueue) == 0 {
		panic(fmt.Sprintf("countq: structure %q declares no operation kind", info.Name))
	}
	for _, prev := range structures[info.Name] {
		if prev.Kinds&info.Kinds != 0 {
			panic(fmt.Sprintf("countq: structure %q registered twice", info.Name))
		}
	}
	structures[info.Name] = append(structures[info.Name], info)
}

// LookupStructure reports the registered structure serving kind under
// name, and whether one exists.
func LookupStructure(name string, kind Kind) (StructureInfo, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, info := range structures[name] {
		if info.Kinds.Has(kind) {
			return info, true
		}
	}
	return StructureInfo{}, false
}

// NewStructure constructs a fresh structure from a spec — a bare name
// ("sharded") or a parameterized form ("sim-counter?hoplat=1us") — for the
// given operation kind. The kind disambiguates names registered on both
// sides (e.g. "mutex"). Unknown names report the registered alternatives
// of that kind; unknown or mistyped parameters report the declared set.
func NewStructure(spec string, kind Kind) (Structure, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	st, _, err := newStructureFromSpec(s, kind)
	return st, err
}

// newStructureFromSpec constructs the structure and returns its registry
// info alongside — the form the driver uses to validate a workload against
// the declared capabilities.
func newStructureFromSpec(s Spec, kind Kind) (Structure, StructureInfo, error) {
	info, ok := LookupStructure(s.Name, kind)
	if !ok {
		return nil, StructureInfo{}, fmt.Errorf("countq: unknown %v %q (registered: %v)", kind, s.Name, StructureNames(kind))
	}
	if err := checkParams(kind.String(), s.Name, s.Options, info.Params); err != nil {
		return nil, StructureInfo{}, err
	}
	st, err := info.New(s.Options)
	if err != nil {
		return nil, StructureInfo{}, err
	}
	return st, info, nil
}

// NewCounter is the direct-call view of a counter spec: it constructs the
// structure exactly as NewStructure does and returns it as a Counter, safe
// for concurrent Inc calls with no session in between — what a
// micro-benchmark pricing the structure alone wants. Structures whose
// coordination round is not a synchronous call (the sim bridges, the
// native-async combiners) have no such view and are reported as such.
func NewCounter(spec string) (Counter, error) { return directView[Counter](spec, KindCounter) }

// NewQueue is the queue-side direct-call view (see NewCounter).
func NewQueue(spec string) (Queuer, error) { return directView[Queuer](spec, KindQueue) }

// directView builds the structure and asserts it to the view V. A
// structure without the view is closed again — a bridge's pump goroutine
// must not outlive the failed call — and the error says how to drive it.
func directView[V any](spec string, kind Kind) (V, error) {
	var none V
	st, err := NewStructure(spec, kind)
	if err != nil {
		return none, err
	}
	if v, ok := st.(V); ok {
		return v, nil
	}
	closeStructure(st)
	return none, fmt.Errorf("countq: %v %q has no synchronous view; drive it through NewStructure and sessions", kind, spec)
}

// Structures returns every registered structure, sorted by name (entries
// sharing a name sort counter before queue).
func Structures() []StructureInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []StructureInfo
	for _, infos := range structures {
		out = append(out, infos...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kinds < out[j].Kinds
	})
	return out
}

// StructureNames returns the registered structure names serving kind,
// sorted.
func StructureNames(kind Kind) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	for name, infos := range structures {
		for _, info := range infos {
			if info.Kinds.Has(kind) {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}
