// Package good mirrors the registration idioms the real tree uses, all of
// which the analyzer must resolve without a false positive: Params bound
// to a shared identifier, option parsing delegated to a local closure, a
// variadic validation helper whose keys appear at the call site, and the
// kind-gate — a queue-only structure whose sessions happen to implement
// BatchSession need not (must not) declare CapBatch — and a registration
// helper that takes name, kinds and caps as parameters, whose Params are
// still checked but whose Caps have no constant to check against.
package good

import (
	"context"
	"fmt"

	"repro/countq"
)

type queueStructure struct{}

func (queueStructure) NewSession() (countq.Session, error) { return &queueSession{}, nil }

// queueSession serves Enqueue natively; IncN exists (kind-gated at
// runtime, like shm's elim queue) and Submit makes it async.
type queueSession struct {
	done chan countq.Completion
}

func (s *queueSession) Inc(ctx context.Context) (int64, error) {
	return 0, countq.ErrUnsupported
}

func (s *queueSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return countq.Head, nil
}

func (s *queueSession) IncN(ctx context.Context, n int64) (int64, error) {
	return 0, countq.ErrUnsupported
}

func (s *queueSession) Submit(ctx context.Context, op countq.Op) error {
	return nil
}

func (s *queueSession) Completions() <-chan countq.Completion {
	return s.done
}

func (s *queueSession) Close() error { return nil }

// atLeast1 is the variadic validation-helper idiom: the keys it reads
// arrive as call-site constants.
func atLeast1(o *countq.Options, keys ...string) error {
	for _, k := range keys {
		if _, set := o.Lookup(k); set && o.Int64(k, 1) < 1 {
			return fmt.Errorf("param %s must be >= 1", k)
		}
	}
	return o.Err()
}

func register() {
	params := []countq.ParamInfo{
		{Name: "spin", Default: "8", Doc: "slot wait rounds"},
		{Name: "depth", Default: "2", Doc: "layer count"},
		{Name: "cap", Default: "1", Doc: "per-round capacity"},
	}
	parse := func(o countq.Options) (spin, depth int, err error) {
		spin = o.Int("spin", 8)
		depth = o.Int("depth", 2)
		if err := atLeast1(&o, "cap"); err != nil {
			return 0, 0, err
		}
		return spin, depth, o.Err()
	}
	countq.RegisterStructure(countq.StructureInfo{
		Name:   "honest-queue",
		Kinds:  countq.KindQueue,
		Params: params,
		Caps:   countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			if _, _, err := parse(o); err != nil {
				return nil, err
			}
			return queueStructure{}, nil
		},
	})
}

// readString reads one key through a getter method value handed in by
// the caller — the analyzer must follow the value into the func-typed
// parameter and credit the call-site key.
func readString(get func(string, string) string, key string) string {
	return get(key, "")
}

// newMulti reads its params through method values: one bound locally,
// one passed to a helper.
func newMulti(o countq.Options) (countq.Structure, error) {
	width := o.Int("width", 4)
	getInt := o.Int
	retry := getInt("retry", 2)
	label := readString(o.String, "label")
	_, _, _ = width, retry, label
	return queueStructure{}, o.Err()
}

// registerMulti serves both operation kinds, so the kind-gate does not
// apply: its sessions' BatchSession side must be declared.
func registerMulti() {
	countq.RegisterStructure(countq.StructureInfo{
		Name:  "multi-kind",
		Kinds: countq.KindCounter | countq.KindQueue,
		Params: []countq.ParamInfo{
			{Name: "width", Default: "4", Doc: "fanout"},
			{Name: "retry", Default: "2", Doc: "retry budget"},
			{Name: "label", Default: "", Doc: "trace label"},
		},
		Caps: countq.CapBatch | countq.CapAsync,
		New:  newMulti,
	})
}

// registerVia is the registration-helper idiom (sim.RegisterBridge): the
// declaration's name, kinds and caps arrive as parameters.
func registerVia(name string, kinds countq.Kind, caps countq.Caps) {
	countq.RegisterStructure(countq.StructureInfo{
		Name:   name,
		Kinds:  kinds,
		Params: []countq.ParamInfo{{Name: "width", Default: "4", Doc: "fanout"}},
		Caps:   caps,
		New: func(o countq.Options) (countq.Structure, error) {
			_ = o.Int("width", 4)
			return queueStructure{}, o.Err()
		},
	})
}
