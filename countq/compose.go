package countq

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Scenario composition: a ';'-separated scenario spec sequences registered
// scenarios into one phased run — "ramp?gmax=8;spike" runs the ramp's
// phases, then the spike's, over the same structure instances and budget.
// Each segment is an ordinary scenario spec plus two reserved parameters
// the composition layer consumes before the scenario sees its options:
//
//   - weight: the segment's share of the base budget (positive, default 1;
//     an ops budget splits by largest remainder, a duration budget splits
//     proportionally) — duration-weighted sequencing in spec form.
//   - warmup: "true" marks every phase of the segment as warmup — run and
//     validated, excluded from the aggregate ("ramp?warmup=true;spike"
//     uses the whole ramp to heat the structure before measuring).
//
// A scenario that declares one of these names itself keeps its own meaning
// (steady's warmup fraction, for instance); the reserved reading applies
// only to parameters the scenario does not declare.
//
// The whole composition is validated at expansion time: no empty segments,
// phase names distinct across all segments (compose "ramp;ramp" and the
// second ramp's g=1 collides — rename via different params or scenarios),
// and at least one measured phase across the composition.

// Segments parses a (possibly composed) scenario spec into its per-segment
// Specs, reserved keys stripped — the inspection surface callers use to
// reason about a composition without expanding it (the CLI rejects a sweep
// whose parameter a segment shadows this way). A spec without ';' returns
// a single segment.
func Segments(spec string) ([]Spec, error) {
	if !strings.Contains(spec, ";") {
		s, err := ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		return []Spec{s}, nil
	}
	segs, err := parseSegments(spec)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(segs))
	for i, g := range segs {
		specs[i] = g.spec
	}
	return specs, nil
}

// segment is one parsed composition segment: the scenario spec with the
// reserved keys stripped, plus the consumed weight and warmup markers.
type segment struct {
	spec   Spec
	weight float64
	warmup bool
}

// canonical renders the segment in its canonical spec form, reserved keys
// included (weight omitted at its default of 1, warmup omitted when false).
func (g segment) canonical() string {
	s := g.spec
	if g.weight != 1 {
		s = s.With("weight", strconv.FormatFloat(g.weight, 'g', -1, 64))
	}
	if g.warmup {
		s = s.With("warmup", "true")
	}
	return s.String()
}

// parseSegments splits a composed scenario spec into its segments,
// resolving each against the scenario registry and consuming the reserved
// parameters. Unknown scenarios and undeclared parameters fail here, before
// any budget is split.
func parseSegments(spec string) ([]segment, error) {
	parts := strings.Split(spec, ";")
	segs := make([]segment, 0, len(parts))
	for i, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("countq: composition %q: segment %d is empty", spec, i+1)
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, fmt.Errorf("countq: composition %q: segment %d: %w", spec, i+1, err)
		}
		regMu.RLock()
		info, ok := scenarios[sp.Name]
		regMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("countq: composition %q: unknown scenario %q (registered: %v)", spec, sp.Name, ScenarioNames())
		}
		seg := segment{weight: 1}
		declared := make(map[string]bool, len(info.Params))
		for _, p := range info.Params {
			declared[p.Name] = true
		}
		// Reserved keys the scenario does not declare itself are consumed
		// here; everything else passes through to the scenario's own
		// parameter validation at expansion.
		kept := Spec{Name: sp.Name}
		for _, k := range sp.Options.Keys() {
			v, _ := sp.Options.Lookup(k)
			switch {
			case k == "weight" && !declared[k]:
				w, err := strconv.ParseFloat(v, 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("countq: composition %q: segment %d: weight %q is not a positive number", spec, i+1, v)
				}
				seg.weight = w
			case k == "warmup" && !declared[k]:
				b, err := strconv.ParseBool(v)
				if err != nil {
					return nil, fmt.Errorf("countq: composition %q: segment %d: warmup %q is not a boolean", spec, i+1, v)
				}
				seg.warmup = b
			default:
				kept.Options.Set(k, v)
			}
		}
		seg.spec = kept
		segs = append(segs, seg)
	}
	return segs, nil
}

// expandComposition expands a ';'-separated scenario spec against a
// resolved base workload: the base budget is split across segments in
// proportion to their weights, each segment expands against its share, and
// the concatenated phase sequence is validated as a whole (distinct names,
// at least one measured phase across the composition).
func expandComposition(spec string, base Workload) (*Scenario, error) {
	segs, err := parseSegments(spec)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(segs))
	var wsum float64
	for i, g := range segs {
		weights[i] = g.weight
		wsum += g.weight
	}
	var shares []int
	if base.Duration <= 0 {
		if base.Ops < len(segs) {
			return nil, fmt.Errorf("countq: composition %q: ops budget %d cannot cover %d segments", spec, base.Ops, len(segs))
		}
		shares = splitOps(base.Ops, weights, wsum)
	}
	var phases []Phase
	names := make([]string, len(segs))
	canon := make([]string, len(segs))
	for i, g := range segs {
		sub := base
		if base.Duration > 0 {
			d := time.Duration(float64(base.Duration) * g.weight / wsum)
			if d < 1 {
				d = 1
			}
			sub.Duration, sub.Ops = d, 0
		} else {
			sub.Ops = shares[i]
		}
		ps, err := expandOne(g.spec, sub)
		if err != nil {
			return nil, fmt.Errorf("countq: composition %q: segment %d: %w", spec, i+1, err)
		}
		if g.warmup {
			for j := range ps {
				ps[j].Warmup = true
			}
		}
		phases = append(phases, ps...)
		names[i] = g.spec.Name
		canon[i] = g.canonical()
	}
	if err := validatePhases(fmt.Sprintf("composition %q", spec), phases); err != nil {
		return nil, err
	}
	return &Scenario{
		Name:   strings.Join(names, ";"),
		Spec:   strings.Join(canon, ";"),
		Phases: phases,
	}, nil
}
