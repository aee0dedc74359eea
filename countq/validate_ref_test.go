package countq

import (
	"fmt"
	"math"
	"sort"
)

// The validators as they stood before the linear-time rewrite, kept as test
// oracles: validate_diff_test.go holds ValidateCountRanges and ValidateOrder
// to the same verdict and the same error text on every input in the
// oracles' domain.

// refValidateCountRanges sorts every grant as a span and walks the spans in
// order of their first count.
func refValidateCountRanges(values []int64, blocks []CountRange) error {
	total := int64(len(values))
	type span struct{ lo, hi int64 } // counts [lo, hi)
	spans := make([]span, 0, len(values)+len(blocks))
	for _, v := range values {
		if v == math.MaxInt64 {
			return fmt.Errorf("countq: count %d overflows", v)
		}
		spans = append(spans, span{v, v + 1})
	}
	for _, b := range blocks {
		if b.N < 1 {
			return fmt.Errorf("countq: block grant of %d counts (want ≥ 1)", b.N)
		}
		if b.First > math.MaxInt64-b.N || b.N > math.MaxInt64-total {
			return fmt.Errorf("countq: block [%d,+%d) overflows", b.First, b.N)
		}
		total += b.N
		spans = append(spans, span{b.First, b.First + b.N})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	next := int64(1) // lowest count not yet accounted for
	for _, s := range spans {
		switch {
		case s.lo < 1 || s.lo > total:
			return fmt.Errorf("countq: count %d outside 1..%d", s.lo, total)
		case s.lo < next:
			return fmt.Errorf("countq: count %d duplicated", s.lo)
		case s.lo > next:
			return fmt.Errorf("countq: count %d missing (gap before %d)", next, s.lo)
		}
		next = s.hi
	}
	return nil
}

// refValidateOrder keeps a set of ids and a predecessor → successor map.
// It does not terminate when an id equals Head (succ[Head] = Head is a
// self-loop), so callers must keep negative ids away from it.
func refValidateOrder(ids, preds []int64) error {
	if len(ids) != len(preds) {
		return fmt.Errorf("countq: %d ids but %d preds", len(ids), len(preds))
	}
	idSet := make(map[int64]bool, len(ids))
	succ := make(map[int64]int64, len(ids))
	for i, id := range ids {
		if idSet[id] {
			return fmt.Errorf("countq: operation id %d duplicated", id)
		}
		idSet[id] = true
		p := preds[i]
		if _, dup := succ[p]; dup {
			return fmt.Errorf("countq: predecessor %d claimed twice", p)
		}
		succ[p] = id
	}
	count := 0
	cur, ok := succ[Head]
	for ok {
		count++
		cur, ok = succ[cur]
	}
	if count != len(ids) {
		return fmt.Errorf("countq: chain covers %d of %d operations", count, len(ids))
	}
	return nil
}
