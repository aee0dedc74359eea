package countq

import (
	"math"
	"strings"
	"testing"
)

func TestValidateCounts(t *testing.T) {
	if err := ValidateCounts([]int64{3, 1, 2}); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := ValidateCounts([]int64{1, 2, 2}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := ValidateCounts([]int64{1, 2, 4}); err == nil {
		t.Error("gap accepted")
	}
}

func TestValidateOrder(t *testing.T) {
	if err := ValidateOrder([]int64{0, 1, 2}, []int64{Head, 0, 1}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if err := ValidateOrder([]int64{0, 1}, []int64{Head, Head}); err == nil {
		t.Error("double head accepted")
	}
	if err := ValidateOrder([]int64{0, 1}, []int64{Head}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestValidateOrderDuplicateIDs: duplicate operation ids must be reported
// as an error — in particular the self-cycle {7,7}/{Head,7}, which once
// made the chain walk spin forever.
func TestValidateOrderDuplicateIDs(t *testing.T) {
	if err := ValidateOrder([]int64{7, 7}, []int64{Head, 7}); err == nil {
		t.Error("duplicated id forming a self-cycle accepted")
	}
	if err := ValidateOrder([]int64{3, 3}, []int64{Head, 3}); err == nil {
		t.Error("duplicated id accepted")
	}
}

// TestValidateOrderAdversarial covers the pathological orderings a buggy
// queuer could emit: predecessor cycles disjoint from the Head chain, and
// operations naming themselves as predecessor.
func TestValidateOrderAdversarial(t *testing.T) {
	// A 2-cycle disjoint from Head: 0 chains from Head, but 1 and 2 point
	// at each other. Every predecessor is distinct, so only the chain-walk
	// coverage check can catch it.
	if err := ValidateOrder([]int64{0, 1, 2}, []int64{Head, 2, 1}); err == nil {
		t.Error("predecessor 2-cycle disjoint from Head accepted")
	}
	// A longer disjoint cycle: 3 -> 4 -> 5 -> 3.
	if err := ValidateOrder(
		[]int64{0, 3, 4, 5},
		[]int64{Head, 5, 3, 4},
	); err == nil {
		t.Error("predecessor 3-cycle disjoint from Head accepted")
	}
	// A self-loop predecessor: operation 9 claims itself — distinct from
	// the Head chain, never reachable, and must not hang the walk.
	if err := ValidateOrder([]int64{0, 9}, []int64{Head, 9}); err == nil {
		t.Error("self-loop predecessor accepted")
	}
	// A self-loop as the only operation (no Head at all).
	if err := ValidateOrder([]int64{4}, []int64{4}); err == nil {
		t.Error("lone self-loop with no Head accepted")
	}
	// Empty histories are trivially valid.
	if err := ValidateOrder(nil, nil); err != nil {
		t.Errorf("empty history rejected: %v", err)
	}
	// A negative id is an error whatever else the input holds. An operation
	// named Head once made the walk spin forever: succ[Head] = Head.
	for _, c := range []struct{ ids, preds []int64 }{
		{[]int64{-1}, []int64{-1}},
		{[]int64{-1, 0}, []int64{Head, -1}},
		{[]int64{-1, 0}, []int64{0, -1}},
		{[]int64{0, math.MinInt64}, []int64{Head, 0}},
		{[]int64{3, 3, -2}, []int64{Head, Head, 3}}, // reported ahead of the duplicate and the double head
	} {
		err := ValidateOrder(c.ids, c.preds)
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("ValidateOrder(%v, %v) = %v, want the negative id reported", c.ids, c.preds, err)
		}
	}
}

func TestValidateCountRanges(t *testing.T) {
	// Singles and blocks tiling 1..9: {1} ∪ [2,5) ∪ {5} ∪ [6,10).
	ok := []int64{1, 5}
	blocks := []CountRange{{First: 2, N: 3}, {First: 6, N: 4}}
	if err := ValidateCountRanges(ok, blocks); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
	// Blocks alone.
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: 4}}); err != nil {
		t.Errorf("pure block grant rejected: %v", err)
	}
	// A block overlapping a single.
	if err := ValidateCountRanges([]int64{2}, []CountRange{{First: 1, N: 2}}); err == nil {
		t.Error("block overlapping a single accepted")
	}
	// Two blocks overlapping each other.
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: 3}, {First: 3, N: 2}}); err == nil {
		t.Error("overlapping blocks accepted")
	}
	// A gap: blocks [1,3) and [4,6) miss count 3.
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: 2}, {First: 4, N: 2}}); err == nil {
		t.Error("gapped blocks accepted")
	}
	// A block reaching past the total.
	if err := ValidateCountRanges([]int64{1}, []CountRange{{First: 3, N: 2}}); err == nil {
		t.Error("block past the total accepted")
	}
	// Degenerate block sizes.
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: 0}}); err == nil {
		t.Error("zero-length block accepted")
	}
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: -2}}); err == nil {
		t.Error("negative-length block accepted")
	}
	// Adversarial totals must yield errors, not huge allocations or
	// overflow panics.
	huge := int64(math.MaxInt64)
	if err := ValidateCountRanges(nil, []CountRange{{First: 1, N: huge}, {First: 1, N: huge}}); err == nil {
		t.Error("overflowing block totals accepted")
	}
	if err := ValidateCountRanges(nil, []CountRange{{First: huge, N: 2}}); err == nil {
		t.Error("block whose end overflows accepted")
	}
	if err := ValidateCountRanges([]int64{huge}, nil); err == nil {
		t.Error("count at MaxInt64 accepted")
	}
	if err := ValidateCountRanges(nil, []CountRange{{First: 5, N: 1 << 40}}); err == nil {
		t.Error("trillion-count block claiming to start mid-range accepted")
	}
	// ValidateCounts delegates: a plain permutation still passes.
	if err := ValidateCounts([]int64{2, 1, 3}); err != nil {
		t.Errorf("ValidateCounts regression: %v", err)
	}
}
