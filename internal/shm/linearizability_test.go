package shm

import "testing"

func TestCheckLinearizableAccepts(t *testing.T) {
	spans := []Span{
		{Start: 1, End: 2, Value: 1},
		{Start: 3, End: 4, Value: 2},
		{Start: 3, End: 5, Value: 3}, // concurrent with the previous: fine
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Error(err)
	}
}

func TestCheckLinearizableRejects(t *testing.T) {
	spans := []Span{
		{Start: 1, End: 2, Value: 5}, // completed with value 5...
		{Start: 3, End: 4, Value: 1}, // ...then a later op returned 1
	}
	if err := CheckLinearizable(spans); err == nil {
		t.Error("real-time inversion accepted")
	}
}

func TestAtomicCounterLinearizable(t *testing.T) {
	spans := RecordSpans(NewAtomicCounter(), 8, 500)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("atomic counter: %v", err)
	}
}

func TestMutexCounterLinearizable(t *testing.T) {
	spans := RecordSpans(NewMutexCounter(), 8, 500)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("mutex counter: %v", err)
	}
}

func TestCombiningCounterLinearizable(t *testing.T) {
	// Flat combining applies batched operations inside one combiner
	// critical section; each response is handed out after its increment
	// took effect, so real-time order is preserved.
	spans := RecordSpans(NewCombiningCounter(64), 8, 300)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("combining counter: %v", err)
	}
}

func TestNetworkCounterQuiescentButMaybeNotLinearizable(t *testing.T) {
	// Counting networks guarantee quiescent consistency, not
	// linearizability: a token overtaken inside the network can return a
	// smaller count after a larger one completed. The validity
	// (permutation) property must hold regardless; linearizability is
	// reported but not required.
	nc, err := NewNetworkCounter(8)
	if err != nil {
		t.Fatal(err)
	}
	spans := RecordSpans(nc, 8, 500)
	vals := make([]int64, len(spans))
	for i, s := range spans {
		vals[i] = s.Value
	}
	if err := ValidateCounts(vals); err != nil {
		t.Fatalf("network counter validity: %v", err)
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Logf("expected behavior (quiescent consistency only): %v", err)
	} else {
		t.Log("no linearizability violation observed in this run (the property is not guaranteed either way)")
	}
}

func TestDiffractingCounterValiditySpans(t *testing.T) {
	for _, mode := range waitModes {
		spans := RecordSpans(newTestDiffracting(t, 8, 16, mode.pinned), 8, 300)
		vals := make([]int64, len(spans))
		for i, s := range spans {
			vals[i] = s.Value
		}
		if err := ValidateCounts(vals); err != nil {
			t.Fatalf("%s diffracting validity: %v", mode.name, err)
		}
	}
}
