package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestScheduleValidates(t *testing.T) {
	for _, bad := range [][]sim.Arrival{
		{{Node: 4, Time: 0}},
		{{Node: -1, Time: 0}},
		{{Node: 0, Time: -1}},
	} {
		if _, err := sim.NewSchedule(4, bad); err == nil {
			t.Errorf("arrival %+v accepted on 4 nodes", bad[0])
		}
	}
}

// TestScheduleDueOrder asks the way the engine does — every node, every
// round, ascending — and requires each operation exactly once, at its node
// in its round, same-node same-round operations in slice order.
func TestScheduleDueOrder(t *testing.T) {
	arrivals := []sim.Arrival{
		{Node: 2, Time: 3}, {Node: 0, Time: 0}, {Node: 2, Time: 0}, {Node: 2, Time: 3},
		{Node: 1, Time: 3}, {Node: 2, Time: 0}, {Node: 0, Time: 5}, {Node: 2, Time: 3},
	}
	s, err := sim.NewSchedule(3, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if s.PendingUntil() != 5 {
		t.Errorf("PendingUntil = %d, want 5", s.PendingUntil())
	}
	type slot struct{ round, node int }
	got := map[slot][]int{}
	for round := 0; round <= 6; round++ {
		for node := 0; node < 3; node++ {
			if due := s.Due(round, node); len(due) > 0 {
				got[slot{round, node}] = append([]int(nil), due...)
			}
		}
	}
	want := map[slot][]int{
		{0, 0}: {1}, {0, 2}: {2, 5}, {3, 1}: {4}, {3, 2}: {0, 3, 7}, {5, 0}: {6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("due operations by (round, node) = %v, want %v", got, want)
	}
}
