package sim

import (
	"fmt"
	"sort"
)

// Arrival is one operation of a scheduled execution: node Node issues it in
// round Time. Operation identifiers are indices into the arrival slice.
type Arrival struct {
	Node, Time int
}

// Schedule feeds a scheduled protocol its arrivals as their rounds come up.
// The protocol asks for a node's due operations from Start (round 0) and
// from Tick, and reports PendingUntil so the network keeps running until
// the last arrival. It must be a plain Ticker: the engine then asks for
// every node in every round, in ascending (round, node) order, which is the
// order the schedule hands operations out in — one cursor, no search.
type Schedule struct {
	arrivals []Arrival
	byTime   []int // operation ids by (Time, Node, id)
	next     int   // first entry of byTime not yet handed out
	last     int   // latest arrival time
}

// NewSchedule validates arrivals against an n-node network and indexes them.
// The slice is kept, not copied. Errors carry no package prefix: the
// protocol holding the schedule wraps them under its own name.
func NewSchedule(n int, arrivals []Arrival) (Schedule, error) {
	s := Schedule{arrivals: arrivals, byTime: make([]int, len(arrivals))}
	for op, a := range arrivals {
		if a.Node < 0 || a.Node >= n {
			return s, fmt.Errorf("request %d node %d out of range", op, a.Node)
		}
		if a.Time < 0 {
			return s, fmt.Errorf("request %d time %d negative", op, a.Time)
		}
		if a.Time > s.last {
			s.last = a.Time
		}
		s.byTime[op] = op
	}
	sort.SliceStable(s.byTime, func(i, j int) bool {
		a, b := arrivals[s.byTime[i]], arrivals[s.byTime[j]]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Node < b.Node
	})
	return s, nil
}

// Due returns the operations node issues in round, in slice order — the
// documented issue order for one node in one round. The result aliases the
// schedule's index; callers only read it.
//
//countq:hotpath
func (s *Schedule) Due(round, node int) []int {
	from := s.next
	for s.next < len(s.byTime) {
		if a := s.arrivals[s.byTime[s.next]]; a.Time != round || a.Node != node {
			break
		}
		s.next++
	}
	return s.byTime[from:s.next]
}

// PendingUntil implements Scheduler for the protocol that holds the
// schedule.
func (s *Schedule) PendingUntil() int { return s.last }
