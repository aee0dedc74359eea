// Package counting implements distributed counting protocols on the
// synchronous network simulator: a central counter, an aggregating
// spanning-tree counter, and a bitonic counting network (Aspnes, Herlihy,
// Shavit) embedded on the graph.
//
// In distributed counting, a set R of processors issue operations at time
// zero and the counts received must be exactly {1, …, |R|} (Section 2.2 of
// Busch & Tirthapura). The counting delay of an operation is the round in
// which the issuing processor receives its count; experiments compare the
// total delay of these protocols against the paper's lower bounds
// (Theorems 3.5 and 3.6).
package counting

import "fmt"

// Message kinds of the protocols in this package. Kind 1 is the request of
// the central protocol (sim.Central), whose grant is kind 2 as well.
const (
	kindGrant = iota + 2 // A = origin, B = count
	kindUp               // A = subtree request count, or combined amount
	kindDown             // A = first rank for the receiving subtree, or exclusive start of its interval; B = the interval's width
	kindToken            // A = origin, B = layer, C = wire
)

// Results is the read-side of a finished counting protocol run.
type Results interface {
	// Count returns the count received by v's operation, or 0 if v did
	// not issue one (counts are 1-based).
	Count(v int) int
	// Delay returns the round in which v received its count, or -1.
	Delay(v int) int
	// Requests reports the request vector the run was configured with.
	Requests() []bool
}

// Validate checks the correctness condition of distributed counting: the
// requests received exactly the counts {1, …, |R|}, and non-requesting nodes
// received none.
func Validate(r Results) error {
	req := r.Requests()
	total := 0
	for _, b := range req {
		if b {
			total++
		}
	}
	seen := make([]bool, total+1)
	for v, b := range req {
		c := r.Count(v)
		switch {
		case !b:
			if c != 0 {
				return fmt.Errorf("counting: non-requester %d received count %d", v, c)
			}
		case c < 1 || c > total:
			return fmt.Errorf("counting: node %d received count %d outside 1..%d", v, c, total)
		case seen[c]:
			return fmt.Errorf("counting: count %d received twice", c)
		default:
			seen[c] = true
			if r.Delay(v) < 0 {
				return fmt.Errorf("counting: node %d has count but no delay", v)
			}
		}
	}
	return nil
}

// TotalDelay sums the delays of all requests — the concurrent delay
// complexity realized on this request set.
func TotalDelay(r Results) int {
	total := 0
	for v, b := range r.Requests() {
		if b {
			total += r.Delay(v)
		}
	}
	return total
}

// MaxDelay returns the largest single-operation delay.
func MaxDelay(r Results) int {
	max := 0
	for v, b := range r.Requests() {
		if b && r.Delay(v) > max {
			max = r.Delay(v)
		}
	}
	return max
}

// countRequests is a helper shared by the protocol constructors.
func countRequests(requests []bool) int {
	n := 0
	for _, b := range requests {
		if b {
			n++
		}
	}
	return n
}
