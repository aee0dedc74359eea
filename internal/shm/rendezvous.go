package shm

import (
	"math"
	"runtime"
	"sync/atomic"
)

// slot is the one-place lock-free rendezvous the combining funnel and the
// diffracting prism share. At most one record is parked in it, and every
// transition is a single CAS: park nil→r, capture r→nil by a partner,
// withdraw r→nil by the owner. A failed withdraw therefore *is* the
// notification "a partner captured you". A recycled record re-parked in
// the slot it once left (ABA) is harmless: a capture that succeeds against
// it finds a record that really is parked, and the capturing CAS orders
// the captor's reads after everything the owner wrote before parking.
type slot[T any] struct {
	w atomic.Pointer[T]
	_ [56]byte // a slot owns its cache line
}

func (s *slot[T]) park(r *T) bool     { return s.w.CompareAndSwap(nil, r) }
func (s *slot[T]) withdraw(r *T) bool { return s.w.CompareAndSwap(r, nil) }

// wait is what the owner of the parked record r does next: poll r's
// delivery word got up to polls times, then withdraw. met is false when
// the withdrawal succeeded — nobody came; otherwise v is what the captor
// delivered, waited for without limit if the capture came after the last
// poll.
func (s *slot[T]) wait(r *T, got *delivery, polls int) (v int64, met bool) {
	if v, met = got.await(polls); !met && !s.withdraw(r) {
		v, met = got.await(forever)
	}
	return v, met
}

// capture removes and returns the parked record, or nil when the slot is
// empty or another goroutine got there first.
func (s *slot[T]) capture() *T {
	if w := s.w.Load(); w != nil && s.w.CompareAndSwap(w, nil) {
		return w
	}
	return nil
}

// delivery is the word a parked record's owner polls: zero while pending,
// 1+v once the captor has handed over v. A captor sends exactly once per
// capture and stops touching the record the moment it has.
type delivery struct{ w atomic.Int64 }

func (d *delivery) send(v int64) { d.w.Store(1 + v) }

const (
	// pollsPerYield is how often a waiter gives up its P: a captor may be
	// runnable only on the P the waiter is spinning on (GOMAXPROCS=1, or
	// more goroutines than Ps), so an unyielding poll would wait for the
	// preemption tick instead of for the partner.
	pollsPerYield = 8
	// forever is the poll budget of a captured record: its value is
	// coming, however long the captor takes to reach the bottom.
	forever = math.MaxInt
)

// await polls for the delivered value at most polls times and re-arms the
// word for the record's next use once it has arrived.
func (d *delivery) await(polls int) (v int64, ok bool) {
	for i := 1; i <= polls; i++ {
		if v := d.w.Load(); v != 0 {
			d.w.Store(0)
			return v - 1, true
		}
		if i%pollsPerYield == 0 {
			runtime.Gosched()
		}
	}
	return 0, false
}

// waitRange is the adaptive wait policy: a budget of polls that doubles
// when a rendezvous is met and halves when a park times out, so a slot
// costs what it finds. spin is the ceiling — the structure's declared
// parameter — and at budget 0 nothing parks at all; the owner re-arms the
// budget to 1 when its own read-modify-write shows interference. floor is
// zero outside tests, which raise it to spin to pin the wait at its
// ceiling so the rendezvous paths stay reachable.
type waitRange struct{ floor, spin int }

func (r waitRange) met(budget int) int    { return min(max(2*budget, 1), r.spin) }
func (r waitRange) missed(budget int) int { return max(budget/2, r.floor) }
