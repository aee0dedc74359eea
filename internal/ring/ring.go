// Package ring provides the repo's one audited single-producer
// single-consumer ring implementation: a bounded, allocation-free SPSC
// ring (SPSC), a multi-lane one-lane-per-producer aggregate (Lanes) whose
// consumer sweeps every lane with a batched drain, and an eventcount-style
// park/wake protocol (Event) so that consumer can sleep on empty lanes
// without losing wakeups.
//
// The design follows the memory-bounded discipline of Aksenov et al.'s
// memory-optimal bounded queues (arXiv:2104.15003, PAPERS.md): every lane
// is a fixed circular buffer sized at construction, producers never
// allocate on the hot path, and consumed slots are zeroed so a drained
// ring pins no references for the garbage collector. Both transport
// layers in the repo ride this package: the sim bridge's session↔pump
// lanes (internal/sim/bridge.go) and the flat-combining slot array of the
// native-async shared-memory backends (internal/shm/async.go).
//
// Concurrency contract:
//
//   - SPSC: exactly one goroutine calls Push, exactly one calls Pop or
//     DrainTo, at any point in time. The roles may migrate (e.g. a pump
//     handing its consumer role to Close after it exits) as long as the
//     handoff itself synchronizes.
//   - Lanes: NewLane/Remove/Snapshot may be called from any goroutine
//     (registration is copy-on-write under a mutex); each returned lane
//     then follows the SPSC contract.
//   - Event: one consumer parks (Prepare/WakeChan/Unpark); any number of
//     producers call Wake. Wakeups are never lost if the consumer
//     re-checks for work between Prepare and blocking on WakeChan;
//     spurious wakeups are possible and must be tolerated.
package ring

import (
	"sync"
	"sync/atomic"
)

// SPSC is a bounded single-producer single-consumer ring. The buffer is
// rounded up to a power of two internally but the logical capacity is
// exactly the one requested. The zero value is not usable; call New.
type SPSC[T any] struct {
	buf  []T
	mask int64
	capv int64
	// The producer owns tail, the consumer owns head; the padding keeps
	// the two cursors (and neighbouring rings' cursors) off one cache
	// line so producer and consumer do not false-share.
	_    [64]byte
	head atomic.Int64
	_    [56]byte
	tail atomic.Int64
	_    [56]byte
}

// New builds a ring holding up to capacity entries. capacity must be ≥ 1.
func New[T any](capacity int) *SPSC[T] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: int64(n - 1), capv: int64(capacity)}
}

// Push appends v; it reports false when the ring is full. Producer-side
// only.
//
//countq:hotpath
//countq:role=producer
func (r *SPSC[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= r.capv {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest entry, zeroing its slot so the ring
// never pins consumed references. Consumer-side only. Like DrainTo it
// reads the cursors before it declares anything slot-sized: the zero value
// used to clear a slot belongs to the non-empty path, so polling an empty
// ring of a large T costs two loads, not a stack clear as well.
//
//countq:hotpath
//countq:role=consumer
func (r *SPSC[T]) Pop() (T, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		var zero T
		return zero, false
	}
	var zero T
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// DrainTo appends every entry published before the call to buf and
// returns the extended slice, zeroing the consumed slots and advancing
// head once for the whole batch — the consumer's amortized sweep path.
// Consumer-side only.
//
//countq:hotpath
//countq:role=consumer
func (r *SPSC[T]) DrainTo(buf []T) []T {
	h, t := r.head.Load(), r.tail.Load()
	if h == t {
		return buf
	}
	var zero T
	for i := h; i < t; i++ {
		buf = append(buf, r.buf[i&r.mask])
		r.buf[i&r.mask] = zero
	}
	r.head.Store(t)
	return buf
}

// Len reports how many entries are currently buffered. Racy by nature;
// exact only from the consumer side.
//
//countq:hotpath
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Empty reports whether nothing is buffered: two cursor loads and nothing
// else, which is what a consumer sweeping many idle lanes should pay per
// lane. Racy like Len; a false "empty" only defers the entry to the next
// sweep.
//
//countq:hotpath
func (r *SPSC[T]) Empty() bool {
	return r.head.Load() == r.tail.Load()
}

// Cap reports the logical capacity.
func (r *SPSC[T]) Cap() int { return int(r.capv) }

// Event is an eventcount-style park/wake cell: a parked flag plus a
// one-slot signal channel. The consumer announces intent to sleep with
// Prepare, re-checks for work, then blocks on WakeChan; a producer that
// publishes work calls Wake, which signals only when a consumer is (or
// was) parked — the uncontended fast path is one atomic load.
//
// The ordering that makes wakeups lossless: Prepare drains a stale signal
// BEFORE setting the parked flag (draining after could eat the token a
// racing producer just sent for this very park), and Wake sends its token
// only after winning the CAS on the flag, so at most one token per park
// epoch is in flight and the channel's single slot never drops a needed
// signal.
type Event struct {
	parked atomic.Uint32
	ch     chan struct{}
}

// Init prepares the event's signal channel. Must be called once before
// use (Event is embedded by value in larger structs, so there is no
// constructor returning it by value).
func (e *Event) Init() {
	e.ch = make(chan struct{}, 1)
}

// Wake signals a parked consumer, if any. Producer-side; safe from many
// goroutines. The fast path — nobody parked — is a single atomic load.
//
//countq:hotpath
//countq:role=producer
func (e *Event) Wake() {
	if e.parked.Load() == 0 {
		return
	}
	if !e.parked.CompareAndSwap(1, 0) {
		return // another producer won this epoch's signal
	}
	select {
	case e.ch <- struct{}{}:
	default:
		// A stale token from an abandoned park is still buffered; it will
		// wake the consumer just the same.
	}
}

// Prepare announces the consumer's intent to park. After Prepare the
// consumer MUST re-check its work sources before blocking on WakeChan
// (work published before the parked flag was visible produced no signal),
// and call Unpark if it decides not to block.
//
//countq:role=consumer
func (e *Event) Prepare() {
	// Drain any stale token first: doing it after Store could consume the
	// signal a producer sends for this park (its CAS already flipped the
	// flag back, so no second signal would come).
	select {
	case <-e.ch:
	default:
	}
	e.parked.Store(1)
}

// WakeChan is the channel the prepared consumer blocks on, exposed so it
// can be combined in a select with shutdown or timeout channels.
//
//countq:role=consumer
func (e *Event) WakeChan() <-chan struct{} {
	return e.ch
}

// Unpark retracts a Prepare without blocking — the consumer found work on
// its re-check, or is leaving the wait for another reason. A token a
// producer sent meanwhile stays buffered and is drained by the next
// Prepare.
//
//countq:role=consumer
func (e *Event) Unpark() {
	e.parked.Store(0)
}

// Lanes is the one-lane-per-producer aggregate: each producer publishes
// into a private SPSC lane, and one consumer sweeps a copy-on-write
// snapshot of all lanes without taking the registration lock. The
// embedded Event lets the consumer park between sweeps; producers wake it
// after publishing.
type Lanes[T any] struct {
	regMu sync.Mutex
	set   atomic.Pointer[[]*SPSC[T]]
	ev    Event
}

// NewLanes builds an empty aggregate.
func NewLanes[T any]() *Lanes[T] {
	l := &Lanes[T]{}
	empty := make([]*SPSC[T], 0)
	l.set.Store(&empty)
	l.ev.Init()
	return l
}

// NewLane registers and returns a fresh lane of the given capacity.
// Lanes are swept in registration order, which is what makes a sweep
// deterministic for a fixed producer set.
func (l *Lanes[T]) NewLane(capacity int) *SPSC[T] {
	lane := New[T](capacity)
	l.regMu.Lock()
	old := *l.set.Load()
	next := make([]*SPSC[T], len(old)+1)
	copy(next, old)
	next[len(old)] = lane
	l.set.Store(&next)
	l.regMu.Unlock()
	return lane
}

// Remove unregisters a lane so producer after producer of a phased
// workload does not grow the sweep set without bound. Entries still
// buffered in the lane are the caller's to settle.
func (l *Lanes[T]) Remove(lane *SPSC[T]) {
	l.regMu.Lock()
	old := *l.set.Load()
	next := make([]*SPSC[T], 0, len(old))
	for _, s := range old {
		if s != lane {
			next = append(next, s)
		}
	}
	l.set.Store(&next)
	l.regMu.Unlock()
}

// Snapshot returns the current lane set. The slice is immutable — a
// registration replaces it wholesale — so the consumer iterates it with
// no lock and no copy.
//
//countq:hotpath
//countq:role=consumer
func (l *Lanes[T]) Snapshot() []*SPSC[T] {
	return *l.set.Load()
}

// Wake signals the parked consumer; producers call it after Push.
//
//countq:hotpath
//countq:role=producer
func (l *Lanes[T]) Wake() { l.ev.Wake() }

// Prepare announces the consumer's intent to park; see Event.Prepare.
//
//countq:role=consumer
func (l *Lanes[T]) Prepare() { l.ev.Prepare() }

// WakeChan is the parked consumer's signal channel; see Event.WakeChan.
//
//countq:role=consumer
func (l *Lanes[T]) WakeChan() <-chan struct{} { return l.ev.WakeChan() }

// Unpark retracts a Prepare; see Event.Unpark.
//
//countq:role=consumer
func (l *Lanes[T]) Unpark() { l.ev.Unpark() }
