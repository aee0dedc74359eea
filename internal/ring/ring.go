// Package ring provides the repo's one audited single-producer
// single-consumer ring implementation: a bounded, allocation-free SPSC
// ring (SPSC), a single-entry cell (Mailbox), a one-lane-per-producer
// aggregate (Lanes) whose consumer sweeps every lane, or every mailbox,
// only after a producer posted to one since the last sweep, so an idle
// check costs one load, and an eventcount-style park/wake protocol (Event)
// so that consumer can sleep on empty lanes without losing wakeups.
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
//   - Mailbox: like SPSC, with Post on the producer side and Take or
//     Read on the consumer side; see Mailbox for when to post again.
//   - Lanes: registration and Snapshot/Mailboxes may be called from any
//     goroutine (copy-on-write under a mutex). A producer calls Wake after
//     every successful Push, WakeMailbox after every Post; then a consumer
//     that sweeps what every Claim reports misses nothing.
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

// Peek returns the oldest entry without removing it. Consumer-side only:
// the entry stays where it is until the consumer's next Pop or DrainTo,
// so a consumer can act on it first and take it only once that succeeds.
//
//countq:hotpath
//countq:role=consumer
func (r *SPSC[T]) Peek() (T, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		var zero T
		return zero, false
	}
	return r.buf[h&r.mask], true
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

// Mailbox is a single-entry, sequence-numbered cell from one producer to
// one consumer: a bounded queue of capacity one, all that a conversation
// with one value in flight needs. Post writes the value, then its
// sequence. The consumer either takes each new value once (Take, which
// publishes its sequence as Taken; the producer posts again only once the
// last value is taken), or reads only the value posted under the sequence
// it expects (Read; the producer may overwrite any other, but not that
// one while it is read). Pads keep the sequence and value, and the
// consumer's taken sequence, off every other field's cache lines.
type Mailbox[T any] struct {
	_     [64]byte
	seq   atomic.Uint64
	val   T
	_     [64]byte
	taken atomic.Uint64
	_     [56]byte
}

// Post publishes v under seq, which must exceed every sequence posted
// before (a fresh mailbox holds the zero value under 0).
//
//countq:hotpath
//countq:role=producer
func (m *Mailbox[T]) Post(seq uint64, v T) {
	m.val = v
	m.seq.Store(seq)
}

// Take returns the posted value and its sequence if it is newer than the
// last one taken, and records it as taken.
//
//countq:hotpath
//countq:role=consumer
func (m *Mailbox[T]) Take() (seq uint64, v T, ok bool) {
	if seq = m.seq.Load(); seq > m.taken.Load() {
		v, ok = m.val, true
		m.taken.Store(seq)
	}
	return seq, v, ok
}

// Read returns the value posted under seq, if that is the one posted now.
//
//countq:hotpath
//countq:role=consumer
func (m *Mailbox[T]) Read(seq uint64) (v T, ok bool) {
	if m.seq.Load() == seq {
		v, ok = m.val, true
	}
	return v, ok
}

// Taken reports the sequence of the last value Take returned.
//
//countq:hotpath
func (m *Mailbox[T]) Taken() uint64 { return m.taken.Load() }

// Lanes is the one-lane-per-producer aggregate: each producer publishes
// into a private SPSC lane or Mailbox, and one consumer sweeps a
// copy-on-write snapshot of all lanes or all mailboxes without taking the
// registration lock. The embedded Event lets the consumer park between
// sweeps; producers wake it after publishing.
//
// The posted mark lets the consumer skip a sweep that would find nothing:
// Wake sets its lane bit after the producer's Push, WakeMailbox its
// mailbox bit after a Post, and Claim clears it before the consumer's
// sweep, so one load of the mark answers "did anyone publish since I last
// looked" however many lanes and mailboxes are registered, and the bits
// say which set to sweep. It sits next to Event.parked, which the wakes
// load anyway, so a wake still touches one cache line (the 16-byte block
// holding the two words never straddles a line; TestLanesMarkLayout checks
// it by address).
type Lanes[T any] struct {
	regMu  sync.Mutex
	set    atomic.Pointer[[]*SPSC[T]]
	posted atomic.Uint32
	ev     Event
	boxes  atomic.Pointer[[]*Mailbox[T]]
}

const postedLane, postedMailbox uint32 = 1, 2 // the posted mark's bits

// NewLanes builds an empty aggregate.
func NewLanes[T any]() *Lanes[T] {
	l := &Lanes[T]{}
	lanes, boxes := make([]*SPSC[T], 0), make([]*Mailbox[T], 0)
	l.set.Store(&lanes)
	l.boxes.Store(&boxes)
	l.ev.Init()
	return l
}

// NewLane registers and returns a fresh lane of the given capacity.
// Lanes are swept in registration order, which is what makes a sweep
// deterministic for a fixed producer set.
func (l *Lanes[T]) NewLane(capacity int) *SPSC[T] {
	lane := New[T](capacity)
	register(&l.regMu, &l.set, lane, nil)
	return lane
}

// Remove unregisters a lane so producer after producer of a phased
// workload does not grow the sweep set without bound. Entries still
// buffered in the lane are the caller's to settle.
func (l *Lanes[T]) Remove(lane *SPSC[T]) { register(&l.regMu, &l.set, nil, lane) }

// AddMailbox registers box, swept in registration order like the lanes.
// The caller allocates it, so it can place it where its lines fall.
func (l *Lanes[T]) AddMailbox(box *Mailbox[T]) { register(&l.regMu, &l.boxes, box, nil) }

// RemoveMailbox unregisters a mailbox, like Remove a lane.
func (l *Lanes[T]) RemoveMailbox(box *Mailbox[T]) { register(&l.regMu, &l.boxes, nil, box) }

// register replaces the set with a copy that lacks drop and ends with add
// (either may be nil).
func register[E any](mu *sync.Mutex, set *atomic.Pointer[[]*E], add, drop *E) {
	mu.Lock()
	next := make([]*E, 0, len(*set.Load())+1)
	for _, e := range *set.Load() {
		if e != drop {
			next = append(next, e)
		}
	}
	if add != nil {
		next = append(next, add)
	}
	set.Store(&next)
	mu.Unlock()
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

// Mailboxes returns the current mailbox set, immutable like Snapshot's.
//
//countq:hotpath
//countq:role=consumer
func (l *Lanes[T]) Mailboxes() []*Mailbox[T] { return *l.boxes.Load() }

// Wake posts the lane bit and signals the parked consumer; producers call
// it after every successful Push.
//
//countq:hotpath
//countq:role=producer
func (l *Lanes[T]) Wake() { l.post(postedLane) }

// WakeMailbox posts the mailbox bit and signals the parked consumer;
// producers call it after every Post to a registered mailbox.
//
//countq:hotpath
//countq:role=producer
func (l *Lanes[T]) WakeMailbox() { l.post(postedMailbox) }

// post sets bit in the mark and wakes the consumer. The mark is loaded
// before it is written, so a burst of publishes writes the line once per
// sweep, not once per item.
//
//countq:hotpath
//countq:role=producer
func (l *Lanes[T]) post(bit uint32) {
	for p := l.posted.Load(); p&bit == 0 && !l.posted.CompareAndSwap(p, p|bit); p = l.posted.Load() {
	}
	l.ev.Wake()
}

// Claim clears the posted mark and reports which sets a producer posted
// to since the last Claim, i.e. which sweeps can find anything; a set it
// reports must be swept whole, since the mark does not say which lane or
// mailbox was published to. Reporting neither costs one load.
//
// Nothing published is skipped. Go's atomics are sequentially consistent,
// and each side orders its two accesses the other way round: a producer
// stores the lane's tail (Push) or the mailbox's sequence (Post), then
// loads the mark (the wake); the consumer clears the mark (here, one swap
// that returns every bit it clears), then loads the tails or sequences
// (the sweep). Take one item and the mark load L of the wake after it. If
// L finds the item's bit set, the next swap after L returns it; if not,
// the producer sets it after L and the next swap after that returns it.
// Either way the sweep of the item's set follows a swap that comes after
// the item, and takes it.
//
// The same pair of orderings keeps parking lossless when the consumer's
// re-check between Prepare and WakeChan starts with Claim: a wake touches
// the mark and then loads Event.parked, Prepare stores parked and then
// Claim loads the mark. Either the wake sees the flag and signals, or the
// re-check's Claim sees the mark and sweeps.
//
//countq:hotpath
//countq:role=consumer
func (l *Lanes[T]) Claim() (lanes, mailboxes bool) {
	if l.posted.Load() == 0 {
		return false, false
	}
	p := l.posted.Swap(0)
	return p&postedLane != 0, p&postedMailbox != 0
}

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
