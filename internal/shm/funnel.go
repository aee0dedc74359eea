package shm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// FunnelCounter is a combining funnel (Shavit & Zemach): operations fall
// through layers of rendezvous slots, and when two meet in a slot one
// captures the other — the captive waits, the captor carries the combined
// increment onward. Whoever reaches the bottom applies its whole batch
// with a single fetch-and-add and distributes sub-ranges back up the
// capture tree. Under contention the hot word absorbs one RMW per batch.
//
// The rendezvous is lock-free (see slot) and its wait is adaptive (see
// waitRange): every pooled operation record carries a poll budget that
// partners raise and timeouts lower, so an operation that has been
// meeting nobody stops parking — it still captures whoever it finds — and
// costs a pool round trip, one load per layer and the fetch-and-add. It
// starts parking again when that fetch-and-add collides with another.
//
// Unlike the counting network and the sharded counter, the funnel is
// linearizable: a batch's fetch-and-add happens after every member of the
// batch has parked, hence started, and an operation that never parked is
// a bare fetch-and-add, so real-time order is preserved.
type FunnelCounter struct {
	_      [64]byte
	v      atomic.Int64
	_      [56]byte // the hot word owns its cache line
	layers [][]slot[funnelOp]
	ops    sync.Pool // recycled funnelOps: steady-state Inc allocates nothing
	waitRange
}

// funnelOp is one operation's combining record: its own increment plus
// everything it has captured on the way down. Records are pooled, so the
// slot-choice state, the wait budget and the two counts (what the tests
// sum, and the seed of a Stats snapshot) belong to whichever goroutine
// holds the record — single-writer, no shared write.
type funnelOp struct {
	got      delivery // the exclusive base of the assigned range
	count    int64
	children []*funnelOp
	rng      uint64   // xorshift state for slot choice
	wait     int      // poll budget of the next park, in [0, spin]
	parks    int64    // slot writes: times an operation parked
	adds     int64    // fetch-and-adds applied to the shared word
	_        [56]byte // two cache lines: a captor's send never lands on a neighbour
}

var funnelSeed atomic.Uint64

// NewFunnelCounter builds a combining funnel. width is the top layer's
// slot count (default max(1, GOMAXPROCS/2)); each deeper of the depth
// layers (default 2) halves it; spin is the ceiling of the adaptive wait:
// the most polls an operation spends in a slot waiting for a partner
// before moving on (default 32).
func NewFunnelCounter(width, depth, spin int) (*FunnelCounter, error) {
	if width < 0 || depth < 0 || spin < 0 {
		return nil, fmt.Errorf("shm: funnel parameters must be non-negative, got width=%d depth=%d spin=%d", width, depth, spin)
	}
	if width == 0 {
		width = runtime.GOMAXPROCS(0) / 2
		if width < 1 {
			width = 1
		}
	}
	if depth == 0 {
		depth = 2
	}
	if spin == 0 {
		spin = 32
	}
	f := &FunnelCounter{waitRange: waitRange{spin: spin}, layers: make([][]slot[funnelOp], depth)}
	for l := range f.layers {
		w := width >> uint(l)
		if w < 1 {
			w = 1
		}
		f.layers[l] = make([]slot[funnelOp], w)
	}
	f.ops.New = func() interface{} {
		// A record captures at most once per layer, so children never
		// grows. A fresh record knows nothing about the load yet: it
		// starts at the ceiling and pays log2(spin)+1 parks to find out.
		return &funnelOp{
			children: make([]*funnelOp, 0, depth),
			rng:      funnelSeed.Add(1) * 0x9e3779b97f4a7c15,
			wait:     f.spin,
		}
	}
	return f, nil
}

// Inc implements Counter.
//
//countq:hotpath clocks=0
func (f *FunnelCounter) Inc() int64 {
	op := f.ops.Get().(*funnelOp)
	v := f.inc(op)
	f.ops.Put(op)
	return v
}

// inc runs one operation on the record op. The record is the caller's
// again on return: a captor stops touching a child the moment it has sent
// the child's base (see deliver), and a carrier's own record was
// withdrawn from every slot it parked in.
//
//countq:hotpath clocks=0
func (f *FunnelCounter) inc(op *funnelOp) int64 {
	op.count = 1
	op.children = op.children[:0]
	for _, layer := range f.layers {
		s := &layer[op.pick(len(layer))]
		if w := s.capture(); w != nil {
			// Carry the parked operation's batch down.
			op.children = append(op.children, w)
			op.count += w.count
			op.wait = f.met(op.wait)
			continue
		}
		if op.wait == 0 || !s.park(op) {
			continue
		}
		op.parks++
		base, met := s.wait(op, &op.got, op.wait)
		if !met {
			// No partner showed up: keep falling.
			op.wait = f.missed(op.wait)
			continue
		}
		// Captured: the captor's batch delivered our range.
		op.wait = f.met(op.wait)
		return op.deliver(base)
	}
	// Reached the bottom as a carrier: apply the whole batch at once. An
	// operation that has stopped parking also checks whether anyone else
	// moved the word between its load and its add — the one sign of
	// company a bare fetch-and-add can see without a new shared write.
	var before int64
	if op.wait == 0 {
		before = f.v.Load()
	}
	base := f.v.Add(op.count) - op.count
	op.adds++
	if op.wait == 0 && base != before {
		op.wait = 1
	}
	return op.deliver(base)
}

// pick draws a slot index in [0, n) from the record's own generator.
func (op *funnelOp) pick(n int) int {
	x := op.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	op.rng = x
	return int((x >> 32) * uint64(n) >> 32)
}

// deliver hands the half-open count range (base, base+op.count] to the
// operation and its capture tree, returning the operation's own count.
func (op *funnelOp) deliver(base int64) int64 {
	cur := base + 1 // op takes the first count itself
	for _, ch := range op.children {
		// Read the child's count BEFORE handing it its base: the moment the
		// send lands, the child's owner may finish and recycle ch.
		n := ch.count
		ch.got.send(cur)
		cur += n
	}
	return base + 1
}
