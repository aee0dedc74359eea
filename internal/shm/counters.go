// Package shm reproduces the paper's thesis — counting is harder than
// queuing — on a real parallel substrate: goroutines over shared memory.
//
// The counting side offers a plain atomic fetch-and-increment, a mutex
// counter, a flat-combining counter (batching concurrent increments, in the
// spirit of software combining trees), a combining-funnel variant, a
// bitonic counting network with per-balancer locks, a diffracting tree,
// and a sharded per-P counter with leased count blocks. The queuing side
// is the telling contrast: learning your predecessor needs a single atomic
// swap (the "distributed swap" of Herlihy, Tirthapura and Wattenhofer),
// with no validation, no retry and no multi-location coordination.
//
// Every structure is a native countq.Structure: NewSession hands each
// worker a session that calls the structure's own Inc / IncN / Enqueue
// directly (sessions.go; sharded's session is its per-worker lease). Two
// structures are asynchronous by construction: "async-funnel", a combining
// counter whose flat-combining engine batches submitted increments and
// completes them on a shared channel, and "elim", an elimination/back-off
// queue whose enqueues either combine with a concurrent partner or fall
// back to the swap path. Both declare CapAsync and accept pipeline=
// (completion-ring depth) and spin= (combiner back-off) parameters; under
// open arrivals they show what native pipelining buys on corrected tail
// latency.
//
// Every implementation registers itself with the public repro/countq
// registry on import (see register.go), so importing this package for its
// side effects makes the whole zoo constructible by spec via
// countq.NewStructure.
package shm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/countq"
	"repro/internal/counting"
)

// Counter hands out distinct counts 1, 2, 3, … to concurrent callers. It
// is an alias of the public countq.Counter, the direct-call view every
// synchronous counter here also offers.
type Counter = countq.Counter

// AtomicCounter is the hardware fetch-and-increment baseline.
type AtomicCounter struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte // the hot word owns its cache line
}

// NewAtomicCounter returns a counter backed by a single atomic word.
func NewAtomicCounter() *AtomicCounter { return &AtomicCounter{} }

// Inc implements Counter.
//
//countq:hotpath clocks=0
func (c *AtomicCounter) Inc() int64 { return c.v.Add(1) }

// IncN grants a block in one fetch-and-add: the counts first..first+n-1.
//
//countq:hotpath clocks=0
func (c *AtomicCounter) IncN(n int64) int64 { return c.v.Add(n) - n + 1 }

// MutexCounter serializes increments behind a mutex.
type MutexCounter struct {
	_  [64]byte
	mu sync.Mutex
	v  int64
	_  [56]byte // the lock and its word own their cache line
}

// NewMutexCounter returns a mutex-protected counter.
func NewMutexCounter() *MutexCounter { return &MutexCounter{} }

// Inc implements Counter.
//
//countq:hotpath clocks=0
func (c *MutexCounter) Inc() int64 {
	c.mu.Lock()
	c.v++
	v := c.v
	c.mu.Unlock()
	return v
}

// IncN grants a block in one critical section: the counts first..first+n-1.
//
//countq:hotpath clocks=0
func (c *MutexCounter) IncN(n int64) int64 {
	c.mu.Lock()
	c.v += n
	first := c.v - n + 1
	c.mu.Unlock()
	return first
}

// CombiningCounter batches concurrent increments: callers publish requests
// into a queue and one caller at a time becomes the combiner (TryLock),
// applying the whole batch with a single pass — the flat-combining
// realization of a software combining tree.
type CombiningCounter struct {
	pending chan chan int64
	mu      sync.Mutex // combiner role
	v       int64
}

// NewCombiningCounter returns a flat-combining counter able to absorb up to
// maxConcurrency simultaneous publishers.
func NewCombiningCounter(maxConcurrency int) *CombiningCounter {
	if maxConcurrency < 1 {
		maxConcurrency = 1
	}
	return &CombiningCounter{pending: make(chan chan int64, maxConcurrency)}
}

// Inc implements Counter.
func (c *CombiningCounter) Inc() int64 {
	resp := make(chan int64, 1)
	c.pending <- resp
	for {
		select {
		case v := <-resp:
			return v
		default:
		}
		if c.mu.TryLock() {
			c.drain()
			c.mu.Unlock()
			select {
			case v := <-resp:
				return v
			default:
			}
		} else {
			runtime.Gosched()
		}
	}
}

// drain applies every published increment; the caller holds the combiner
// role.
func (c *CombiningCounter) drain() {
	for {
		select {
		case resp := <-c.pending:
			c.v++
			resp <- c.v
		default:
			return
		}
	}
}

// NetworkCounter is a bitonic counting network with a lock per balancer and
// a counter per output wire: a token traverses Θ(log² w) balancers and
// leaves with count = logical-output + w·(tokens already out on that wire).
// Contention spreads over the balancers instead of one hot word — the
// classic trade of latency for scalability the paper's counting side makes.
type NetworkCounter struct {
	width   int
	net     *counting.BalancerNetwork
	balBy   [][]int // layer → wire → balancer index
	toggles [][]balancerState
	exits   []atomic.Int64 // per logical output wire
	logical []int          // physical wire → logical output
	entropy sync.Pool      // per-P randomness for input-wire choice
}

type balancerState struct {
	mu     sync.Mutex
	toggle bool
	_      [40]byte // avoid false sharing between adjacent balancers
}

var entropySeed atomic.Int64

// NewNetworkCounter builds a bitonic network counter of the given width
// (a power of two).
func NewNetworkCounter(width int) (*NetworkCounter, error) {
	net, err := counting.Bitonic(width)
	if err != nil {
		return nil, err
	}
	nc := &NetworkCounter{
		width:   width,
		net:     net,
		balBy:   make([][]int, net.Depth()),
		toggles: make([][]balancerState, net.Depth()),
		exits:   make([]atomic.Int64, width),
		logical: make([]int, width),
	}
	for li, layer := range net.Layers {
		nc.balBy[li] = make([]int, width)
		nc.toggles[li] = make([]balancerState, len(layer))
		for w := range nc.balBy[li] {
			nc.balBy[li][w] = -1
		}
		for bi, b := range layer {
			nc.balBy[li][b.Top] = bi
			nc.balBy[li][b.Bottom] = bi
		}
	}
	for li, w := range net.OutPerm {
		nc.logical[w] = li
	}
	nc.entropy.New = func() interface{} {
		return rand.New(rand.NewSource(entropySeed.Add(1)))
	}
	return nc, nil
}

// Inc implements Counter: the caller's token enters on an arbitrary wire
// (correctness does not depend on the choice) and traverses the network.
func (nc *NetworkCounter) Inc() int64 {
	rng := nc.entropy.Get().(*rand.Rand)
	wire := rng.Intn(nc.width)
	nc.entropy.Put(rng)
	for li := range nc.toggles {
		bi := nc.balBy[li][wire]
		if bi < 0 {
			continue
		}
		b := &nc.toggles[li][bi]
		spec := nc.net.Layers[li][bi]
		b.mu.Lock()
		if !b.toggle {
			wire = spec.Top
		} else {
			wire = spec.Bottom
		}
		b.toggle = !b.toggle
		b.mu.Unlock()
	}
	li := nc.logical[wire]
	k := nc.exits[li].Add(1) - 1
	return int64(li) + int64(nc.width)*k + 1
}

// ValidateCounts checks that values is a permutation of 1..len(values) —
// the counting correctness condition. It delegates to the public
// countq.ValidateCounts.
func ValidateCounts(values []int64) error { return countq.ValidateCounts(values) }
