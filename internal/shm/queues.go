package shm

import (
	"sync"
	"sync/atomic"

	"repro/countq"
)

// Head is the predecessor reported to the first enqueued operation.
const Head = countq.Head

// Queuer organizes concurrent operations into a total order, telling each
// caller the identity of its predecessor — the shared-memory face of
// distributed queuing. Operation ids must be distinct and non-negative.
// It is an alias of the public countq.Queuer.
type Queuer = countq.Queuer

// SwapQueue is the whole point of the comparison: one atomic swap yields
// your predecessor. No retries, no multi-word coordination, no validation —
// the "distributed swap" primitive behind queue locks (CLH/MCS) and the
// queuing-based ordered multicast of Herlihy et al.
type SwapQueue struct {
	_    [64]byte
	tail atomic.Int64
	_    [56]byte // the hot word owns its cache line
}

// NewSwapQueue returns an empty swap-based queue.
func NewSwapQueue() *SwapQueue {
	q := &SwapQueue{}
	q.tail.Store(Head)
	return q
}

// Enqueue implements Queuer with a single atomic exchange.
//
//countq:hotpath clocks=0
func (q *SwapQueue) Enqueue(id int64) int64 { return q.tail.Swap(id) }

// MutexQueue is the lock-based baseline for queuing.
type MutexQueue struct {
	_    [64]byte
	mu   sync.Mutex
	tail int64
	_    [56]byte // the lock and its word own their cache line
}

// NewMutexQueue returns an empty mutex-based queue.
func NewMutexQueue() *MutexQueue { return &MutexQueue{tail: Head} }

// Enqueue implements Queuer.
//
//countq:hotpath clocks=0
func (q *MutexQueue) Enqueue(id int64) int64 {
	q.mu.Lock()
	pred := q.tail
	q.tail = id
	q.mu.Unlock()
	return pred
}

// ListQueue is a linked variant (the CLH-lock skeleton): each operation
// installs a node with a swap and reads its predecessor's id from the node
// it displaced. Functionally equivalent to SwapQueue but exercising the
// pointer-based structure used by queue locks.
type ListQueue struct {
	_    [64]byte
	tail atomic.Pointer[listNode]
	_    [56]byte // the hot word owns its cache line
}

type listNode struct {
	id int64
}

// NewListQueue returns an empty linked queue.
func NewListQueue() *ListQueue {
	q := &ListQueue{}
	q.tail.Store(&listNode{id: Head})
	return q
}

// Enqueue implements Queuer.
func (q *ListQueue) Enqueue(id int64) int64 {
	n := &listNode{id: id}
	prev := q.tail.Swap(n)
	return prev.id
}

// ValidateOrder checks the queuing correctness condition on a set of
// (id, predecessor) pairs: predecessors are distinct, exactly one operation
// queued behind Head, and the successor chain covers every operation. It
// delegates to the public countq.ValidateOrder.
func ValidateOrder(ids, preds []int64) error { return countq.ValidateOrder(ids, preds) }
