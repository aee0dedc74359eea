package shm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/countq"
)

// ShardedCounter spreads increments over per-P shards: each shard leases a
// block of counts from the global high-water mark with one fetch-and-add,
// then hands them out under a shard-local mutex, so the hot global word is
// touched only once per batch instead of once per operation. Shard
// affinity rides on a sync.Pool, whose per-P caches keep a goroutine on
// the shard owned by the P it is running on.
//
// Distinctness is unconditional. The no-gaps property holds at
// reconciliation points: Reconcile returns partially-used leases to a
// shared free pool (where any shard can pick them up), and Drain
// additionally empties that pool, returning every leased-but-unused count
// so that handed-out ∪ drained = 1..max exactly. Like the counting
// network, the counter is quiescently consistent rather than linearizable:
// two shards may hold blocks from different eras, so a later operation can
// return a smaller count than an earlier completed one.
type ShardedCounter struct {
	next     atomic.Int64 // high-water mark of leased counts
	batch    int64
	shards   []countShard
	affinity sync.Pool // *int shard index with per-P locality
	assign   atomic.Int64
	poolMu   sync.Mutex
	free     []countRange // reconciled, not-yet-reissued leases
}

type countShard struct {
	mu     sync.Mutex
	lo, hi int64    // current lease: counts [lo, hi) remain
	_      [40]byte // keep adjacent shards off one cache line
}

// countRange is the half-open interval of counts [lo, hi).
type countRange struct{ lo, hi int64 }

// NewShardedCounter builds a sharded counter with the given shard count
// (default GOMAXPROCS) and lease batch size (default 64).
func NewShardedCounter(shards int, batch int64) (*ShardedCounter, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if batch == 0 {
		batch = 64
	}
	if batch < 1 {
		return nil, fmt.Errorf("shm: sharded counter batch %d < 1", batch)
	}
	c := &ShardedCounter{batch: batch, shards: make([]countShard, shards)}
	c.affinity.New = func() interface{} {
		i := int(c.assign.Add(1)-1) % len(c.shards)
		return &i
	}
	return c, nil
}

// Inc implements Counter.
//
//countq:hotpath clocks=0
func (c *ShardedCounter) Inc() int64 {
	idx := c.affinity.Get().(*int)
	s := &c.shards[*idx]
	c.affinity.Put(idx)
	s.mu.Lock()
	if s.lo == s.hi {
		s.lo, s.hi = c.lease()
	}
	v := s.lo
	s.lo++
	s.mu.Unlock()
	return v
}

// lease obtains the next block of counts: a reconciled range when one is
// pooled, otherwise a fresh batch off the global high-water mark.
//
//countq:hotpath clocks=0
func (c *ShardedCounter) lease() (lo, hi int64) {
	c.poolMu.Lock()
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		c.poolMu.Unlock()
		return r.lo, r.hi
	}
	c.poolMu.Unlock()
	hi = c.next.Add(c.batch) + 1
	return hi - c.batch, hi
}

// IncN leases the n consecutive
// counts first..first+n-1 straight off the global high-water mark — one
// fetch-and-add for the whole block, bypassing the shards entirely. The
// grant is the caller's to account for; it is never pooled or reissued,
// so handed-out singles ∪ granted blocks ∪ drained remainders still tile
// 1..max exactly.
//
//countq:hotpath clocks=0
func (c *ShardedCounter) IncN(n int64) int64 {
	if n < 1 {
		panic(fmt.Sprintf("shm: sharded IncN(%d), want n ≥ 1", n))
	}
	return c.next.Add(n) - n + 1
}

// NewSession implements countq.Structure: the session makes the per-worker
// lease explicit. Where Inc pays a sync.Pool lookup and a shard mutex per
// operation, a session holds its own private lease and refills it from the
// shared structure only once per batch — the uncontended fast path is a
// plain increment. The session is owned by one goroutine; Close returns
// the unused lease remainder to the shared free pool so Drain still closes
// the range.
func (c *ShardedCounter) NewSession() (countq.Session, error) {
	s := &shardedSession{}
	s.c = c
	return s, nil
}

// shardedSession is the lease; IncN comes from batchSession (block grants
// bypass the lease).
type shardedSession struct {
	batchSession[*ShardedCounter]
	lo, hi int64 // private lease: counts [lo, hi) remain
}

// Inc implements countq.Session.
//
//countq:hotpath clocks=0
func (s *shardedSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.lo == s.hi {
		s.lo, s.hi = s.c.lease()
	}
	v := s.lo
	s.lo++
	return v, nil
}

// Close implements countq.Session, surrendering the lease remainder.
func (s *shardedSession) Close() error {
	if s.lo < s.hi {
		s.c.poolMu.Lock()
		s.c.free = append(s.c.free, countRange{s.lo, s.hi})
		s.c.poolMu.Unlock()
	}
	s.lo, s.hi = 0, 0
	return nil
}

// Reconcile moves every shard's unused lease remainder into the shared
// free pool, where the next refill — by any shard — reissues it. Calling
// it periodically keeps idle shards from sitting on count ranges (the
// source of gaps) without losing any counts.
func (c *ShardedCounter) Reconcile() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		lo, hi := s.lo, s.hi
		s.lo, s.hi = 0, 0
		s.mu.Unlock()
		if lo < hi {
			c.poolMu.Lock()
			c.free = append(c.free, countRange{lo, hi})
			c.poolMu.Unlock()
		}
	}
}

// Drain implements countq.Drainer: it reconciles all shards, empties the
// free pool, and returns every leased-but-unused count. The counts handed
// out so far plus the returned slice form exactly 1..max; drained counts
// are never reissued.
func (c *ShardedCounter) Drain() []int64 {
	c.Reconcile()
	c.poolMu.Lock()
	free := c.free
	c.free = nil
	c.poolMu.Unlock()
	var out []int64
	for _, r := range free {
		for v := r.lo; v < r.hi; v++ {
			out = append(out, v)
		}
	}
	return out
}

// Shards reports the shard count.
func (c *ShardedCounter) Shards() int { return len(c.shards) }
