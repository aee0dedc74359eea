package shm

import (
	"context"
	"fmt"

	"repro/countq"
)

// Every synchronous structure serves countq sessions itself: NewSession
// returns a per-worker value whose Inc / IncN / Enqueue check the context
// and then call the structure's own method. The ten structures differ only
// in their type, so the sessions are three generic types instantiated per
// structure — counterSession, batchSession (a counter with IncN) and
// queueSession — each also carrying the operation its kind does not serve
// and a Close with nothing to surrender. Six sessions override the per-op
// method on top of a generic one. Four own, for the session's life, state
// the direct call borrows per operation: sharded's lease (sharded.go),
// funnel's combining record (funnel.go), diffracting's token record
// (diffracting.go) and network's input-wire generator (counters.go).
// Atomic's and swap's (below) re-state the per-op method on the concrete
// type so the one-instruction operation inlines under the context check —
// a method call on a type parameter is dispatched through the
// instantiation's dictionary, which the traced ladder reads as
// countq.session_inc_ns ≈ 10.9 ns against 9.9 ns here (and 10.7 ns for
// the func-valued adapter this file replaced).

// counterSession is a worker's session with the synchronous counter C.
type counterSession[C countq.Counter] struct{ c C }

// Inc implements countq.Session.
//
//countq:hotpath clocks=0
func (s *counterSession[C]) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.c.Inc(), nil
}

// Enqueue implements countq.Session: a counter does not queue.
func (*counterSession[C]) Enqueue(context.Context, int64) (int64, error) {
	return 0, fmt.Errorf("shm: Enqueue on a counter session: %w", countq.ErrUnsupported)
}

// Close implements countq.Session.
func (*counterSession[C]) Close() error { return nil }

// blockCounter is a counter that grants blocks: IncN(n) returns the first
// of n consecutive counts.
type blockCounter interface {
	countq.Counter
	IncN(n int64) int64
}

// batchSession adds countq.BatchSession over a block-granting counter.
type batchSession[C blockCounter] struct{ counterSession[C] }

// IncN implements countq.BatchSession.
//
//countq:hotpath clocks=0
func (s *batchSession[C]) IncN(ctx context.Context, n int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("shm: IncN(%d): block size must be ≥ 1", n)
	}
	return s.c.IncN(n), nil
}

// queueSession is a worker's session with the synchronous queue Q.
type queueSession[Q countq.Queuer] struct{ q Q }

// Enqueue implements countq.Session.
//
//countq:hotpath clocks=0
func (s *queueSession[Q]) Enqueue(ctx context.Context, id int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.q.Enqueue(id), nil
}

// Inc implements countq.Session: a queue does not count.
func (*queueSession[Q]) Inc(context.Context) (int64, error) {
	return 0, fmt.Errorf("shm: Inc on a queue session: %w", countq.ErrUnsupported)
}

// Close implements countq.Session.
func (*queueSession[Q]) Close() error { return nil }

// atomicSession is batchSession with Inc on the concrete type.
type atomicSession struct{ batchSession[*AtomicCounter] }

// Inc implements countq.Session.
//
//countq:hotpath clocks=0
func (s *atomicSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.c.Inc(), nil
}

// swapSession is queueSession with Enqueue on the concrete type.
type swapSession struct{ queueSession[*SwapQueue] }

// Enqueue implements countq.Session.
//
//countq:hotpath clocks=0
func (s *swapSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.q.Enqueue(id), nil
}

// NewSession implements countq.Structure for each structure.

func (c *AtomicCounter) NewSession() (countq.Session, error) {
	s := &atomicSession{}
	s.c = c
	return s, nil
}

func (c *MutexCounter) NewSession() (countq.Session, error) {
	return &batchSession[*MutexCounter]{counterSession[*MutexCounter]{c}}, nil
}

func (c *CombiningCounter) NewSession() (countq.Session, error) {
	return &counterSession[*CombiningCounter]{c}, nil
}

func (q *SwapQueue) NewSession() (countq.Session, error) {
	return &swapSession{queueSession[*SwapQueue]{q}}, nil
}

func (q *ListQueue) NewSession() (countq.Session, error) { return &queueSession[*ListQueue]{q}, nil }

func (q *MutexQueue) NewSession() (countq.Session, error) { return &queueSession[*MutexQueue]{q}, nil }
