package countq

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// This file is the core API: per-worker Sessions with context and errors,
// the Structure factory that makes them, and the capability interfaces
// (BatchSession, AsyncSession) the driver exploits. Sessions are the one
// way to drive a structure — shared-memory word, combining engine or
// simulated network alike.

// Kind is the bitmask of operation kinds a structure serves. A counter
// serves Inc, a queue serves Enqueue; a structure may declare both.
type Kind int

const (
	// KindCounter marks structures whose sessions serve Inc.
	KindCounter Kind = 1 << iota
	// KindQueue marks structures whose sessions serve Enqueue.
	KindQueue
)

// Has reports whether k includes every kind in x.
func (k Kind) Has(x Kind) bool { return k&x == x }

// String renders the kind set ("counter", "queue", "counter+queue").
func (k Kind) String() string {
	var parts []string
	if k.Has(KindCounter) {
		parts = append(parts, "counter")
	}
	if k.Has(KindQueue) {
		parts = append(parts, "queue")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Caps is the bitmask of session capabilities a structure declares. The
// registry records capabilities so the driver can reject a workload that
// needs one *before* any goroutine runs, and `countq list` can print them;
// the session types returned by NewSession must back the declaration
// (a CapBatch structure's sessions implement BatchSession, a CapAsync
// structure's sessions implement AsyncSession).
type Caps int

const (
	// CapHandle marks structures whose sessions hold per-worker fast-path
	// state that Close surrenders (sharded's private lease, a combining
	// lane, a bridge grant). Informational: every session has a Close.
	CapHandle Caps = 1 << iota
	// CapBatch marks structures whose sessions implement BatchSession
	// (IncN block grants — one coordination round for a range of counts).
	CapBatch
	// CapAsync marks structures whose sessions implement AsyncSession
	// (Submit/Completions — several operations in flight per worker).
	CapAsync
)

// Has reports whether c includes every capability in x.
func (c Caps) Has(x Caps) bool { return c&x == x }

// String renders the capability set ("handle,batch,async"; "-" when empty).
func (c Caps) String() string {
	var parts []string
	if c.Has(CapHandle) {
		parts = append(parts, "handle")
	}
	if c.Has(CapBatch) {
		parts = append(parts, "batch")
	}
	if c.Has(CapAsync) {
		parts = append(parts, "async")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// ErrUnsupported is wrapped by session operations the structure does not
// serve — Enqueue on a counter-only structure, Inc on a queue-only one.
// Callers gate on the structure's declared Kinds instead of probing, so
// hitting it indicates a driver bug or a miskinded spec.
var ErrUnsupported = errors.New("operation not supported by this structure")

// Session is a per-worker conversation with a structure: the canonical
// operation surface of the API. A session is owned by one goroutine and
// is not safe for concurrent use; the structure it came from is safe for
// concurrent use alongside any number of its sessions. Close surrenders
// per-session state (such as an unused lease remainder) back to the
// structure — validation drains only after every session is closed.
//
// Both operations take a context: synchronous shared-memory sessions only
// check it for cancellation before issuing, while bridged backends block on
// it for the full round trip.
type Session interface {
	// Inc returns the next count (1-based), or an error.
	Inc(ctx context.Context) (int64, error)
	// Enqueue appends id to the total order and returns the identity of
	// its predecessor (Head for the first operation), or an error.
	// Operation ids must be distinct and non-negative.
	Enqueue(ctx context.Context, id int64) (int64, error)
	// Close surrenders per-session state back to the structure.
	Close() error
}

// BatchSession is the session form of the batching capability: IncN grants
// the n consecutive counts first..first+n-1 in one coordination round.
// Sessions of structures declaring CapBatch implement it.
type BatchSession interface {
	Session
	// IncN grants n consecutive counts and returns the first. n must be
	// ≥ 1; IncN(1) is equivalent to Inc.
	IncN(ctx context.Context, n int64) (first int64, err error)
}

// OpKind distinguishes the two operation kinds a session can issue.
type OpKind uint8

const (
	// OpInc is a counting operation (Inc, or an IncN block when Op.N > 1).
	OpInc OpKind = iota
	// OpEnqueue is a queuing operation.
	OpEnqueue
)

// String returns the operation kind's name.
func (k OpKind) String() string {
	switch k {
	case OpInc:
		return "inc"
	case OpEnqueue:
		return "enqueue"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// Op describes one submitted asynchronous operation. The session echoes it
// verbatim in the matching Completion, so the submitter needs no side
// table: Token correlates, Start and Submitted carry the timestamps the
// latency accounting needs (Start is the *intended* start under an
// open-loop arrival schedule — the coordinated-omission-corrected origin —
// while Submitted is the wall-clock submit time, the service-time origin).
type Op struct {
	// Kind selects the operation; ID is the Enqueue id, N the Inc block
	// size (values ≤ 1 mean a single count).
	Kind OpKind
	ID   int64
	N    int64
	// Token is caller-chosen correlation state, echoed untouched.
	Token uint64
	// Start is the intended start (arrival-schedule) timestamp; Submitted
	// is when the operation actually entered the session. Both are set by
	// the submitter and echoed untouched.
	Start     time.Time
	Submitted time.Time
}

// Completion is one finished asynchronous operation: the Op that issued
// it, the operation's value (the count, the first count of a block, or the
// predecessor id), and the error if it failed.
type Completion struct {
	Op    Op
	Value int64
	Err   error
}

// AsyncSession is the asynchronous-completion capability: Submit queues an
// operation without waiting and the result arrives on Completions, so one
// worker can keep several operations outstanding — the op pipeline that
// makes a backend's coordination round overlappable, and the form in which
// open-loop latency avoids coordinated omission (submit on the arrival
// schedule, measure completion − intended start). Sessions of structures
// declaring CapAsync implement it.
//
// Like every Session, an AsyncSession is owned by one goroutine: one
// submitter, one completion consumer. The Completions channel is never
// closed; consumers track their own outstanding count (one Completion
// arrives per accepted Submit). Submit fails when the pipeline is full
// rather than blocking. An operation whose completion is abandoned (e.g.
// the submitter's context was cancelled after Submit accepted it) may
// still execute — its count is granted and lost to validation — so
// cancel-and-revalidate is not a supported pattern.
type AsyncSession interface {
	Session
	// Submit queues op for execution. It returns quickly: an error means
	// the operation was NOT accepted (cancelled context, full pipeline,
	// closed structure) and no Completion will arrive for it.
	Submit(ctx context.Context, op Op) error
	// Completions delivers finished operations, one per accepted Submit,
	// in completion order.
	Completions() <-chan Completion
}

// Structure is a constructed structure instance: a session factory. The
// registry's New constructors return Structures; workers call NewSession
// once each and issue every operation through their session. Structures
// that hold background resources (the sim bridge's network pump) also
// implement io.Closer, which the driver invokes when a run finishes.
type Structure interface {
	NewSession() (Session, error)
}

// DrainCounts reclaims every leased-but-unused count from a structure
// whose implementation leases ranges (the Drainer capability); structures
// without it drain to nothing. Call it only after every session is
// closed, so surrendered lease remainders are included.
func DrainCounts(s Structure) []int64 {
	if d, ok := s.(Drainer); ok {
		return d.Drain()
	}
	return nil
}
