package shm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/countq"
	"repro/internal/ring"
)

// This file holds the native-AsyncSession backends: structures whose
// sessions are driven through Submit/Completions *by construction*, with
// no synchronous call underneath. Both ride one flat-combining engine:
//
//   - submissions land in a per-session SPSC lane (internal/ring — the
//     same audited ring the sim bridge's transport runs on),
//   - one session at a time becomes the combiner (mutex TryLock),
//   - the combiner sweeps every ring, applies the whole batch to the
//     shared structure with a single atomic RMW, and fires completions
//     as the combined round reaches the root.
//
// With Inflight > 1 a worker keeps several submissions parked in its slot
// while earlier ones ride a combine round — the aggregation round the
// paper charges counting with genuinely overlaps, which is exactly what
// the synchronous structures' sessions cannot express.
//
// Memory-ordering protocol (all Go atomics are sequentially consistent):
// a submitter increments core.pending BEFORE publishing into its ring, and
// a combiner re-checks pending AFTER releasing the lock, re-acquiring if
// anything landed meanwhile. A published entry can therefore never strand:
// if the publisher's TryLock fails, somebody held the lock at that moment,
// and in the single total order of atomic operations some holder's
// post-unlock pending check (or in-sweep pending load) must observe the
// increment. The proof needs TryLock's failure to imply "locked right
// now", which holds because nothing ever blocks in Lock() on this mutex —
// so the starvation bit that would make TryLock fail spuriously is never
// set. Keep it that way.

// asyncEntry is one parked submission: the op, where its completion goes,
// and the owning session (for outstanding accounting on async entries).
type asyncEntry struct {
	op    countq.Op
	out   chan countq.Completion
	sess  *combineSession
	async bool
}

// combineCore is the flat-combining engine shared by the async funnel
// counter and the elimination queue. Each session publishes into a
// private ring.Lanes lane; the combiner sweeps a snapshot of all lanes.
// apply sees each combined batch in submission-sweep order and must
// deliver every entry's completion.
type combineCore struct {
	mu      sync.Mutex // combiner lock: TryLock only, never Lock
	pending atomic.Int64
	lanes   *ring.Lanes[asyncEntry]
	scratch []asyncEntry // combiner-owned batch buffer, reused across sweeps
	ringCap int
	spin    int
	apply   func(batch []asyncEntry)
}

func newCombineCore(pipeline, spin int, apply func([]asyncEntry)) *combineCore {
	return &combineCore{
		lanes:   ring.NewLanes[asyncEntry](),
		ringCap: pipeline,
		spin:    spin,
		apply:   apply,
	}
}

// combine makes the calling goroutine the combiner if nobody else is, and
// keeps re-acquiring until no published-but-unconsumed submission remains
// (see the stranding protocol at the top of the file).
//
//countq:hotpath clocks=0
func (c *combineCore) combine() {
	for {
		if !c.mu.TryLock() {
			return // an active combiner will sweep our submission
		}
		c.sweep()
		c.mu.Unlock()
		if c.pending.Load() == 0 {
			return
		}
		// A submission landed between the final sweep and the unlock; its
		// publisher may have seen the lock held and left. Take another turn.
	}
}

// sweep consumes every parked submission until pending drains, applying
// each collected batch to the shared structure in one round. Runs with the
// combiner lock held; scratch is reused so steady state allocates nothing.
//
//countq:hotpath clocks=0
//countq:role=consumer
func (c *combineCore) sweep() {
	for c.pending.Load() > 0 {
		c.scratch = c.scratch[:0]
		for _, lane := range c.lanes.Snapshot() {
			if lane.Empty() {
				continue
			}
			c.scratch = lane.DrainTo(c.scratch)
		}
		if len(c.scratch) == 0 {
			// pending > 0 but nothing published yet: a submitter is between
			// its increment and its ring publish. Yield and look again.
			runtime.Gosched()
			continue
		}
		c.pending.Add(-int64(len(c.scratch)))
		c.apply(c.scratch)
	}
}

// deliver fires one completion and releases its async accounting.
//
//countq:hotpath clocks=0
func deliver(e *asyncEntry, v int64) {
	e.out <- countq.Completion{Op: e.op, Value: v}
	if e.async {
		e.sess.outstanding.Add(-1)
	}
}

// combineSession is the per-worker session of a combining structure. Owned
// by one goroutine; Submit publishes into the session's private ring and
// the combiner — this goroutine or another — fires the completion.
type combineSession struct {
	core    *combineCore
	slot    *ring.SPSC[asyncEntry]
	kinds   countq.Kind
	out     chan countq.Completion
	syncOut chan countq.Completion
	// outstanding counts async submissions not yet delivered to out; with
	// len(out) it bounds the pipeline so the combiner never blocks on a
	// completion send.
	outstanding atomic.Int64
	closed      bool
}

func newCombineSession(core *combineCore, kinds countq.Kind) *combineSession {
	s := &combineSession{
		core:    core,
		kinds:   kinds,
		slot:    core.lanes.NewLane(core.ringCap),
		out:     make(chan countq.Completion, core.ringCap),
		syncOut: make(chan countq.Completion, 1),
	}
	return s
}

var errSessionClosed = fmt.Errorf("shm: session is closed")

// publish parks one entry in the session's lane, reporting false when the
// lane is full (only possible with unconsumed async submissions ahead).
// pending is incremented before the tail moves — the stranding protocol —
// and rolled back on a full lane before anything was published.
//
//countq:hotpath clocks=0
//countq:role=producer
func (s *combineSession) publish(e asyncEntry) bool {
	s.core.pending.Add(1)
	if !s.slot.Push(e) {
		s.core.pending.Add(-1)
		return false
	}
	return true
}

// backoff lets an active combiner pick the freshly published entry up
// before the publisher fights for the lock itself — the back-off half of
// elimination/back-off. spin = 0 goes straight to combining.
//
//countq:hotpath clocks=0
func (s *combineSession) backoff() {
	for i := 0; i < s.core.spin; i++ {
		if s.core.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	s.core.combine()
}

// roundTrip is the synchronous op path: publish, help combine, wait on the
// session's dedicated reply channel (capacity 1, reused — one sync op at a
// time per single-owner session, so it is always empty here).
//
//countq:hotpath clocks=0
func (s *combineSession) roundTrip(ctx context.Context, op countq.Op) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.closed {
		return 0, errSessionClosed
	}
	for !s.publish(asyncEntry{op: op, out: s.syncOut, sess: s}) {
		// Ring full of parked async submissions: help drain, then retry.
		s.core.combine()
		runtime.Gosched()
	}
	s.backoff()
	for {
		select {
		case c := <-s.syncOut:
			return c.Value, c.Err
		default:
			// Self-help instead of parking: combining is cheap and this
			// keeps sync ops live even under adversarial scheduling.
			s.core.combine()
			runtime.Gosched()
		}
	}
}

// Inc implements countq.Session.
//
//countq:hotpath clocks=0
func (s *combineSession) Inc(ctx context.Context) (int64, error) {
	if !s.kinds.Has(countq.KindCounter) {
		return 0, fmt.Errorf("shm: Inc on a queue-only combining structure: %w", countq.ErrUnsupported)
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpInc, N: 1})
}

// IncN implements countq.BatchSession: the block grant is just a combined
// entry with N > 1 — the combiner assigns it a consecutive range.
//
//countq:hotpath clocks=0
func (s *combineSession) IncN(ctx context.Context, n int64) (int64, error) {
	if !s.kinds.Has(countq.KindCounter) {
		return 0, fmt.Errorf("shm: IncN on a queue-only combining structure: %w", countq.ErrUnsupported)
	}
	if n < 1 {
		return 0, fmt.Errorf("shm: IncN(%d), want n ≥ 1", n)
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpInc, N: n})
}

// Enqueue implements countq.Session.
//
//countq:hotpath clocks=0
func (s *combineSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if !s.kinds.Has(countq.KindQueue) {
		return 0, fmt.Errorf("shm: Enqueue on a counter-only combining structure: %w", countq.ErrUnsupported)
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpEnqueue, ID: id})
}

// Submit implements countq.AsyncSession: park the op, nudge the combiner,
// return. The completion fires on Completions() when a combine round
// carries the op to the root.
//
//countq:hotpath clocks=0
func (s *combineSession) Submit(ctx context.Context, op countq.Op) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed {
		return errSessionClosed
	}
	switch op.Kind {
	case countq.OpInc:
		if !s.kinds.Has(countq.KindCounter) {
			return fmt.Errorf("shm: submitted inc to a queue-only combining structure: %w", countq.ErrUnsupported)
		}
	case countq.OpEnqueue:
		if !s.kinds.Has(countq.KindQueue) {
			return fmt.Errorf("shm: submitted enqueue to a counter-only combining structure: %w", countq.ErrUnsupported)
		}
	default:
		return fmt.Errorf("shm: submitted unknown op kind %v: %w", op.Kind, countq.ErrUnsupported)
	}
	// Bound undelivered + unread completions by the pipeline so the
	// combiner can always send without blocking. The len read is racy but
	// only ever conservative: a concurrent delivery is double-counted for
	// an instant, never missed.
	if s.outstanding.Load()+int64(len(s.out)) >= int64(s.core.ringCap) {
		return fmt.Errorf("shm: combining pipeline full (%d outstanding)", s.core.ringCap)
	}
	s.outstanding.Add(1)
	if !s.publish(asyncEntry{op: op, out: s.out, sess: s, async: true}) {
		s.outstanding.Add(-1)
		return fmt.Errorf("shm: combining pipeline full (%d outstanding)", s.core.ringCap)
	}
	s.backoff()
	return nil
}

// Completions implements countq.AsyncSession.
//
//countq:hotpath clocks=0
func (s *combineSession) Completions() <-chan countq.Completion {
	return s.out
}

// Close implements countq.Session: help until every accepted submission
// has completed, drain abandoned completions (their grants are lost to
// validation — the documented AsyncSession contract), and leave the sweep
// set.
func (s *combineSession) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for s.outstanding.Load() > 0 {
		s.core.combine()
		runtime.Gosched()
	}
	for {
		select {
		case <-s.out:
		default:
			s.core.lanes.Remove(s.slot)
			return nil
		}
	}
}

// AsyncFunnelCounter is the combining funnel rebuilt around sessions: the
// slot array plays the funnel's layers, a combine round is the walk to the
// root, and one fetch-and-add grants the whole batch consecutive counts.
type AsyncFunnelCounter struct {
	core *combineCore
	v    atomic.Int64
}

// NewAsyncFunnelCounter builds the native-async combining counter.
// pipeline bounds each session's outstanding submissions (and sizes its
// slot ring); spin is the submitter's back-off before it competes to
// combine (0 = combine immediately).
func NewAsyncFunnelCounter(pipeline, spin int) (*AsyncFunnelCounter, error) {
	if err := checkCombineParams(pipeline, spin); err != nil {
		return nil, err
	}
	f := &AsyncFunnelCounter{}
	f.core = newCombineCore(pipeline, spin, f.applyBatch)
	return f, nil
}

//countq:hotpath clocks=0
func (f *AsyncFunnelCounter) applyBatch(batch []asyncEntry) {
	var total int64
	for i := range batch {
		n := batch[i].op.N
		if n < 1 {
			n = 1
		}
		total += n
	}
	cur := f.v.Add(total) - total // one RMW for the whole combined batch
	for i := range batch {
		n := batch[i].op.N
		if n < 1 {
			n = 1
		}
		deliver(&batch[i], cur+1)
		cur += n
	}
}

// NewSession implements countq.Structure.
func (f *AsyncFunnelCounter) NewSession() (countq.Session, error) {
	return newCombineSession(f.core, countq.KindCounter), nil
}

// ElimQueue is the elimination/back-off queue: sessions park enqueues in
// their slot of the back-off array, and a combine round links the batch
// locally — each entry's predecessor is its batch neighbour — touching the
// shared tail with exactly one atomic swap per round. Pairs of concurrent
// enqueues thus eliminate their coordination against the shared structure
// entirely, the queue-side analogue of what the funnel must still pay an
// aggregation round for.
type ElimQueue struct {
	core *combineCore
	tail atomic.Int64
}

// NewElimQueue builds the native-async elimination queue; parameters as in
// NewAsyncFunnelCounter.
func NewElimQueue(pipeline, spin int) (*ElimQueue, error) {
	if err := checkCombineParams(pipeline, spin); err != nil {
		return nil, err
	}
	q := &ElimQueue{}
	q.tail.Store(countq.Head)
	q.core = newCombineCore(pipeline, spin, q.applyBatch)
	return q, nil
}

//countq:hotpath clocks=0
func (q *ElimQueue) applyBatch(batch []asyncEntry) {
	pred := q.tail.Swap(batch[len(batch)-1].op.ID) // the round's only RMW
	for i := range batch {
		deliver(&batch[i], pred)
		pred = batch[i].op.ID
	}
}

// NewSession implements countq.Structure.
func (q *ElimQueue) NewSession() (countq.Session, error) {
	return newCombineSession(q.core, countq.KindQueue), nil
}

func checkCombineParams(pipeline, spin int) error {
	if pipeline < 1 {
		return fmt.Errorf("shm: combining pipeline %d < 1", pipeline)
	}
	if pipeline > 1<<15 {
		return fmt.Errorf("shm: combining pipeline %d > %d", pipeline, 1<<15)
	}
	if spin < 0 {
		return fmt.Errorf("shm: combining spin %d < 0", spin)
	}
	return nil
}

func init() {
	params := []countq.ParamInfo{
		{Name: "pipeline", Default: "256", Doc: "per-session outstanding-submission bound (sizes the slot ring and completion buffer)"},
		{Name: "spin", Default: "0", Doc: "submitter back-off rounds before competing to combine (0 = combine immediately)"},
	}
	parseCombine := func(o countq.Options) (pipeline, spin int, err error) {
		pipeline = o.Int("pipeline", 256)
		spin = o.Int("spin", 0)
		if err = o.Err(); err != nil {
			return 0, 0, err
		}
		return pipeline, spin, nil
	}
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "async-funnel",
		Summary:      "native-async combining funnel: submissions park in per-session slots, one combiner sweeps them and grants the batch with a single fetch-and-add; Inflight>1 overlaps the aggregation round",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Params:       params,
		Caps:         countq.CapHandle | countq.CapBatch | countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			pipeline, spin, err := parseCombine(o)
			if err != nil {
				return nil, err
			}
			return NewAsyncFunnelCounter(pipeline, spin)
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "elim",
		Summary:      "native-async elimination/back-off queue: enqueues pair up in per-session slots and link locally, touching the shared tail with one swap per combined round",
		Kinds:        countq.KindQueue,
		Linearizable: true,
		Params:       params,
		Caps:         countq.CapHandle | countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			pipeline, spin, err := parseCombine(o)
			if err != nil {
				return nil, err
			}
			return NewElimQueue(pipeline, spin)
		},
	})
}
