package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/tree"
)

// The bridge runs a message-passing protocol as a countq Structure — the
// first backend only the session API can express. Sessions are pinned to
// leaf nodes of a simulated network; every Inc/Enqueue becomes an
// operation issued into the protocol, which routes whatever messages it
// needs and eventually grants a value back. A single pump goroutine
// advances the simulation one round per configured hop latency, so the
// coordination cost the paper reasons about — hops to the point of
// serialization, contention at its receive capacity — shows up as real
// wall-clock latency in the scenario engine's histograms, comparable in
// one campaign against the shared-memory zoo.
//
// The protocol behind the bridge is pluggable (BridgeProtocol): the
// default is the naive central protocol (Central), whose root serializes
// everything — Θ(n²) hub behavior on the star. The paper's good protocols
// register themselves through ProtoMaker:
// internal/arrow routes queuing through distributed path reversal
// (sim-arrow-queue) and internal/counting routes counting through the
// combining tree (sim-tree-counter), which makes the paper's
// counting-vs-queuing separation directly measurable in one campaign.
//
// Sessions support the synchronous Session calls (each blocks for its
// round trip), BatchSession (one request grants a block), and
// AsyncSession (Submit/Completions — the pipeline that overlaps round
// trips, which no synchronous interface could express).
//
// Transport (see DESIGN.md, "Bridge transport"): sessions publish async
// operations into private SPSC lanes and sync requests into private
// single-entry mailboxes (internal/ring), which the pump sweeps in
// session-registration order in any round a session has posted to them;
// a sync grant returns through a per-session reply mailbox with an
// eventcount park/wake — the uncontended sync round trip spins through the
// pump's turn, one cache line each way, instead of paying two channel
// handoffs and a scheduler wakeup per op.

// defaultPipeline is the default per-session transport depth: the submit
// lane capacity, the async completion buffer, and the cap on operations
// one session may keep outstanding. Override per spec with pipeline=.
const defaultPipeline = 1024

// maxPipeline bounds pipeline= so a typo cannot ask for a gigabyte of
// lanes (mirrors the shm combining backends' bound).
const maxPipeline = 1 << 15

// syncSpin is how many scheduler yields a sync round trip spends polling
// its reply mailbox, after b.idlePoll polls without yielding, before
// parking on the eventcount — enough for the pump to take its turn on a
// busy machine, so the steady uncontended path never parks.
const syncSpin = 128

// pumpIdleSpin is how many scheduler yields an idle pump spends polling
// the posted mark before parking — back-to-back sync ops from a spinning
// session land within the budget, so neither side pays a wakeup. The
// yields are counted, not timed, so the loop's phase against a spinning
// session moves with what one iteration costs: on the lane path that sync
// ops took before the mailboxes, edits a few nanoseconds apart (two
// counters in this loop, a shorter re-poll) spread star9-sync-counter by
// 15 %. Treat any edit to inject or this loop as a change to
// that workload.
const pumpIdleSpin = 128

// pumpIdlePoll is how many polls, without yielding, a pump that has just
// gone idle spends on the posted mark before its first runtime.Gosched,
// and a sync session on its reply: enough to cover the other side's turn
// (a session's from reply to next request, the pump's from request to
// reply), so in the steady state neither yields between operations and
// the phase above stops mattering. Sized on the lane path (lane checks of
// ≈ 1.3 ns: 64 caught 2 % of next operations, 256 92 %, 512 99 %). On
// one P a poll is pure delay, so NewBridge enables it only when
// GOMAXPROCS > 1.
const pumpIdlePoll = 512

// freeRunYield is how many back-to-back rounds a free-running (hoplat=0)
// pump steps before yielding the processor once, when there is one P.
// Short grant chains (a few rounds) never yield mid-chain, which is what
// makes the spinning round trip two switches total on one core; a protocol
// that withholds a grant for many rounds still lets waiters run every
// freeRunYield rounds instead of starving them until the runtime preempts.
//
// With more than one P the free-running pump does not yield on a round
// count (yieldEvery stays 0; the runtime's 10 ms preemption is the
// backstop). It yields once after a round that handed a completion to a
// reaper parked on Completions (yieldsOnHandoff): the send that readied
// the reaper left it in the pump's P's runnext slot, where another P takes
// it only after about 3 µs. Any other yield buys a waiter nothing, and
// runtime.Gosched is not free there: it ends in wakep, which with an idle
// P is a futex wake of a thread that finds nothing to run and sleeps again
// (5-8 µs of system time on the pump, on the 2-vCPU build VM), and it
// leaves the pump on the global run queue for whichever thread takes it
// next. A counted yield also comes round more often the cheaper a round
// is. Measured on
// list64-pipe-tree while its tree was rooted at node 0 (8 operations per
// 456-round cycle): yielding every 64 rounds, 81-101 k ops/s from one
// 100 ms window to the next, 0.27-0.49 thread sleeps per operation, 35 %
// of the pump's time in the kernel, and 150-160 k while the kernel had
// both threads on one vCPU; every 4096 rounds, 120-125 k with dips to
// 113 k; never, 125-126 k (97-104 k on one vCPU), one sleep per cycle,
// exactly 57 rounds per operation.
//
// Those figures predate the O(1) round (a round nobody posted to costs
// Network.Step and one load; Close and SimStats left the per-round path).
// Same workload, one 2-vCPU host, ten alternating 10 s benchmark runs per
// build, never yielding: 80-96 k ops/s before that change, 145-185 k
// after, 57.0 rounds per operation both. After it, yielding every 64
// rounds read 129-149 k against 145-162 k for never (four alternating
// pairs) and moved rounds per operation to 56.3-56.4.
const freeRunYield = 64

// Grants is the completion sink a BridgeProtocol resolves operations
// into: Grant completes the operation issued under token with the granted
// value (a count-block start, or a queue predecessor id). Granting an
// unknown or already-granted token is a no-op.
type Grants interface {
	Grant(token int, value int64)
}

// BridgeProtocol is the one shape a routed protocol is written in: a
// Protocol — so it is handed to New as it stands — whose operations arrive
// through Issue and complete into a Grants sink. The same state machine then
// runs live behind the bridge (the sink is the pump's grant table, tokens
// are its slots), one-shot (a wrapper issues its request set in Start with
// token = node and records grants into result arrays) and scheduled (the
// wrapper issues from a Schedule). Implementations own all protocol state;
// behind the bridge everything runs on the single pump goroutine, so no
// synchronization is needed. A protocol with per-round work also implements
// Ticker; the bridge wakes a node after each Issue there, so a live core
// whose Tick has nothing to do at a node nobody touched declares WakeTicker.
type BridgeProtocol interface {
	Protocol
	// Issue injects the operation op, identified by token, at node. The
	// protocol must eventually Grant the token, exactly once (the pump
	// keeps stepping rounds while any token is outstanding). Issue sees
	// only op's Kind, N and ID: behind the bridge op is rebuilt from the
	// bridge's kind and the operation's argument, and the caller's Token
	// and timestamps stay with the session for its Completion.
	Issue(env *Env, node int, token int, op countq.Op)
}

// ProtoMaker builds a BridgeProtocol for the bridge's graph, resolving
// completions into grants. Packages register bridge specs by passing a
// ProtoMaker in BridgeConfig.Proto. NewBridge hands it tr =
// tree.ForCounting(g), the tree every rooted protocol runs on; a protocol
// that belongs on another tree (arrow on tree.ForQueuing's) builds it from
// g and reports that tree's root through a Root method.
type ProtoMaker func(g *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error)

// rooted is a protocol built on a tree other than the one its ProtoMaker
// was handed. Sessions pin round-robin to every node but the root of the
// protocol's tree.
type rooted interface {
	Root() int
}

// BridgeConfig describes a bridge instance.
type BridgeConfig struct {
	// Topo is the network topology, one of graph.FamilyNames(): "star"
	// (default; hub contention), "list" (diameter), "mesh2d", … The
	// central protocol runs on its tree.ForCounting tree: the BFS tree
	// from a centre (the hub of the star, the middle of the list), or on
	// complete the heap tree, where a request climbs up to ⌈log₂ n⌉ hops.
	// A ProtoMaker picks its protocol's tree the same way.
	Topo string
	// Nodes is the network size (default 9: a hub plus 8 leaves on the
	// star): exactly a member of the Topo family, so ≥ 2. Sessions are
	// assigned round-robin to the nodes other than the protocol's root,
	// in ascending order.
	Nodes int
	// HopLat is the wall-clock cost of one simulated round — one message
	// hop (default 1µs). 0 advances rounds as fast as the pump can spin.
	HopLat time.Duration
	// Capacity is the per-node per-round send/receive budget, the paper's
	// c (default 1).
	Capacity int
	// Pipeline is the per-session transport depth: the submit lane
	// capacity, the async completion buffer, and the bound on operations
	// one session may keep outstanding (default 1024, max 32768).
	Pipeline int
	// Queue selects queuing semantics (sessions serve Enqueue) instead of
	// counting semantics (sessions serve Inc).
	Queue bool
	// Proto overrides the routed protocol; nil selects the central
	// protocol matching Queue.
	Proto ProtoMaker
	// Delay overrides the link delay model; nil means UnitDelay.
	Delay DelayModel
}

// Bridge runs a message-passing protocol as a countq.Structure. Close
// stops the network pump; the workload driver closes it when a run
// finishes.
type Bridge struct {
	// The fields run from what sessions write (closeMu) through cold
	// fields, then what both sides only read, to what the pump writes
	// (scratch on growth, spinRounds, simRounds, simMsgs), so that at either
	// of the two offsets mod 64 a Bridge gets in its size class no line
	// holds a field one side writes per operation and a field the other
	// touches per operation (TestBridgeLinesLayout).
	//
	// closeMu fences submission against Close: senders hold the read
	// side across the closed-flag check and the publish, so once Close
	// holds the write side no publish can be in flight — every accepted
	// operation is then either with the pump or in a lane or mailbox the
	// close path sweeps, and the AsyncSession contract (one Completion
	// per accepted Submit) holds through shutdown.
	closeMu   sync.RWMutex
	closed    bool
	stop      sync.Once
	drainOnce sync.Once
	nextLeaf  atomic.Uint64
	leaves    []int
	cfg       BridgeConfig
	pipeline  int
	// sub aggregates the per-session submit lanes and request mailboxes;
	// the pump sweeps a snapshot of them in a round where a session has
	// posted since the last sweep, and parks on the aggregate's eventcount
	// when everything is idle.
	sub        *ring.Lanes[bridgeOp]
	idlePoll   int           // polls an idle pump, or a waiting session, spends before its first yield
	yieldEvery int           // free-running rounds between yields; 0 never yields
	done       chan struct{} // closed by Close: stop accepting, drain, exit
	pumpExit   chan struct{} // closed when the pump has exited
	scratch    []bridgeOp    // pump-owned sweep buffer, reused across rounds
	spinRounds int           // pump-owned: free-running rounds since last yield
	// Simulated-time mirror of the network stats, refreshed by the pump
	// after a round that granted an operation and when it goes idle, so
	// callers can report simulated rounds and message counts alongside
	// wall latency without touching pump-owned state.
	simRounds atomic.Int64
	simMsgs   atomic.Int64
}

// bridgeOp is one operation in flight from a session to the pump: four
// words, which is all a lane or request mailbox, the pump's sweep buffer
// and the grant table carry per operation. Issue sees the Op that issueOp
// rebuilds from the bridge's kind and arg; an async operation's full Op,
// which only its Completion echoes, waits in its session's slot table
// under seq.
type bridgeOp struct {
	sess  *bridgeSession
	arg   int64  // the Inc block size N, or the Enqueue id
	seq   uint64 // sync round-trip sequence, or the async operation's slot
	node  int32
	async bool
}

// syncReply is a granted sync round trip, posted to the session's reply
// mailbox under the request's sequence.
type syncReply struct {
	val int64
	err error
}

// settle resolves o with the value val or the error err: an async
// completion takes the Op out of the operation's slot, hands the slot back
// on the session's free ring and then sends the Completion to the
// session's completion channel (buffered to the pipeline depth); a sync
// grant is posted to the session's reply mailbox and wakes the parked
// waiter, but only if its request is the last one the pump took from the
// session: an older one's round trip was abandoned (ctx cancellation), and
// its grant must not overwrite the newer request's reply. The slot goes
// back first so that a reaper holding every Completion it is owed can
// always submit again: freed after the send, a slot could still be missing
// when the reaper, woken by that send, submits.
//
// settle reports whether the completion was handed straight to a reaper
// parked on Completions. A send to a buffered channel that a receiver is
// blocked on copies the value to that receiver and leaves the buffer
// empty; any other send leaves it in the buffer.
//
//countq:hotpath
//countq:role=producer
func settle(o bridgeOp, val int64, err error) (handoff bool) {
	s := o.sess
	if o.async {
		c := countq.Completion{Op: s.slots[o.seq], Value: val, Err: err}
		// The push cannot fail: the ring holds pipeline+1 entries, one more
		// than there are slots, for the slot Submit has peeked but not yet
		// taken.
		s.free.Push(uint32(o.seq))
		s.out <- c
		return len(s.out) == 0
	}
	if o.seq == s.req.Taken() {
		s.reply.Post(o.seq, syncReply{val: val, err: err})
		s.ev.Wake()
	}
	return false
}

// grantTable is the pump's pending-operation store: a slot slice indexed
// by token with a free list, so steady-state issue/grant cycles reuse
// slots with no map traffic and no allocation.
type grantTable struct {
	slots []bridgeOp
	free  []int
	live  int
	// handoff is set when a grant is handed straight to a parked reaper
	// (settle's report); the pump clears it before each round.
	handoff bool
}

// add stores o and returns its token.
//
//countq:hotpath
func (t *grantTable) add(o bridgeOp) int {
	t.live++
	if k := len(t.free) - 1; k >= 0 {
		tok := t.free[k]
		t.free = t.free[:k]
		t.slots[tok] = o
		return tok
	}
	t.slots = append(t.slots, o)
	return len(t.slots) - 1
}

// Grant implements Grants: it completes the operation under tok with val.
//
//countq:hotpath
func (t *grantTable) Grant(tok int, val int64) {
	if tok < 0 || tok >= len(t.slots) {
		return
	}
	o := t.slots[tok]
	if o.sess == nil {
		return
	}
	t.slots[tok] = bridgeOp{}
	t.free = append(t.free, tok)
	t.live--
	if settle(o, val, nil) {
		t.handoff = true
	}
}

// failAll resolves every pending operation with err — the pump's
// fail-loudly path when the simulation itself errors.
func (t *grantTable) failAll(err error) {
	for tok := range t.slots {
		o := t.slots[tok]
		if o.sess == nil {
			continue
		}
		t.slots[tok] = bridgeOp{}
		t.free = append(t.free, tok)
		t.live--
		settle(o, 0, err)
	}
}

// NewBridge builds the network, constructs the protocol and starts the
// pump.
func NewBridge(cfg BridgeConfig) (*Bridge, error) {
	n := cfg.Nodes
	if n == 0 {
		n = 9
	}
	topo := cfg.Topo
	if topo == "" {
		topo = "star"
	}
	g, err := graph.Family(topo, n)
	if err != nil {
		return nil, fmt.Errorf("sim: bridge topo=%q: %w", topo, err)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("sim: negative bridge capacity %d", cfg.Capacity)
	}
	if cfg.HopLat < 0 {
		return nil, fmt.Errorf("sim: negative hop latency %v", cfg.HopLat)
	}
	pipeline := cfg.Pipeline
	if pipeline == 0 {
		pipeline = defaultPipeline
	}
	if pipeline < 1 {
		return nil, fmt.Errorf("sim: bridge pipeline %d < 1", cfg.Pipeline)
	}
	if pipeline > maxPipeline {
		return nil, fmt.Errorf("sim: bridge pipeline %d > %d", cfg.Pipeline, maxPipeline)
	}
	tr, err := tree.ForCounting(g)
	if err != nil {
		return nil, fmt.Errorf("sim: bridge spanning tree: %w", err)
	}
	leaves := make([]int, 0, n-1) // filled once the protocol names its root
	b := &Bridge{
		cfg:      cfg,
		pipeline: pipeline,
		sub:      ring.NewLanes[bridgeOp](),
		done:     make(chan struct{}),
		pumpExit: make(chan struct{}),
		leaves:   leaves,
	}
	// Read once: the call takes the scheduler lock.
	if runtime.GOMAXPROCS(0) > 1 {
		b.idlePoll = pumpIdlePoll
	} else {
		b.yieldEvery = freeRunYield
	}
	table := &grantTable{}
	var bp BridgeProtocol
	if cfg.Proto != nil {
		bp, err = cfg.Proto(g, tr, table)
		if err != nil {
			return nil, fmt.Errorf("sim: bridge protocol: %w", err)
		}
	} else {
		central := NewCentral(tr, cfg.Queue, table, 0)
		bp = &central
	}
	root := tr.Root()
	if r, ok := bp.(rooted); ok {
		root = r.Root()
	}
	for v := 0; v < n; v++ {
		if v != root {
			b.leaves = append(b.leaves, v)
		}
	}
	nw := New(Config{Graph: g, Capacity: cfg.Capacity, Delay: cfg.Delay}, bp)
	go b.pump(nw, bp, table)
	return b, nil
}

// SimStats reports the simulated rounds stepped and protocol messages
// sent — the simulated-time cost behind the wall-clock latencies. The
// figures are current as of the last round that granted an operation;
// exact once the network is idle. Safe from any goroutine.
func (b *Bridge) SimStats() (rounds, messages int64) {
	return b.simRounds.Load(), b.simMsgs.Load()
}

// Close stops the pump after it drains every accepted operation, then
// fails anything that raced into the submit lanes against the shutdown.
// Safe to call more than once.
func (b *Bridge) Close() error {
	b.closeMu.Lock()
	b.closed = true
	b.closeMu.Unlock()
	b.stop.Do(func() { close(b.done) })
	<-b.pumpExit
	// No sender can be mid-publish now (the closed flag is checked under
	// closeMu before every publish, and the pump stayed alive until the
	// flag flipped), so the lanes and request mailboxes hold only
	// operations that beat the flag; complete them with the close error.
	// The pump is gone, so this goroutine is their consumer; drainOnce
	// keeps concurrent Close calls from sweeping them twice.
	b.drainOnce.Do(func() { b.failLanes(errBridgeClosed) })
	return nil
}

// send publishes an operation, fenced against Close: an async one into
// the session's lane, a sync one into its request mailbox. An error means
// the operation was not accepted and no grant will arrive.
//
//countq:hotpath
//countq:role=producer
func (s *bridgeSession) send(ctx context.Context, o bridgeOp) error {
	s.b.closeMu.RLock()
	if s.b.closed {
		s.b.closeMu.RUnlock()
		return errBridgeClosed
	}
	if o.async {
		// The pump is alive for as long as this read lock is held (Close
		// flips the flag before signalling it to exit), so a full lane
		// drains and this publish cannot spin indefinitely.
		for !s.lane.Push(o) {
			if err := ctx.Err(); err != nil {
				s.b.closeMu.RUnlock()
				return err
			}
			s.b.sub.Wake()
			runtime.Gosched()
		}
		s.b.sub.Wake()
	} else {
		// The mailbox is free: roundTrip waits for the last request's take.
		s.req.Post(o.seq, o)
		s.b.sub.WakeMailbox()
	}
	s.b.closeMu.RUnlock()
	return nil
}

// NewSession pins a new session to the next leaf node round-robin. Several
// sessions may share a leaf; their operations are distinguished by token.
// It fills the session's free ring before anyone else can see the ring;
// from then on the pump (or Close, once the pump is gone) is its producer.
//
//countq:role=producer
func (b *Bridge) NewSession() (countq.Session, error) {
	i := b.nextLeaf.Add(1) - 1
	s := &bridgeSession{
		b:     b,
		node:  b.leaves[int(i%uint64(len(b.leaves)))],
		out:   make(chan countq.Completion, b.pipeline),
		slots: make([]countq.Op, b.pipeline),
		free:  ring.New[uint32](b.pipeline + 1),
	}
	for slot := 0; slot < b.pipeline; slot++ {
		s.free.Push(uint32(slot))
	}
	s.ev.Init()
	s.lane = b.sub.NewLane(b.pipeline)
	b.sub.AddMailbox(&s.req)
	return s, nil
}

// pump is the network clock: it injects submitted operations, advances one
// simulated round per hop latency, and exits — after draining everything
// accepted — when the bridge is closed.
func (b *Bridge) pump(nw *Network, bp BridgeProtocol, table *grantTable) {
	defer close(b.pumpExit)
	b.pumpLoop(nw, bp, table)
}

// inject sweeps what sessions posted since the last sweep and issues it
// into the protocol. When nothing was posted it returns 0 after one load
// of the mark, touching no lane and no mailbox.
//
//countq:hotpath
//countq:role=consumer
func (b *Bridge) inject(env *Env, bp BridgeProtocol, table *grantTable) int {
	lanes, boxes := b.sub.Claim()
	if !lanes && !boxes {
		return 0
	}
	ops := b.sweep(lanes, boxes)
	for i := range ops {
		o := &ops[i]
		node := int(o.node)
		bp.Issue(env, node, table.add(*o), b.issueOp(o.arg))
		env.Wake(node)
	}
	return len(ops)
}

// sweep drains into the scratch buffer every session lane (if lanes), then
// every request mailbox (if boxes), each in registration order, which is
// session-creation order, so injection stays deterministic for a fixed
// session set. The returned slice is valid until the next sweep.
//
//countq:hotpath
//countq:role=consumer
func (b *Bridge) sweep(lanes, boxes bool) []bridgeOp {
	ops := b.scratch[:0]
	if lanes {
		for _, lane := range b.sub.Snapshot() {
			if !lane.Empty() {
				ops = lane.DrainTo(ops)
			}
		}
	}
	if boxes {
		for _, box := range b.sub.Mailboxes() {
			if _, o, ok := box.Take(); ok {
				ops = append(ops, o)
			}
		}
	}
	if cap(ops) > cap(b.scratch) {
		b.scratch = ops // written only when it grew: sessions read this line
	}
	return ops
}

// issueOp rebuilds the Op an operation is issued as from the bridge's
// kind and the operation's argument: Issue reads only Kind, N and ID.
//
//countq:hotpath
func (b *Bridge) issueOp(arg int64) countq.Op {
	if b.cfg.Queue {
		return countq.Op{Kind: countq.OpEnqueue, ID: arg}
	}
	return countq.Op{Kind: countq.OpInc, N: arg}
}

// pumpLoop is the pump's steady state: allocation-free once the grant
// table, the scratch buffer and the engine's buffers have grown to the
// workload's high-water mark. A round where a session has posted begins
// with one lane sweep that batch-injects every waiting submission, so
// concurrent sessions contend inside the simulation (queued at the
// protocol's capacity) rather than in the transport; any other round
// costs Network.Step and a load of the lanes' mark. When everything is
// idle the pump publishes SimStats, spins briefly and then parks on the
// lanes' eventcount; it observes Close only there, which every drain
// reaches before the pump may exit.
//
//countq:hotpath
//countq:role=consumer
func (b *Bridge) pumpLoop(nw *Network, bp BridgeProtocol, table *grantTable) {
	env := nw.Env()
	if err := nw.Begin(); err != nil {
		b.fail(table, err)
		return
	}
	closing := false
	stale := false // rounds were stepped since SimStats was last published
	idle := 0
	for {
		injected := b.inject(env, bp, table)
		if table.live == 0 && nw.Quiescent() {
			if stale {
				b.publishStats(nw)
				stale = false
			}
			if closing {
				if injected == 0 {
					// Closed, drained, quiescent: this very inject found
					// nothing (every accepted send posted the mark before
					// Close could raise the closed flag, so nothing is
					// left unposted) and no publish can start once the flag
					// is up, so exit. Close sweeps once more for operations
					// that beat the flag.
					return
				}
				continue
			}
			if injected > 0 {
				// Everything injected was granted without routing (a
				// protocol fast path, e.g. arrow's local tail): nothing to
				// step, so spend no hop latency and sweep again.
				idle = 0
				continue
			}
			// Idle: re-poll without yielding once, spin-yield a little (a
			// spinning sync session's next op lands within the budgets),
			// then park on the eventcount.
			select {
			case <-b.done:
				closing = true
				continue
			default:
			}
			for polls := 0; idle == 0 && polls < b.idlePoll && injected == 0; polls++ {
				injected = b.inject(env, bp, table)
			}
			if injected > 0 {
				continue
			}
			if idle < pumpIdleSpin {
				idle++
				runtime.Gosched()
				continue
			}
			b.sub.Prepare()
			if b.inject(env, bp, table) > 0 {
				// Work raced in before the parked flag was visible; its
				// publisher saw no parked consumer and sent no signal, but
				// it posted the mark before loading the flag, so this
				// inject's Claim sees it (see ring.Lanes.Claim).
				b.sub.Unpark()
				idle = 0
				continue
			}
			select {
			case <-b.sub.WakeChan():
				idle = 0
			case <-b.done:
				b.sub.Unpark()
				closing = true
			}
			continue
		}
		idle = 0
		b.sleepHop()
		live := table.live
		table.handoff = false
		if err := nw.Step(); err != nil {
			b.fail(table, err)
			return
		}
		// Publish after a round that granted an operation (table.live fell
		// across Step); a round that granted nothing leaves its figures to
		// the next grant or to the idle branch.
		stale = table.live == live
		if !stale {
			b.publishStats(nw)
		}
		if table.handoff && b.yieldsOnHandoff() {
			runtime.Gosched()
		}
	}
}

// yieldsOnHandoff reports whether the pump yields once after a round in
// which a grant was handed straight to a reaper parked on Completions
// (settle's report). The send that readied the reaper put it in the runnext
// slot of the pump's P, and another P steals from a running P's runnext
// only after a usleep(3) (runqgrab in runtime/proc.go): left alone, the
// reaper waits about 3 µs for its completion, or until the pump goes idle.
// The yield runs it on the pump's P at once, and the pump carries on from
// the global run queue on the other P. Like the idle poll this needs a
// second P; on one P the reaper runs when the pump gives the P up, which
// freeRunYield and the idle branch already arrange. Grants made inside
// inject (a protocol that serves an operation on the spot) do not count:
// yielding after them too read 1-3 % fewer list64-pipe-queue operations
// per second (three alternating 3 s pairs on a 2-vCPU host).
func (b *Bridge) yieldsOnHandoff() bool { return b.idlePoll > 0 }

// publishStats mirrors the network's round and message counts into the
// fields SimStats reads.
//
//countq:hotpath
func (b *Bridge) publishStats(nw *Network) {
	st := nw.Stats()
	b.simRounds.Store(int64(st.Rounds))
	b.simMsgs.Store(int64(st.MessagesSent))
}

// failLanes sweeps every session lane and request mailbox and resolves
// what it takes with err. Runs on whichever goroutine currently owns the
// consumer role (the pump, or Close after the pump exited).
func (b *Bridge) failLanes(err error) {
	for _, o := range b.sweep(true, true) {
		settle(o, 0, err)
	}
}

// fail resolves everything pending with err and then answers every further
// submission with it until the bridge is closed.
//
//countq:role=consumer
func (b *Bridge) fail(table *grantTable, err error) {
	table.failAll(err)
	for {
		b.failLanes(err)
		b.sub.Prepare()
		b.failLanes(err) // re-sweep: a publish may have raced the parked flag
		select {
		case <-b.sub.WakeChan():
		case <-b.done:
			b.sub.Unpark()
			// done closed ⟹ the closed flag is up and no publish is in
			// flight; one final sweep leaves the lanes empty for Close.
			b.failLanes(err)
			return
		}
	}
}

// sleepHop spends one hop latency of wall time. Zero latency spends
// nearly nothing — the pump runs rounds back to back, on one P yielding
// only every yieldEvery rounds, which on a loaded single-core box is what
// lets a spinning session's short round trip finish in two scheduler
// switches while still letting waiters run under a grant the protocol
// holds across many rounds (with more Ps it does not yield here; see
// freeRunYield). Short latencies spin with Gosched
// (time.Sleep's timer floor would inflate sub-50µs hops by an order of
// magnitude); long ones sleep.
//
//countq:hotpath clocks=2
func (b *Bridge) sleepHop() {
	d := b.cfg.HopLat
	switch {
	case d <= 0:
		if b.yieldEvery == 0 {
			return
		}
		b.spinRounds++
		if b.spinRounds >= b.yieldEvery {
			b.spinRounds = 0
			runtime.Gosched()
		}
	case d < 50*time.Microsecond:
		t0 := time.Now()
		for time.Since(t0) < d {
			runtime.Gosched()
		}
	default:
		time.Sleep(d)
	}
}

// bridgeSession is one worker's conversation with the bridge. Owned by one
// goroutine, like every Session.
type bridgeSession struct {
	b    *Bridge
	node int
	// lane is the session's private submit ring; the pump sweeps it in a
	// round after some session posted to the bridge's lanes.
	lane *ring.SPSC[bridgeOp]
	out  chan countq.Completion
	// slots holds each accepted async operation's Op until settle echoes
	// it in the Completion; free carries the unused slot indices back from
	// the pump, so an empty free ring is a full pipeline.
	slots []countq.Op
	free  *ring.SPSC[uint32]
	// syncSeq is the sequence of the last accepted sync request.
	syncSeq uint64
	// req carries the session's one live sync request to the pump (a
	// session has one owner, so one round trip at a time); reply carries
	// its grant back under the same sequence, and ev is the parked
	// waiter's signal for it. The fields above fill the first 72 bytes, so
	// in a session (576-byte size class, so 64-byte aligned) each
	// mailbox's sequence and value sit on one line, and ev on a line the
	// session writes only to park (TestMailboxLinesLayout).
	req   ring.Mailbox[bridgeOp]
	ev    ring.Event
	reply ring.Mailbox[syncReply]
	// abandoned is set when the last round trip returned before its
	// grant, so its request may still wait for the pump.
	abandoned bool
}

// errBridgeClosed reports operations against a closed bridge.
var errBridgeClosed = fmt.Errorf("sim: bridge is closed")

// awaitTaken waits until the pump has taken the request of the last
// round trip, which returned before its grant: posting over it would lose
// an accepted operation. Cold — only after a cancelled round trip.
func (s *bridgeSession) awaitTaken(ctx context.Context) error {
	for s.req.Taken() < s.syncSeq {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-s.b.pumpExit:
			return errBridgeClosed
		default:
		}
		runtime.Gosched()
	}
	s.abandoned = false
	return nil
}

// roundTrip submits the operation with argument arg and blocks for its
// grant — the synchronous view of the asynchronous protocol. The wait
// polls the reply mailbox through the pump's turn first (the uncontended
// path completes without parking), then parks on the session eventcount.
//
//countq:hotpath
//countq:role=consumer
func (s *bridgeSession) roundTrip(ctx context.Context, arg int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.abandoned {
		if err := s.awaitTaken(ctx); err != nil {
			return 0, err
		}
	}
	seq := s.syncSeq + 1
	if err := s.send(ctx, bridgeOp{sess: s, arg: arg, seq: seq, node: int32(s.node)}); err != nil {
		return 0, err
	}
	s.syncSeq = seq
	polls, spins := s.b.idlePoll, 0
	for {
		if r, ok := s.reply.Read(seq); ok {
			return r.val, r.err
		}
		if polls > 0 {
			polls--
			continue
		}
		if spins < syncSpin {
			spins++
			runtime.Gosched()
			continue
		}
		s.ev.Prepare()
		if r, ok := s.reply.Read(seq); ok {
			// The grant raced in before the parked flag was visible.
			s.ev.Unpark()
			return r.val, r.err
		}
		select {
		case <-s.ev.WakeChan():
			spins = 0
		case <-ctx.Done():
			// The operation was accepted and will still execute; its grant
			// is abandoned (see AsyncSession's contract on cancellation).
			s.ev.Unpark()
			s.abandoned = true
			return 0, ctx.Err()
		case <-s.b.pumpExit:
			// The pump exited; prefer a grant that beat it out the door.
			s.ev.Unpark()
			if r, ok := s.reply.Read(seq); ok {
				return r.val, r.err
			}
			s.abandoned = true
			return 0, errBridgeClosed
		}
	}
}

// Inc implements countq.Session (counting bridges only).
//
//countq:hotpath
func (s *bridgeSession) Inc(ctx context.Context) (int64, error) {
	if s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpInc})
	}
	return s.roundTrip(ctx, 1)
}

// IncN implements countq.BatchSession: one request message grants the
// whole block in a single round trip — the batching escape hatch priced at
// exactly one coordination round.
func (s *bridgeSession) IncN(ctx context.Context, n int64) (int64, error) {
	if s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpInc})
	}
	if n < 1 {
		return 0, fmt.Errorf("sim: IncN(%d): block size must be ≥ 1", n)
	}
	if int64(int(n)) != n {
		return 0, fmt.Errorf("sim: IncN(%d): block size overflows the message payload", n)
	}
	return s.roundTrip(ctx, n)
}

// Enqueue implements countq.Session (queue bridges only).
//
//countq:hotpath
func (s *bridgeSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if !s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpEnqueue})
	}
	if int64(int(id)) != id || id < 0 {
		return 0, s.badID(id)
	}
	return s.roundTrip(ctx, id)
}

// wrongKind reports an operation the bridge side does not serve: the
// other side's kind, or no known kind at all.
func (s *bridgeSession) wrongKind(op countq.Op) error {
	side := "counter"
	if s.b.cfg.Queue {
		side = "queue"
	}
	return fmt.Errorf("sim: %v on a %s bridge session: %w", op.Kind, side, countq.ErrUnsupported)
}

// badID reports an enqueue id outside the message payload range.
func (s *bridgeSession) badID(id int64) error {
	return fmt.Errorf("sim: Enqueue id %d outside the message payload range", id)
}

// Submit implements countq.AsyncSession: the operation is queued for
// injection and its Completion arrives on Completions. An error means the
// operation was not accepted. The operation's Op waits in a free slot,
// which Submit takes off the free ring only once the operation is
// accepted, so a rejected one leaves the ring as it was.
//
//countq:hotpath
//countq:role=consumer
func (s *bridgeSession) Submit(ctx context.Context, op countq.Op) error {
	want := countq.OpInc
	if s.b.cfg.Queue {
		want = countq.OpEnqueue
	}
	if op.Kind != want {
		return s.wrongKind(op)
	}
	if op.Kind == countq.OpEnqueue && (int64(int(op.ID)) != op.ID || op.ID < 0) {
		return s.badID(op.ID)
	}
	if op.Kind == countq.OpInc && int64(int(op.N)) != op.N {
		return fmt.Errorf("sim: IncN(%d): block size overflows the message payload", op.N)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	slot, ok := s.free.Peek()
	if !ok {
		return fmt.Errorf("sim: bridge session pipeline full (%d operations outstanding)", s.b.pipeline)
	}
	s.slots[slot] = op
	arg := op.N
	if s.b.cfg.Queue {
		arg = op.ID
	}
	if err := s.send(ctx, bridgeOp{sess: s, arg: arg, seq: uint64(slot), node: int32(s.node), async: true}); err != nil {
		return err
	}
	// The pump may already have settled the operation and pushed the slot
	// back behind the others; this takes the copy at the head.
	s.free.Pop()
	return nil
}

// outstanding is how many accepted operations the pump has not yet
// settled or taken: the slots not on the free ring, and a sync request
// still waiting in the mailbox.
func (s *bridgeSession) outstanding() int {
	n := s.b.pipeline - s.free.Len()
	if s.req.Taken() < s.syncSeq {
		n++
	}
	return n
}

// Completions implements countq.AsyncSession.
func (s *bridgeSession) Completions() <-chan countq.Completion {
	return s.out
}

// Close drains any unconsumed async completions (their operations have
// executed; abandoning them is the caller's choice), waits for the pump to
// take a sync request a cancelled round trip left behind, unregisters the
// session's lane and mailbox from the pump's sweep set and detaches the
// session. The
// channel itself is never closed — consumers track their own outstanding
// count. It waits until every slot is back on the free ring; the pump
// sends the last completion a moment after freeing its slot, so that one
// can land in the channel after Close has drained it.
func (s *bridgeSession) Close() error {
	if s.outstanding() > 0 {
		// The outstanding completions arrive as the pump settles their
		// operations; re-check on a reused timer rather than allocating one
		// per poll.
		timer := time.NewTimer(10 * time.Millisecond)
		defer timer.Stop()
		for s.outstanding() > 0 {
			select {
			case <-s.out:
				if !timer.Stop() {
					<-timer.C
				}
			case <-s.b.pumpExit:
				// Pump gone; the bridge's close sweep settles whatever is
				// still in the lane or mailbox, so leave them registered.
				return nil
			case <-timer.C:
			}
			timer.Reset(10 * time.Millisecond)
		}
	}
	for {
		select {
		case <-s.out:
		default:
			s.b.sub.Remove(s.lane)
			s.b.sub.RemoveMailbox(&s.req)
			return nil
		}
	}
}
