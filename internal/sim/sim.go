// Package sim is a deterministic synchronous message-passing network
// simulator implementing the machine model of Section 2.1 of Busch &
// Tirthapura: a connected undirected graph of processors with reliable FIFO
// links of delay one, where each processor sends at most c and receives at
// most c messages per time step (c = 1 in the paper's base model; c = deg
// reproduces the "expanded time step" device used for the arrow protocol).
//
// Each round proceeds as: deliver messages sent last round into per-node
// inbox queues; each node receives up to c queued messages (handler runs);
// optional per-round tick; each node sends up to c queued outgoing messages.
// A message received in round t can therefore be forwarded in round t, and
// arrives at the neighbor in round t+1 — information travels at most one hop
// per round, the speed assumed by the paper's latency lower bounds.
//
// Messages that arrive beyond the receive capacity queue up FIFO: the
// simulator measures contention rather than wishing it away, which is what
// makes the star-graph experiment come out Θ(n²) by measurement.
//
// The round engine (engine v2) is steady-state allocation-free: in-flight
// messages live on a power-of-two timing wheel indexed by arrival round,
// buckets are kept in global sequence order by a back-scan insertion at
// send time (so deliverPhase never sorts), per-directed-link FIFO clamps
// read a dense CSR-indexed array instead of a map (and are skipped
// entirely under unit delays, where they can never bind), and quiescence
// is three counters rather than a scan. A round costs what it carries:
// the receive, tick and send phases walk per-node bitmaps (active sets)
// instead of scanning all n nodes, so an idle node costs 1/64 of a word
// test. See DESIGN.md "Engine v2".
//
// Cold start and recycling: a one-shot run never reaches steady state, so
// what New would allocate and the first rounds would grow — the inbox and
// outbox arrays with every queue's grown buffer, the wheel and its buckets,
// the per-node columns and bitmaps, the adjacency table, the per-edge clamp
// state — is a scratch drawn from a package-private sync.Pool and fitted to
// the graph: emptied and zeroed, capacity kept. The package-level Run owns
// the lifetime (New, Network.Run, scratch back to the pool; the Network then
// reports "sim: network released"). A Network from New is never released:
// whoever can still reach it keeps its buffers for good. Stats.Received
// leaves with the returned Stats and is never pooled. The pool is hidden, not
// an exported arena or a Config field, because there is nothing to decide:
// the GC bounds what it retains, and all that survives fitting is capacity
// and the wheel's grown size, on which no delivery, statistic or error may
// depend. It is unreachable from Step, so simdet still covers the round loop.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Message is a network message. From/To are set by Send; Kind and the
// integer payload fields are protocol-defined. Using plain ints keeps the
// hot loop allocation-free.
type Message struct {
	From, To int
	Kind     int
	A, B, C  int // protocol payload (e.g. operation id, origin, count)
	sentAt   int // round the message entered the wire
	seq      int // global sequence number, for deterministic ordering
}

// SentAt reports the round in which the message was transmitted.
func (m Message) SentAt() int { return m.sentAt }

// Protocol is the per-node behavior run by the simulator. Start runs once
// for every node before round 1 (the paper's "time zero", where one-shot
// operations are issued). Deliver runs when a node receives a message.
// Handlers communicate only through Env.
type Protocol interface {
	Start(env *Env, node int)
	Deliver(env *Env, node int, m Message)
}

// Ticker is an optional extension: Tick runs for every node each round after
// the receive phase, for protocols that act on timeouts rather than messages.
type Ticker interface {
	Tick(env *Env, node int)
}

// WakeTicker is a Ticker that declares itself idle at untouched nodes: its
// Tick is a no-op at any node that had no Deliver this round and no
// Env.Wake since its last Tick. The engine then ticks only those nodes, in
// ascending node order, so a round's tick pass costs the nodes that have
// work rather than n. A protocol whose Tick acts on the passage of time
// alone (a timeout, a schedule) must stay a plain Ticker — or Wake itself.
type WakeTicker interface {
	Ticker
	// TicksOnWake is the declaration; it is never called.
	TicksOnWake()
}

// Scheduler is an optional extension for long-lived protocols that inject
// work at future times (usually from Tick): the network keeps running until
// PendingUntil even if it is momentarily quiescent. PendingUntil is
// re-polled every round, so protocols with internal timers (token holding,
// critical sections) can extend it as they run.
type Scheduler interface {
	// PendingUntil returns the last round at which the protocol will
	// spontaneously create work, as currently known.
	PendingUntil() int
}

// Config describes a simulation instance.
type Config struct {
	Graph    *graph.Graph
	Capacity int // per-node send and receive budget per round; 0 means 1
	// Strict makes Run fail if any message ever has to queue behind the
	// capacity limit — i.e. if the protocol violates the at-most-c model
	// of Section 2.1 instead of merely being slowed by it.
	Strict bool
	// MaxRounds bounds the simulation; 0 means a generous default
	// proportional to n². Run fails if the bound is hit before quiescence.
	MaxRounds int
	// Delay chooses the link-delay model; nil means UnitDelay (the
	// paper's synchronous model). FIFO order per directed link is
	// preserved under every model.
	Delay DelayModel
	// TrackPerNode enables the per-node received-message counts in Stats.
	TrackPerNode bool
}

// Stats summarizes a run. Step keeps Rounds current after every round, so
// step-driven callers (the countq bridge) can read simulated time through
// Network.Stats at any point, not just after Run.
type Stats struct {
	Rounds           int // rounds executed so far (until quiescence for Run)
	MessagesSent     int
	MaxInboxBacklog  int // worst queue behind the receive capacity
	MaxOutboxBacklog int // worst queue behind the send capacity
	// Visited counts receive-phase node visits: nodes whose inbox the
	// engine looked at, whether or not anything in it had arrived. It is
	// what a round costs the engine beyond the messages themselves, so
	// tests hold it against messages delivered instead of timing Step.
	Visited int
	// Received counts messages delivered per node — the load profile
	// that exposes hot spots (e.g. the star hub, a counting root).
	// Populated only when Config.TrackPerNode is set.
	Received []int
}

// HottestNode returns the node with the most received messages and its
// count, or (-1, 0) when per-node tracking was off or nothing was received.
func (s Stats) HottestNode() (node, received int) {
	node = -1
	for v, r := range s.Received {
		if r > received {
			node, received = v, r
		}
	}
	return node, received
}

// Env is the interface handlers use to interact with the network.
type Env struct {
	g        *graph.Graph
	n        int     // g.N(), cached for the hot paths
	adj      [][]int // g.Neighbors(v) for every v — graphs are immutable
	capacity int
	strict   bool
	delay    DelayModel
	// unitDelay marks the paper's synchronous model (every delay is
	// exactly 1). Then arrival rounds are monotone per link by
	// construction, so the FIFO clamp can never bind and the per-edge
	// state is skipped entirely on the send path.
	unitDelay bool
	round     int
	seq       int

	inbox  []msgQueue
	outbox []msgQueue

	// Active sets, one bit per node in ascending node order: inActive[v]
	// is set while inbox[v] is non-empty (arrived or not), outActive[v]
	// while outbox[v] is, and wake[v] when node v is due a Tick. Bits are
	// set where messages are pushed and cleared where a queue drains; the
	// phases walk set bits with TrailingZeros64 in ascending node order,
	// the order sequence numbers, Stats and the golden traces are defined
	// by.
	inActive  []uint64
	outActive []uint64
	wake      []uint64

	// Per-inbox sort floor for the unit-delay direct-delivery path: the
	// seq back-scan may only reorder messages inserted for the upcoming
	// round (arrival round round+1), never earlier arrivals — and the
	// receive phase must not touch entries above the floor, which have
	// not arrived yet. inStamp[v] records which arrival round inFloor[v]
	// belongs to.
	inFloor []int
	inStamp []int

	// Per-node send budget already spent this round via the direct
	// Send fast path (unit delay, no outbox leftovers): sendPhase drains
	// only capacity-sendUsed more. sendStamp[v] keys sendUsed[v] to a
	// round, avoiding an O(n) reset every round.
	sendUsed  []int
	sendStamp []int

	// Timing wheel: wheel[at&wheelMask] holds the messages arriving in
	// round at. Every in-flight message satisfies round < at ≤
	// round+len(wheel) (growWheel maintains this), so each bucket holds
	// messages of exactly one arrival round and deliverPhase drains one
	// bucket per round in O(bucket). Buckets are kept seq-sorted by
	// insertion, so no per-round sort is needed.
	wheel     [][]Message
	wheelMask int

	// O(1) quiescence: counters instead of scanning every queue.
	flying    int // scheduled on the wheel, not yet delivered
	queuedIn  int // total inbox backlog
	queuedOut int // total outbox backlog

	// Dense per-directed-edge FIFO clamp state (non-unit delays only):
	// last scheduled arrival for edge (v, Neighbors(v)[k]) lives at
	// edgeLast[edgeOff[v]+k], with k found by binary search over the
	// sorted neighbor list.
	edgeOff  []int
	edgeLast []int

	stats Stats
	err   error
}

// msgQueue is a FIFO of messages with an amortized O(1) pop.
type msgQueue struct {
	buf  []Message
	head int
}

func (q *msgQueue) push(m Message) { q.buf = append(q.buf, m) }

func (q *msgQueue) pop() (Message, bool) {
	if q.head >= len(q.buf) {
		return Message{}, false
	}
	m := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m, true
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

// setBit and clearBit mark node v in an active set.
func setBit(set []uint64, v int)   { set[v>>6] |= 1 << (uint(v) & 63) }
func clearBit(set []uint64, v int) { set[v>>6] &^= 1 << (uint(v) & 63) }

// initialWheel is the starting wheel size; it covers every delay the
// bundled models produce at their defaults and doubles on demand.
const initialWheel = 16

// New prepares a simulation of p on the configured graph. Its buffers come
// from the scratch pool and are the caller's for as long as it keeps the
// Network; only the package-level Run hands them back.
func New(cfg Config, p Protocol) *Network {
	if cfg.Graph == nil {
		panic("sim: nil graph")
	}
	cap := cfg.Capacity
	if cap <= 0 {
		cap = 1
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		n := cfg.Graph.N()
		maxRounds = 100*n*n + 10000
	}
	delay := cfg.Delay
	if delay == nil {
		delay = UnitDelay{}
	}
	_, unit := delay.(UnitDelay)
	n := cfg.Graph.N()
	nw := &Network{
		proto:     p,
		maxRounds: maxRounds,
		scratch:   scratchPool.Get().(*scratch),
		env: Env{
			g:         cfg.Graph,
			n:         n,
			capacity:  cap,
			strict:    cfg.Strict,
			delay:     delay,
			unitDelay: unit,
		},
	}
	nw.scratch.fit(&nw.env)
	if cfg.TrackPerNode {
		nw.env.stats.Received = make([]int, n)
	}
	nw.ticker, _ = p.(Ticker)
	nw.sched, _ = p.(Scheduler)
	_, nw.wakeTicks = p.(WakeTicker)
	if nw.ticker != nil && !nw.wakeTicks {
		// A plain Ticker is every node, every round: fill the wake set once
		// and never clear it, so one loop in Step serves both contracts.
		for v := 0; v < n; v++ {
			setBit(nw.env.wake, v)
		}
	}
	return nw
}

// Run simulates p on the configured graph to quiescence: New, Network.Run,
// and the network's buffers handed back for the next run — the form for
// one-shot executions, which otherwise pay more for growing n inboxes from
// nothing than for the messages they carry.
func Run(cfg Config, p Protocol) (Stats, error) {
	nw := New(cfg, p)
	stats, err := nw.Run()
	nw.release()
	return stats, err
}

// Network couples a Protocol with an Env and executes rounds — to
// quiescence with Run, or one round at a time with Begin/Step/Quiescent
// for drivers that advance the simulation on their own clock (the countq
// bridge maps each Step to a configurable wall-clock hop latency).
type Network struct {
	proto     Protocol
	ticker    Ticker    // proto's Ticker view, nil if not implemented
	wakeTicks bool      // proto is a WakeTicker: the tick pass consumes the wake set
	sched     Scheduler // proto's Scheduler view, nil if not implemented
	maxRounds int
	scratch   *scratch // owner of env's buffers; nil once released
	env       Env
}

// Env exposes the environment, for protocols that need to inspect state
// after the run (e.g. to read rounds for delay accounting).
func (nw *Network) Env() *Env { return &nw.env }

// Stats returns a snapshot of the run statistics so far. Step keeps
// Stats.Rounds current, so step-driven callers can report simulated rounds
// without waiting for quiescence. The Received slice (when per-node
// tracking is on) is shared with the live run, not copied.
func (nw *Network) Stats() Stats { return nw.env.stats }

// Begin runs round 0: the protocol's Start hook for every node, then the
// initial send phase. Run calls it implicitly; step-driven callers invoke
// it once before the first Step.
func (nw *Network) Begin() error {
	if nw.scratch == nil {
		return errReleased
	}
	e := &nw.env
	for v := 0; v < e.n; v++ {
		nw.proto.Start(e, v)
		if e.err != nil {
			return e.err
		}
	}
	e.sendPhase()
	return e.err
}

// Step executes one simulation round unconditionally: deliver messages
// whose flight ends this round, let each node receive up to capacity (the
// protocol's Deliver runs), tick, then send up to capacity per node. It
// reports a protocol failure or strict-mode violation; callers impose
// their own round bounds.
//
//countq:hotpath
func (nw *Network) Step() error {
	if nw.scratch == nil {
		return errReleased
	}
	e := &nw.env
	e.round++
	e.stats.Rounds = e.round
	if !e.unitDelay {
		e.deliverPhase()
	}
	// Receive phase: each node with a non-empty inbox handles up to
	// capacity messages that have arrived. Under unit delay Send inserts
	// next-round messages directly into inboxes mid-phase, so eligibility
	// is capped at the floor — entries above it arrive next round. The
	// inbox is drained in place; handlers can only append (via Send), never
	// consume. Each word of the active set is read once, before its nodes
	// run: a bit a handler sets in it meanwhile is a next-round arrival,
	// which the floor guard would skip anyway (in a later word it costs one
	// visit that takes nothing). Under non-unit delay handlers never touch
	// an inbox.
	for w, word := range e.inActive {
		for word != 0 {
			v := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.stats.Visited++
			q := &e.inbox[v]
			avail := q.len()
			if e.inStamp[v] == e.round+1 {
				avail = e.inFloor[v] - q.head
			}
			take := avail
			if take > e.capacity {
				take = e.capacity
			}
			if take > 0 {
				if e.stats.Received != nil {
					e.stats.Received[v] += take
				}
				setBit(e.wake, v)
			}
			for k := 0; k < take; k++ {
				m := q.buf[q.head]
				q.head++
				nw.proto.Deliver(e, v, m)
				if e.err != nil {
					if e.stats.Received != nil {
						e.stats.Received[v] -= take - k - 1
					}
					e.queuedIn -= k + 1
					return e.err
				}
			}
			e.queuedIn -= take
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
				clearBit(e.inActive, v)
			} else if q.head > 32 && q.head*2 >= len(q.buf) {
				// The consumed prefix can't be reclaimed by the drained-queue
				// reset when direct inserts keep the tail non-empty; slide the
				// live region down once the dead prefix dominates.
				h := q.head
				live := copy(q.buf, q.buf[h:])
				q.buf = q.buf[:live]
				q.head = 0
				if e.inStamp[v] == e.round+1 {
					e.inFloor[v] -= h
				}
			}
			if backlog := avail - take; backlog > e.stats.MaxInboxBacklog {
				e.stats.MaxInboxBacklog = backlog
				if e.strict {
					e.strictViolation("inbox", v, backlog)
					return e.err
				}
			}
		}
	}
	// Tick pass: every node for a plain Ticker (the wake set is all ones
	// and stays so), and for a WakeTicker the nodes that had a Deliver
	// above or an Env.Wake since their last Tick — their bits are consumed
	// here, a word at a time, so a Wake from inside a Tick is kept for a
	// later pass, never lost.
	if nw.ticker != nil {
		for w, word := range e.wake {
			if nw.wakeTicks {
				e.wake[w] = 0
			}
			for word != 0 {
				v := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				nw.ticker.Tick(e, v)
				if e.err != nil {
					return e.err
				}
			}
		}
	}
	e.sendPhase()
	return e.err
}

// Quiescent reports whether no message is queued or in flight.
func (nw *Network) Quiescent() bool { return nw.env.quiescent() }

// Run executes the protocol until the network is quiescent (no queued or
// in-flight messages). It returns the run statistics, or an error if the
// round bound was hit or a strict-mode violation occurred.
func (nw *Network) Run() (Stats, error) {
	e := &nw.env
	if err := nw.Begin(); err != nil {
		return e.stats, err
	}
	for !e.quiescent() || (nw.sched != nil && e.round < nw.sched.PendingUntil()) {
		if e.round+1 > nw.maxRounds {
			return e.stats, fmt.Errorf("sim: round bound %d exceeded (livelock?)", nw.maxRounds)
		}
		if err := nw.Step(); err != nil {
			return e.stats, err
		}
	}
	e.stats.Rounds = e.round
	return e.stats, nil
}

// quiescent reports whether no message is queued or in flight — O(1) via
// the flight and backlog counters.
//
//countq:hotpath
func (e *Env) quiescent() bool {
	return e.flying == 0 && e.queuedIn == 0 && e.queuedOut == 0
}

// strictViolation is the cold failure path for Strict mode.
func (e *Env) strictViolation(queue string, v, backlog int) {
	e.err = fmt.Errorf("sim: strict violation: node %d %s backlog %d in round %d", v, queue, backlog, e.round)
}

// deliverPhase moves messages whose flight ends this round into inbox
// queues. The wheel bucket is already in global sequence order (schedule
// inserts sorted), so delivery is a single pass with no sort.
//
//countq:hotpath
func (e *Env) deliverPhase() {
	b := &e.wheel[e.round&e.wheelMask]
	due := *b
	if len(due) == 0 {
		return
	}
	for i := range due {
		e.inbox[due[i].To].push(due[i])
		setBit(e.inActive, due[i].To)
	}
	e.queuedIn += len(due)
	e.flying -= len(due)
	*b = due[:0]
}

// sendPhase moves up to capacity messages per node from outboxes onto the
// wire. Arrival rounds come from the delay model, clamped so that FIFO
// order per directed link is never violated; under unit delays every
// message lands in the same next-round bucket and the clamp cannot bind,
// so the whole phase runs against one hoisted bucket slice.
//
//countq:hotpath
func (e *Env) sendPhase() {
	if e.unitDelay {
		e.sendPhaseUnit()
		return
	}
	// Nothing below pushes to an outbox, so the active set only shrinks
	// while it is walked.
	for w, word := range e.outActive {
		for word != 0 {
			v := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for k := 0; k < e.capacity; k++ {
				m, ok := e.outbox[v].pop()
				if !ok {
					break
				}
				e.queuedOut--
				m.sentAt = e.round
				at := e.round + 1
				if d := e.delay.Delay(m.From, m.To, m.seq); d > 1 {
					at = e.round + d
				}
				idx := e.edgeOff[m.From] + edgeRank(e.adj[m.From], m.To)
				if prev := e.edgeLast[idx]; at < prev {
					at = prev // preserve per-link FIFO
				}
				e.edgeLast[idx] = at
				e.schedule(m, at)
				e.stats.MessagesSent++
			}
			backlog := e.outbox[v].len()
			if backlog == 0 {
				clearBit(e.outActive, v)
			}
			if backlog > e.stats.MaxOutboxBacklog {
				e.stats.MaxOutboxBacklog = backlog
				if e.strict {
					e.strictViolation("outbox", v, backlog)
				}
			}
		}
	}
}

// sendPhaseUnit is sendPhase for the paper's synchronous model. Most
// messages already went straight to their destination inboxes via Send's
// direct fast path; what remains in the outboxes is overflow past the
// round's send budget (and leftovers from earlier rounds), drained here
// up to whatever budget the direct sends left over.
//
//countq:hotpath
func (e *Env) sendPhaseUnit() {
	for w, word := range e.outActive {
		for word != 0 {
			v := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			q := &e.outbox[v]
			budget := e.capacity
			if e.sendStamp[v] == e.round {
				budget -= e.sendUsed[v]
			}
			take := q.len()
			if take > budget {
				take = budget
			}
			for k := 0; k < take; k++ {
				m := q.buf[q.head]
				q.head++
				m.sentAt = e.round
				e.insertNextRound(m)
			}
			e.queuedOut -= take
			e.stats.MessagesSent += take
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
				clearBit(e.outActive, v)
			}
			if backlog := q.len(); backlog > e.stats.MaxOutboxBacklog {
				e.stats.MaxOutboxBacklog = backlog
				if e.strict {
					e.strictViolation("outbox", v, backlog)
				}
			}
		}
	}
}

// schedule places m on the wheel for arrival round at, keeping the bucket
// in global sequence order. Within one send phase outboxes drain in node
// order and each outbox is already seq-sorted, so insertions arrive in
// ascending runs and the back-scan is O(1) amortized.
//
//countq:hotpath
func (e *Env) schedule(m Message, at int) {
	for at-e.round >= len(e.wheel) {
		e.growWheel()
	}
	b := &e.wheel[at&e.wheelMask]
	s := append(*b, m)
	for i := len(s) - 1; i > 0 && s[i-1].seq > s[i].seq; i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	*b = s
	e.flying++
}

// growWheel doubles the wheel. Every in-flight message has an arrival in
// (round, round+len(wheel)], so each old bucket holds exactly one arrival
// round and moves wholesale to its new slot. Cold: runs at most
// log2(maxDelay) times per simulation.
func (e *Env) growWheel() {
	old := e.wheel
	oldMask := e.wheelMask
	grown := make([][]Message, 2*len(old))
	mask := len(grown) - 1
	for at := e.round + 1; at <= e.round+len(old); at++ {
		if b := old[at&oldMask]; len(b) > 0 {
			grown[at&mask] = b
		}
	}
	e.wheel = grown
	e.wheelMask = mask
}

// edgeRank returns the index of neighbor to in the sorted adjacency list
// nbrs — the dense column offset for the per-edge FIFO clamp.
//
//countq:hotpath
func edgeRank(nbrs []int, to int) int {
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Send queues a message from node from to an adjacent node to. It panics if
// from and to are not neighbors in the communication graph — protocols may
// only use real links.
//
//countq:hotpath
func (e *Env) Send(from, to int, m Message) {
	if from < 0 || from >= e.n {
		panic(fmt.Sprintf("sim: send from out-of-range node %d", from))
	}
	nbrs := e.adj[from]
	if r := edgeRank(nbrs, to); r >= len(nbrs) || nbrs[r] != to {
		panic(fmt.Sprintf("sim: send over non-edge (%d,%d)", from, to))
	}
	m.From = from
	m.To = to
	m.seq = e.seq
	e.seq++
	// Fast path (unit delay): a message inside the round's send budget
	// with no outbox leftovers ahead of it is transmitted this round and
	// arrives next round, unconditionally — skip the outbox and place it
	// in the destination inbox now. The receive phase's floor guard keeps
	// it invisible until it arrives; sendPhase drains only the remaining
	// budget. Everything else queues in the outbox as before.
	if e.unitDelay && e.outbox[from].len() == 0 {
		if e.sendStamp[from] != e.round {
			e.sendStamp[from] = e.round
			e.sendUsed[from] = 0
		}
		if e.sendUsed[from] < e.capacity {
			e.sendUsed[from]++
			m.sentAt = e.round
			e.insertNextRound(m)
			e.stats.MessagesSent++
			return
		}
	}
	e.outbox[from].push(m)
	setBit(e.outActive, from)
	e.queuedOut++
}

// insertNextRound places m, already stamped with sentAt, into its
// destination inbox for arrival in round round+1, keeping the upcoming
// round's slice region in global sequence order. Inserts arrive in
// near-ascending runs, so the bounded back-scan is O(1) amortized; the
// floor keeps it from ever crossing into messages that arrived earlier.
//
//countq:hotpath
func (e *Env) insertNextRound(m Message) {
	in := &e.inbox[m.To]
	floor := e.inFloor[m.To]
	if e.inStamp[m.To] != e.round+1 {
		e.inStamp[m.To] = e.round + 1
		floor = len(in.buf)
		e.inFloor[m.To] = floor
	}
	s := append(in.buf, m)
	for i := len(s) - 1; i > floor && s[i-1].seq > s[i].seq; i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	in.buf = s
	setBit(e.inActive, m.To)
	e.queuedIn++
}

// Round reports the current round number. Start runs in round 0; the first
// deliveries happen in round 1.
func (e *Env) Round() int { return e.round }

// Wake marks node as due a Tick in the next tick pass — for a WakeTicker
// protocol whose state at node changed outside Deliver (the bridge wakes a
// node after each Issue). Under a plain Ticker every node ticks anyway and
// Wake changes nothing.
//
//countq:hotpath
func (e *Env) Wake(node int) { setBit(e.wake, node) }

// N reports the number of nodes.
func (e *Env) N() int { return e.n }

// Graph exposes the communication graph.
func (e *Env) Graph() *graph.Graph { return e.g }

// Capacity reports the per-node per-round send/receive budget.
func (e *Env) Capacity() int { return e.capacity }

// Fail aborts the simulation with err; for protocols that detect internal
// inconsistencies.
func (e *Env) Fail(err error) { e.err = err }
