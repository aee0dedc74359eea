package counting

import (
	"fmt"
	"sort"

	"repro/countq"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Request is one counting operation in a long-lived execution: node Node
// asks for a count at round Time. Operation identifiers are indices into
// the request slice.
type Request = sim.Arrival

// AddRequest is one fetch-and-add operation: node Node adds Amount (≥ 1)
// to the shared accumulator at round Time and receives the inclusive prefix
// sum. Distributed addition is the open problem the paper closes with
// (Fatourou & Herlihy's adding networks, reference [5]); with all amounts
// equal to one it degenerates to counting.
type AddRequest struct {
	Node, Time, Amount int
}

// combiner is the combining-tree counter on a rooted spanning tree, written
// once as a sim.BridgeProtocol: the authoritative counter lives at the
// root; nodes batch their own pending operations together with their
// children's combined demands into a single upstream request per round, and
// split the granted interval back down in batch order. Each node keeps at
// most one request in flight toward the root (Raymond-style), so link
// bandwidth stays within the model's budget while concurrent bursts still
// combine: under bursts the root serves O(children) messages per round
// regardless of the operation rate — counting's classic escape from the hot
// spot, which has no queuing analogue (the paper's point).
//
// This is the message-passing form of software combining, and the natural
// long-lived opponent for the long-lived arrow protocol. Combining runs it
// from an arrival schedule; the sim-tree-counter structure runs it live
// behind the sim bridge. Per-node batches are double-buffered (pending
// accumulates while sent is in flight) so the steady-state op path recycles
// entry storage.
type combiner struct {
	tr     *tree.Tree
	grants sim.Grants
	root   int

	pending  [][]centry // batch accumulating at each node
	demand   []int      // total amount in pending
	inFlight []bool     // an UP is out and its DOWN has not returned
	sent     [][]centry // composition of the in-flight batch
	sum      int        // root's accumulator
}

// centry is one component of a batch: a locally issued operation
// (child == -1) or a child's combined request.
type centry struct {
	child  int // -1 for a local operation
	token  int
	amount int
}

func newCombiner(tr *tree.Tree, grants sim.Grants) combiner {
	n := tr.N()
	return combiner{
		tr:       tr,
		grants:   grants,
		root:     tr.Root(),
		pending:  make([][]centry, n),
		demand:   make([]int, n),
		inFlight: make([]bool, n),
		sent:     make([][]centry, n),
	}
}

func (p *combiner) Start(*sim.Env, int) {}

// TicksOnWake declares the core a sim.WakeTicker: Tick acts only where
// demand is non-zero, which changes only in Issue (the bridge wakes the
// node) and Deliver.
func (p *combiner) TicksOnWake() {}

// Issue records the operation — a block of op.N counts, at least one — in
// its node's accumulating batch; the next Tick flushes it upward, combined
// with everything else that gathered.
//
//countq:hotpath
func (p *combiner) Issue(env *sim.Env, node int, token int, op countq.Op) {
	amt := int(op.N)
	if amt < 1 {
		amt = 1
	}
	p.pending[node] = append(p.pending[node], centry{child: -1, token: token, amount: amt})
	p.demand[node] += amt
}

// Deliver handles combined requests from children and interval grants from
// the parent.
//
//countq:hotpath
func (p *combiner) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindUp:
		p.pending[node] = append(p.pending[node], centry{child: m.From, amount: m.A})
		p.demand[node] += m.A
		// Flushed by this round's Tick, so same-round arrivals combine.
	case kindDown:
		p.distribute(env, node, m.A, m.B)
	default:
		failKind(env, m.Kind)
	}
}

// Tick runs after the round's deliveries: each node flushes its
// accumulated batch — the root serves it, others send one combined UP if
// no batch of theirs is already in flight. Locally issued operations and
// children's demands thus batch into a single upstream message per node per
// round, at no latency cost (Tick precedes the send phase).
//
//countq:hotpath
func (p *combiner) Tick(env *sim.Env, node int) {
	if p.demand[node] == 0 {
		return
	}
	if node == p.root {
		batch := p.pending[node]
		p.pending[node] = batch[:0]
		p.demand[node] = 0
		p.sum = p.assign(env, node, p.sum, batch)
		return
	}
	if p.inFlight[node] {
		return // will flush when the grant returns
	}
	p.inFlight[node] = true
	amount := p.demand[node]
	// Double-buffer swap: the previous sent batch was fully distributed,
	// so its storage backs the next accumulation.
	p.sent[node], p.pending[node] = p.pending[node], p.sent[node][:0]
	p.demand[node] = 0
	env.Send(node, p.tr.Parent(node), sim.Message{Kind: kindUp, A: amount})
}

// assign walks a batch with the exclusive running sum start, granting
// local operations the first value of their block and children
// sub-intervals; it returns the running sum after the batch.
//
//countq:hotpath
func (p *combiner) assign(env *sim.Env, node, start int, batch []centry) int {
	running := start
	for _, e := range batch {
		if e.child == -1 {
			p.grants.Grant(e.token, int64(running+1))
		} else {
			env.Send(node, e.child, sim.Message{Kind: kindDown, A: running, B: e.amount})
		}
		running += e.amount
	}
	return running
}

// distribute splits a granted interval (start, start+width] over the
// node's in-flight batch.
//
//countq:hotpath
func (p *combiner) distribute(env *sim.Env, node, start, width int) {
	batch := p.sent[node]
	p.inFlight[node] = false
	total := 0
	for _, e := range batch {
		total += e.amount
	}
	if total != width {
		failGrant(env, node, width, total)
		return
	}
	p.assign(env, node, start, batch)
	// Demand accumulated while the batch was in flight is flushed by this
	// round's Tick (Deliver precedes Tick within the round).
}

// failKind aborts the simulation on a foreign message kind — out of line so
// the annotated Deliver stays free of cold fmt work.
func failKind(env *sim.Env, kind int) {
	env.Fail(fmt.Errorf("counting: combining tree got unexpected message kind %d", kind))
}

// failGrant aborts on an interval that does not match the in-flight
// batch — a protocol invariant violation, never expected.
func failGrant(env *sim.Env, node, got, want int) {
	env.Fail(fmt.Errorf("counting: node %d granted %d for in-flight batch of %d", node, got, want))
}

// Combining runs the combining tree from an arrival schedule, each
// operation issued under its index in the request slice.
type Combining struct {
	// core is a named field, not embedded: it is a sim.WakeTicker, and this
	// type acts on the passage of time, so it must stay a plain sim.Ticker
	// or scheduled issues at untouched nodes would be skipped.
	core    combiner
	sched   sim.Schedule
	env     *sim.Env
	reqs    []Request
	amounts []int // per-op addend; all ones for pure counting

	value []int
	done  []int
}

// NewCombining prepares a combining-counter run for the given request
// schedule (every operation adds one).
func NewCombining(t *tree.Tree, reqs []Request) (*Combining, error) {
	amounts := make([]int, len(reqs))
	for i := range amounts {
		amounts[i] = 1
	}
	return newCombining(t, append([]Request(nil), reqs...), amounts)
}

// NewAdder prepares a combining fetch-and-add run: a distributed addition
// per the paper's closing open question. Each operation's value is the
// inclusive prefix sum of the addends in the order the root serves them.
func NewAdder(t *tree.Tree, reqs []AddRequest) (*Combining, error) {
	plain := make([]Request, len(reqs))
	amounts := make([]int, len(reqs))
	for i, r := range reqs {
		if r.Amount < 1 {
			return nil, fmt.Errorf("counting: add request %d amount %d < 1", i, r.Amount)
		}
		plain[i] = Request{Node: r.Node, Time: r.Time}
		amounts[i] = r.Amount
	}
	return newCombining(t, plain, amounts)
}

// newCombining takes ownership of both slices.
func newCombining(t *tree.Tree, reqs []Request, amounts []int) (*Combining, error) {
	c := &Combining{
		reqs:    reqs,
		amounts: amounts,
		value:   make([]int, len(reqs)),
		done:    make([]int, len(reqs)),
	}
	c.core = newCombiner(t, c)
	var err error
	if c.sched, err = sim.NewSchedule(t.N(), reqs); err != nil {
		return nil, fmt.Errorf("counting: %w", err)
	}
	for op := range c.done {
		c.done[op] = -1
	}
	return c, nil
}

// PendingUntil implements sim.Scheduler.
func (c *Combining) PendingUntil() int { return c.sched.PendingUntil() }

// Start issues round-zero requests and flushes them (round 0 has no Tick).
func (c *Combining) Start(env *sim.Env, node int) { c.Tick(env, node) }

// Tick issues the requests scheduled at node for this round, then lets the
// core flush everything that accumulated there.
func (c *Combining) Tick(env *sim.Env, node int) {
	c.env = env
	for _, op := range c.sched.Due(env.Round(), node) {
		c.core.Issue(env, node, op, countq.Op{Kind: countq.OpInc, N: int64(c.amounts[op])})
	}
	c.core.Tick(env, node)
}

// Deliver hands the message to the core.
func (c *Combining) Deliver(env *sim.Env, node int, m sim.Message) { c.core.Deliver(env, node, m) }

// Grant implements sim.Grants. The core grants the first value of the
// operation's block; fetch-and-add returns the last — the accumulator after
// the addend took effect.
func (c *Combining) Grant(token int, value int64) {
	c.value[token] = int(value) + c.amounts[token] - 1
	c.done[token] = c.env.Round()
}

// CountOf returns the count granted to op (1-based), or 0. For adder runs
// this is the inclusive prefix sum — see ValueOf.
func (c *Combining) CountOf(op int) int { return c.value[op] }

// ValueOf returns the inclusive prefix sum returned to op (fetch-and-add
// semantics: the accumulator value after op's addend took effect).
func (c *Combining) ValueOf(op int) int { return c.value[op] }

// CompletedAt returns the round op received its count, or -1.
func (c *Combining) CompletedAt(op int) int { return c.done[op] }

// Latency returns completion minus issue round for op, or -1.
func (c *Combining) Latency(op int) int {
	if c.done[op] < 0 {
		return -1
	}
	return c.done[op] - c.reqs[op].Time
}

// TotalLatency sums latencies over all operations.
func (c *Combining) TotalLatency() int {
	total := 0
	for op := range c.reqs {
		total += c.Latency(op)
	}
	return total
}

// Validate checks the counting correctness condition for unit amounts: the
// values granted are exactly {1, …, len(reqs)}. For adder runs use
// ValidateSums.
func (c *Combining) Validate() error {
	seen := make([]bool, len(c.reqs)+1)
	for op := range c.reqs {
		v := c.value[op]
		if v < 1 || v > len(c.reqs) {
			return fmt.Errorf("counting: op %d got count %d outside 1..%d", op, v, len(c.reqs))
		}
		if seen[v] {
			return fmt.Errorf("counting: count %d granted twice", v)
		}
		seen[v] = true
	}
	return nil
}

// ValidateSums checks the fetch-and-add correctness condition: there is a
// total order of the operations in which each returned value equals the
// inclusive prefix sum of the addends. Equivalently, sorting operations by
// returned value must reproduce value_i = value_{i-1} + amount_i.
func (c *Combining) ValidateSums() error {
	order := make([]int, len(c.reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return c.value[order[i]] < c.value[order[j]] })
	running := 0
	for _, op := range order {
		running += c.amounts[op]
		if c.value[op] != running {
			return fmt.Errorf("counting: op %d returned %d, want prefix sum %d", op, c.value[op], running)
		}
	}
	return nil
}
