// Package arrow implements the arrow distributed queuing protocol of
// Raymond (1989) and Demmer–Herlihy (1998) on the synchronous network
// simulator, in the one-shot concurrent setting analyzed in Section 4 of
// Busch & Tirthapura.
//
// The protocol runs on a spanning tree T of the communication graph. Every
// node v keeps an arrow link(v) pointing to the tree neighbor through which
// the current queue tail can be reached (or to v itself if v holds the
// tail), and id(v), the identifier of the last operation that originated at
// v. A queuing operation sends a queue(a) message that chases the arrows,
// reversing each one it crosses; when it reaches a node whose arrow points
// to itself, the operation is queued behind that node's last operation.
//
// The protocol is written once, as core: a sim.BridgeProtocol whose
// operations arrive through Issue and whose predecessors resolve into a
// sim.Grants sink. Protocol runs it one-shot (operation identifiers are the
// originating node ids, all issued at time zero), LongLived runs it from an
// arrival schedule, and the sim-arrow-queue structure runs it live behind
// the sim bridge. The delay of an operation is the round in which its queue
// message terminates (the accounting used by Theorem 4.1).
package arrow

import (
	"fmt"

	"repro/countq"
	"repro/internal/sim"
	"repro/internal/tree"
)

// kindQueue is the protocol's one message, the chase: A = operation token.
// The terminating node reads the predecessor locally, so the chase carries
// nothing else.
const kindQueue = 1

// Head is the pseudo-identifier of the queue head: the predecessor reported
// to the first operation in the total order.
const Head = -1

// None marks a node with no completed operation.
const None = -2

// core is the arrow state machine, open to operations issued at any node at
// any time.
type core struct {
	grants sim.Grants
	link   []int   // arrow pointers: self at a sink, else the next hop tailward
	lastID []int64 // lastID[v] = id of the last operation issued at v (Head at the initial tail); read only at a sink
	root   int     // the spanning tree's root
}

// newCore points every arrow toward tail along t (initialization is free,
// per the paper's model) and queues the head pseudo-operation there.
func newCore(t *tree.Tree, tail int, grants sim.Grants) (core, error) {
	n := t.N()
	if tail < 0 || tail >= n {
		return core{}, fmt.Errorf("arrow: initial tail %d out of range", tail)
	}
	c := core{grants: grants, link: make([]int, n), lastID: make([]int64, n), root: t.Root()}
	for v := 0; v < n; v++ {
		c.link[v] = t.Parent(v)
		c.lastID[v] = countq.Head
	}
	// Every arrow points rootward; the ones on the root–tail path turn round.
	c.link[tail] = tail
	for v := tail; v != t.Root(); v = t.Parent(v) {
		c.link[t.Parent(v)] = v
	}
	return c, nil
}

func (c *core) Start(*sim.Env, int) {}

// Root returns the root of the tree the core runs on, which the sim bridge
// keeps its sessions off.
func (c *core) Root() int { return c.root }

// Issue performs the atomic arrow issuance step for the operation at node:
// flip the local arrow to self and chase the old target. If the node already
// holds the tail (initially, or because its own previous operation is the
// current tail) the predecessor is local and the operation completes without
// a single message — the protocol's fast path, which no central protocol can
// offer.
//
//countq:hotpath
func (c *core) Issue(env *sim.Env, node int, token int, op countq.Op) {
	target := c.link[node]
	prev := c.lastID[node]
	c.lastID[node] = op.ID
	if target == node {
		c.grants.Grant(token, prev)
		return
	}
	c.link[node] = node
	env.Send(node, target, sim.Message{Kind: kindQueue, A: token})
}

// Deliver handles a chasing message: reverse the local arrow toward the
// sender; a sink terminates the chase and grants the operation the id of the
// tail recorded there.
//
//countq:hotpath
func (c *core) Deliver(env *sim.Env, node int, m sim.Message) {
	if m.Kind != kindQueue {
		failKind(env, m.Kind)
		return
	}
	old := c.link[node]
	c.link[node] = m.From
	if old == node {
		c.grants.Grant(m.A, c.lastID[node])
		return
	}
	env.Send(node, old, sim.Message{Kind: kindQueue, A: m.A})
}

// failKind aborts the simulation on a foreign message kind — out of line so
// the annotated Deliver stays free of cold fmt work.
func failKind(env *sim.Env, kind int) {
	env.Fail(fmt.Errorf("arrow: unexpected message kind %d", kind))
}

// Protocol is one one-shot arrow execution: every requesting node issues at
// time zero, under its node id. Construct with New, run it under sim.New,
// then inspect Pred/Delay.
type Protocol struct {
	// Embedded for its Deliver, which is not free: the engine's call
	// through sim.Protocol lands in a compiler-generated wrapper that calls
	// the promoted method, one extra call per delivery.
	core
	env      *sim.Env
	requests []bool

	pred  []int // pred[v] = predecessor of v's op; None if absent/incomplete
	delay []int // delay[v] = completion round of v's op; -1 if incomplete
}

// New prepares a one-shot arrow execution on spanning tree t with the given
// initial tail node and request set (requests[v] reports whether v issues a
// queuing operation at time zero).
func New(t *tree.Tree, initialTail int, requests []bool) (*Protocol, error) {
	n := t.N()
	if len(requests) != n {
		return nil, fmt.Errorf("arrow: request vector has %d entries, want %d", len(requests), n)
	}
	p := &Protocol{
		requests: append([]bool(nil), requests...),
		pred:     make([]int, n),
		delay:    make([]int, n),
	}
	var err error
	if p.core, err = newCore(t, initialTail, p); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		p.pred[v] = None
		p.delay[v] = -1
	}
	return p, nil
}

// Start issues node's queuing operation at time zero.
func (p *Protocol) Start(env *sim.Env, node int) {
	p.env = env
	if p.requests[node] {
		p.Issue(env, node, node, countq.Op{Kind: countq.OpEnqueue, ID: int64(node)})
	}
}

// Grant implements sim.Grants: node token's operation found its predecessor.
func (p *Protocol) Grant(token int, value int64) {
	p.pred[token] = int(value)
	p.delay[token] = p.env.Round()
}

// Pred returns the predecessor operation of node v's operation (Head for
// the first in the order), or None if v issued no operation.
func (p *Protocol) Pred(v int) int { return p.pred[v] }

// Delay returns the completion round of v's operation, or -1.
func (p *Protocol) Delay(v int) int { return p.delay[v] }

// TotalDelay sums the delays of all requests (the paper's concurrent delay
// complexity for this request set).
func (p *Protocol) TotalDelay() int {
	total := 0
	for v, req := range p.requests {
		if req {
			total += p.delay[v]
		}
	}
	return total
}

// MaxDelay returns the largest single-operation delay.
func (p *Protocol) MaxDelay() int {
	max := 0
	for v, req := range p.requests {
		if req && p.delay[v] > max {
			max = p.delay[v]
		}
	}
	return max
}

// Order reconstructs the total order of operations from the predecessor
// pointers, starting at the queue head.
func (p *Protocol) Order() ([]int, error) { return chain(p.pred, p.requests) }

// chain follows predecessor pointers from the queue head into the total
// order they encode, over the operations marked live (all of them if live is
// nil). It fails unless the pointers form exactly one chain.
func chain(pred []int, live []bool) ([]int, error) {
	// succ[1+p] = 1 + the operation queued behind p, 0 for none; Head = -1
	// takes slot 0. A predecessor that names no operation is left out: the
	// head's chain cannot reach it, so the cover check reports it.
	succ := make([]int, 1+len(pred))
	count := 0
	for op, pr := range pred {
		if live != nil && !live[op] {
			continue
		}
		count++
		if pr == None {
			return nil, fmt.Errorf("arrow: operation %d incomplete", op)
		}
		if pr < Head || pr >= len(pred) {
			continue
		}
		if succ[1+pr] != 0 {
			return nil, fmt.Errorf("arrow: two operations claim predecessor %d", pr)
		}
		succ[1+pr] = 1 + op
	}
	order := make([]int, 0, count)
	for cur := succ[1+Head]; cur != 0; cur = succ[cur] {
		order = append(order, cur-1)
	}
	if len(order) != count {
		return nil, fmt.Errorf("arrow: predecessor chain covers %d of %d operations", len(order), count)
	}
	return order, nil
}

// VerifyOrder checks that the predecessor pointers of all requests form a
// single total order starting at the queue head — the correctness condition
// of distributed queuing.
func (p *Protocol) VerifyOrder() error {
	_, err := p.Order()
	return err
}
