package sim

import (
	"fmt"

	"repro/countq"
	"repro/internal/tree"
)

// Message kinds of the central protocol.
const (
	kindRequest = iota + 1 // A = token, C = block size (counting) or enqueued id (queuing)
	kindGrant              // A = token, B = first count of the block, or the predecessor id
)

// Central is the central protocol: every operation routes to the
// spanning-tree root, which assigns counts (or remembers the queue tail) and
// routes a grant back. It is the paper's naive baseline — the root's receive
// capacity serializes every requester, so the star hub degrades as Θ(n²) —
// and the contrast target for the arrow protocol and the combining tree. The
// bridge routes it live (sim-counter, sim-queue); counting.NewCentral runs
// it one-shot.
type Central struct {
	tr     *tree.Tree
	router *tree.Router // routes grants back down; requests just climb to the parent
	root   int
	queue  bool
	next   int64 // counter high-water mark at the root
	last   int64 // queue tail at the root
	origin []int // origin[token] = node the operation was issued at, where its grant routes back to
	grants Grants
}

// NewCentral builds the central protocol on tr, counting or (queue) queuing,
// resolving completions into grants. tokens sizes the origin table for a
// caller that knows its token range; it grows on demand otherwise.
func NewCentral(tr *tree.Tree, queue bool, grants Grants, tokens int) Central {
	return Central{
		tr:     tr,
		router: tr.Router(),
		root:   tr.Root(),
		queue:  queue,
		last:   countq.Head,
		origin: make([]int, tokens),
		grants: grants,
	}
}

// Start has nothing to seed: the protocol's only state is at the root.
func (p *Central) Start(*Env, int) {}

// Issue sends the operation toward the root; one issued at the root is
// served on the spot.
//
//countq:hotpath
func (p *Central) Issue(env *Env, node int, token int, op countq.Op) {
	for token >= len(p.origin) {
		p.origin = append(p.origin, 0)
	}
	p.origin[token] = node
	payload := int(op.N)
	if p.queue {
		payload = int(op.ID)
	}
	if node == p.root {
		p.grants.Grant(token, p.serve(payload))
		return
	}
	env.Send(node, p.tr.Parent(node), Message{Kind: kindRequest, A: token, C: payload})
}

// serve is the point of serialization: the root hands a counting request
// the first count of its block (a payload below 1 is a block of one), a
// queuing request its predecessor.
//
//countq:hotpath
func (p *Central) serve(payload int) int64 {
	if p.queue {
		prev := p.last
		p.last = int64(payload)
		return prev
	}
	n := int64(payload)
	if n < 1 {
		n = 1
	}
	first := p.next + 1
	p.next += n
	return first
}

// Deliver climbs a request to the root, serves it there, and walks the grant
// back down to the node it was issued at.
//
//countq:hotpath
func (p *Central) Deliver(env *Env, node int, m Message) {
	switch m.Kind {
	case kindRequest:
		if node != p.root {
			env.Send(node, p.tr.Parent(node), m)
			return
		}
		env.Send(node, p.router.NextHop(node, p.origin[m.A]), Message{Kind: kindGrant, A: m.A, B: int(p.serve(m.C))})
	case kindGrant:
		if to := p.origin[m.A]; node != to {
			env.Send(node, p.router.NextHop(node, to), m)
			return
		}
		p.grants.Grant(m.A, int64(m.B))
	default:
		failKind(env, m.Kind)
	}
}

// failKind aborts the simulation on a message the protocol does not speak —
// out of line so the annotated Deliver stays free of cold fmt work.
func failKind(env *Env, kind int) {
	env.Fail(fmt.Errorf("sim: central protocol got unexpected message kind %d", kind))
}
