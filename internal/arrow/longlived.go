package arrow

import (
	"fmt"
	"sort"

	"repro/countq"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Request is one queuing operation in a long-lived execution: node Node
// issues an operation at round Time. Operation identifiers are indices into
// the request slice.
type Request = sim.Arrival

// LongLived runs the arrow protocol in the long-lived setting analyzed by
// Kuhn & Wattenhofer (SPAA 2004, reference [8] of the paper): queuing
// requests arrive over time rather than all at time zero. Path reversal
// needs no modification — this type issues the schedule into the core, keeps
// per-operation bookkeeping when nodes issue repeatedly, and verifies the
// real-time consistency of the resulting order.
type LongLived struct {
	core
	sched sim.Schedule
	env   *sim.Env
	reqs  []Request

	pred []int // per op
	done []int // per op: completion round, -1 until then
}

// NewLongLived prepares a long-lived arrow execution on spanning tree t.
// Requests may share nodes and times; issuance at one node in one round is
// processed in slice order.
func NewLongLived(t *tree.Tree, initialTail int, reqs []Request) (*LongLived, error) {
	p := &LongLived{
		reqs: append([]Request(nil), reqs...),
		pred: make([]int, len(reqs)),
		done: make([]int, len(reqs)),
	}
	var err error
	if p.core, err = newCore(t, initialTail, p); err != nil {
		return nil, err
	}
	if p.sched, err = sim.NewSchedule(t.N(), p.reqs); err != nil {
		return nil, fmt.Errorf("arrow: %w", err)
	}
	for op := range p.reqs {
		p.pred[op] = None
		p.done[op] = -1
	}
	return p, nil
}

// PendingUntil implements sim.Scheduler.
func (p *LongLived) PendingUntil() int { return p.sched.PendingUntil() }

// Start issues the requests scheduled for round zero.
func (p *LongLived) Start(env *sim.Env, node int) { p.Tick(env, node) }

// Tick issues the requests scheduled at node for the current round, each
// under its index in the request slice.
func (p *LongLived) Tick(env *sim.Env, node int) {
	p.env = env
	for _, op := range p.sched.Due(env.Round(), node) {
		p.Issue(env, node, op, countq.Op{Kind: countq.OpEnqueue, ID: int64(op)})
	}
}

// Grant implements sim.Grants: operation token found its predecessor.
func (p *LongLived) Grant(token int, value int64) {
	p.pred[token] = int(value)
	p.done[token] = p.env.Round()
}

// Pred returns the predecessor op of op (Head for the first), or None.
func (p *LongLived) Pred(op int) int { return p.pred[op] }

// CompletedAt returns the round op found its predecessor, or -1.
func (p *LongLived) CompletedAt(op int) int { return p.done[op] }

// Latency returns completion round minus issue round, or -1 if incomplete.
func (p *LongLived) Latency(op int) int {
	if p.done[op] < 0 {
		return -1
	}
	return p.done[op] - p.reqs[op].Time
}

// TotalLatency sums the latencies of all operations.
func (p *LongLived) TotalLatency() int {
	total := 0
	for op := range p.reqs {
		total += p.Latency(op)
	}
	return total
}

// Order reconstructs the total order of operation ids from the predecessor
// pointers.
func (p *LongLived) Order() ([]int, error) { return chain(p.pred, nil) }

// VerifyRealTimeOrder checks the real-time guarantee distributed queuing
// actually provides: ordering is preserved across *quiescent points*. If at
// the moment operation b is issued every earlier-issued operation has
// already completed, then b must appear after all of them in the queue.
//
// Note the deliberately weaker premise than "a completed before b was
// issued": in the arrow protocol an operation can learn its predecessor
// while that predecessor's own queue message is still chasing, so its
// *position* in the chain is not anchored at its completion time. A
// stronger per-pair real-time check is genuinely violated by correct
// executions (our property tests found such interleavings); queuing's
// specification orders concurrent operations arbitrarily.
func (p *LongLived) VerifyRealTimeOrder() error {
	order, err := p.Order()
	if err != nil {
		return err
	}
	pos := make([]int, len(p.reqs))
	for i, op := range order {
		pos[op] = i
	}
	// Scan ops by issue time, looking for quiescent points.
	byIssue := make([]int, len(p.reqs))
	for op := range byIssue {
		byIssue[op] = op
	}
	sort.Slice(byIssue, func(i, j int) bool {
		return p.reqs[byIssue[i]].Time < p.reqs[byIssue[j]].Time
	})
	maxDone := -1
	maxPos := -1
	for i := 0; i < len(byIssue); {
		// Group ops sharing an issue time.
		j := i
		t := p.reqs[byIssue[i]].Time
		for j < len(byIssue) && p.reqs[byIssue[j]].Time == t {
			j++
		}
		if i > 0 && maxDone < t {
			// Quiescent point: everything issued before t also
			// completed before t, so it must all precede this group.
			for _, op := range byIssue[i:j] {
				if pos[op] < maxPos {
					return fmt.Errorf("arrow: op %d issued at quiescent time %d placed at %d, before an earlier completed op at %d",
						op, t, pos[op], maxPos)
				}
			}
		}
		for _, op := range byIssue[i:j] {
			if p.done[op] > maxDone {
				maxDone = p.done[op]
			}
			if pos[op] > maxPos {
				maxPos = pos[op]
			}
		}
		i = j
	}
	return nil
}
