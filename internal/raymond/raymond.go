// Package raymond implements Raymond's tree-based token algorithm for
// distributed mutual exclusion (ACM TOCS 1989) — reference [9] of Busch &
// Tirthapura and the origin of the path-reversal idea behind the arrow
// protocol.
//
// A single privilege token lives at one node of a spanning tree. Every node
// keeps a holder pointer toward the token and a FIFO queue of directions
// (neighbors, or itself) that want the token. Requests travel toward the
// token; the token travels back along the request trail, draining queues in
// FIFO order. The package runs the algorithm on the synchronous simulator,
// verifies mutual exclusion and completeness, and reports per-request
// acquisition latencies.
package raymond

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Message kinds.
const (
	kindRequest = iota + 1
	kindToken
)

// Request asks for one critical section at node Node starting no earlier
// than round Time.
type Request = sim.Arrival

// Protocol is one Raymond execution. Construct with New and run under
// sim.New; then read Acquired/Released per request.
type Protocol struct {
	tree     *tree.Tree
	reqs     []Request
	csRounds int

	sched sim.Schedule

	holder []int
	asked  []bool
	queue  [][]int // FIFO of directions; -1 means "self"
	using  []bool
	until  []int

	pendingOps [][]int // per node: op ids awaiting their critical section
	runningOp  []int   // per node: op currently in its critical section
	acquired   []int   // per op
	released   []int   // per op
	inCS       int     // global CS occupancy, for the safety check
	maxInCS    int
	timerMax   int
}

// New prepares a Raymond run: the token starts at tokenAt, each critical
// section lasts csRounds (≥ 1).
func New(t *tree.Tree, tokenAt, csRounds int, reqs []Request) (*Protocol, error) {
	n := t.N()
	if tokenAt < 0 || tokenAt >= n {
		return nil, fmt.Errorf("raymond: token node %d out of range", tokenAt)
	}
	if csRounds < 1 {
		return nil, fmt.Errorf("raymond: critical section must last ≥ 1 round, got %d", csRounds)
	}
	router := t.Router()
	p := &Protocol{
		tree:       t,
		reqs:       append([]Request(nil), reqs...),
		csRounds:   csRounds,
		holder:     make([]int, n),
		asked:      make([]bool, n),
		queue:      make([][]int, n),
		using:      make([]bool, n),
		until:      make([]int, n),
		pendingOps: make([][]int, n),
		runningOp:  make([]int, n),
		acquired:   make([]int, len(reqs)),
		released:   make([]int, len(reqs)),
	}
	var err error
	if p.sched, err = sim.NewSchedule(n, p.reqs); err != nil {
		return nil, fmt.Errorf("raymond: %w", err)
	}
	for op := range p.reqs {
		p.acquired[op] = -1
		p.released[op] = -1
	}
	for v := 0; v < n; v++ {
		if v == tokenAt {
			p.holder[v] = v
		} else {
			p.holder[v] = router.NextHop(v, tokenAt)
		}
	}
	return p, nil
}

// PendingUntil implements sim.Scheduler: the protocol stays live until the
// last scheduled request and the end of any running critical section.
func (p *Protocol) PendingUntil() int {
	return max(p.timerMax, p.sched.PendingUntil())
}

// Start issues round-zero requests.
func (p *Protocol) Start(env *sim.Env, node int) {
	p.issueDue(env, node)
}

// Tick issues due requests and ends expired critical sections.
func (p *Protocol) Tick(env *sim.Env, node int) {
	if p.using[node] && env.Round() >= p.until[node] {
		p.exitCS(env, node)
	}
	p.issueDue(env, node)
}

func (p *Protocol) issueDue(env *sim.Env, node int) {
	for _, op := range p.sched.Due(env.Round(), node) {
		p.pendingOps[node] = append(p.pendingOps[node], op)
		p.queue[node] = append(p.queue[node], -1) // self entry
		p.makeProgress(env, node)
	}
}

// makeProgress runs Raymond's two standard steps at node: assign the
// privilege if we hold a free token and someone queues, and ask for the
// token if we queue but do not hold it.
func (p *Protocol) makeProgress(env *sim.Env, node int) {
	if p.holder[node] == node && !p.using[node] && len(p.queue[node]) > 0 {
		head := p.queue[node][0]
		p.queue[node] = p.queue[node][1:]
		if head == -1 {
			p.enterCS(env, node)
		} else {
			p.holder[node] = head
			p.asked[node] = false
			env.Send(node, head, sim.Message{Kind: kindToken})
			if len(p.queue[node]) > 0 {
				env.Send(node, head, sim.Message{Kind: kindRequest})
				p.asked[node] = true
			}
		}
	}
	if p.holder[node] != node && len(p.queue[node]) > 0 && !p.asked[node] {
		env.Send(node, p.holder[node], sim.Message{Kind: kindRequest})
		p.asked[node] = true
	}
}

func (p *Protocol) enterCS(env *sim.Env, node int) {
	if len(p.pendingOps[node]) == 0 {
		env.Fail(fmt.Errorf("raymond: node %d granted privilege with no pending op", node))
		return
	}
	op := p.pendingOps[node][0]
	p.pendingOps[node] = p.pendingOps[node][1:]
	p.using[node] = true
	p.until[node] = env.Round() + p.csRounds
	if p.until[node] > p.timerMax {
		p.timerMax = p.until[node]
	}
	p.acquired[op] = env.Round()
	p.inCS++
	if p.inCS > p.maxInCS {
		p.maxInCS = p.inCS
	}
	if p.inCS > 1 {
		env.Fail(fmt.Errorf("raymond: mutual exclusion violated: %d nodes in CS", p.inCS))
	}
	// Remember which op is running so exitCS can record it.
	p.runningOp[node] = op
}

func (p *Protocol) exitCS(env *sim.Env, node int) {
	p.using[node] = false
	p.inCS--
	p.released[p.runningOp[node]] = env.Round()
	p.makeProgress(env, node)
}

// Deliver handles request and token messages.
func (p *Protocol) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindRequest:
		p.queue[node] = append(p.queue[node], m.From)
		p.makeProgress(env, node)
	case kindToken:
		p.holder[node] = node
		p.asked[node] = false
		p.makeProgress(env, node)
	default:
		env.Fail(fmt.Errorf("raymond: unexpected kind %d", m.Kind))
	}
}

// Acquired returns the round op entered its critical section, or -1.
func (p *Protocol) Acquired(op int) int { return p.acquired[op] }

// Released returns the round op left its critical section, or -1.
func (p *Protocol) Released(op int) int { return p.released[op] }

// Latency returns acquisition round minus request round, or -1.
func (p *Protocol) Latency(op int) int {
	if p.acquired[op] < 0 {
		return -1
	}
	return p.acquired[op] - p.reqs[op].Time
}

// Verify checks that every request entered and left its critical section
// and that no two critical sections ever overlapped.
func (p *Protocol) Verify() error {
	for op := range p.reqs {
		if p.acquired[op] < 0 {
			return fmt.Errorf("raymond: op %d never acquired", op)
		}
		if p.released[op] < 0 {
			return fmt.Errorf("raymond: op %d never released", op)
		}
		if p.released[op]-p.acquired[op] != p.csRounds {
			return fmt.Errorf("raymond: op %d held for %d rounds, want %d", op, p.released[op]-p.acquired[op], p.csRounds)
		}
	}
	if p.maxInCS > 1 {
		return fmt.Errorf("raymond: %d nodes were in the CS simultaneously", p.maxInCS)
	}
	return nil
}

// Run executes the protocol on g and verifies it.
func Run(g *graph.Graph, t *tree.Tree, tokenAt, csRounds int, reqs []Request) (*Protocol, sim.Stats, error) {
	p, err := New(t, tokenAt, csRounds, reqs)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	if err := t.IsSpanningOf(g); err != nil {
		return nil, sim.Stats{}, err
	}
	stats, err := sim.Run(sim.Config{Graph: g}, p)
	if err != nil {
		return nil, stats, err
	}
	if err := p.Verify(); err != nil {
		return nil, stats, err
	}
	return p, stats, nil
}
