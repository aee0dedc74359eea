package sim

import (
	"errors"
	"sync"
)

// scratch is the scaffolding of one run: every buffer New would otherwise
// allocate, and Step grow, from nothing (see the package comment, "cold start
// and recycling").
type scratch struct {
	inbox    []inQueue    // each queue keeps its grown buf
	outbox   []outQueue   // likewise
	wheel    [][]envelope // keeps its grown size and every bucket's capacity
	sets     []uint64     // backing of inActive, outActive, wake
	adj      [][]int
	edgeOff  []int // non-unit delay only
	edgeLast []int
}

// scratchPool is the only state one-shot runs share: reachable from New and
// release, never from Step, and emptied by the GC.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

var errReleased = errors.New("sim: network released")

// fitLen returns s at length n, reallocated when its capacity falls short.
func fitLen[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// fit sizes s for e's graph and delay model and points e's buffers at it in
// the state fresh allocations would have: queues and buckets empty, columns
// and bitmaps zero. It resets only the [:n] it uses — what a larger run left
// beyond that is cleaned by the next fit to reach it. Capacity and the
// wheel's size are all that survives.
func (s *scratch) fit(e *Env) {
	n := e.n
	s.inbox, s.outbox = fitLen(s.inbox, n), fitLen(s.outbox, n)
	for v := 0; v < n; v++ {
		s.inbox[v] = inQueue{msgQueue: msgQueue{buf: s.inbox[v].buf[:0]}}
		s.outbox[v] = outQueue{msgQueue: msgQueue{buf: s.outbox[v].buf[:0]}}
	}
	e.inbox, e.outbox = s.inbox, s.outbox

	if s.wheel == nil {
		s.wheel = make([][]envelope, initialWheel)
	}
	for i := range s.wheel {
		s.wheel[i] = s.wheel[i][:0]
	}
	e.wheel, e.wheelMask = s.wheel, len(s.wheel)-1

	// One backing array: the three active-set bitmaps are carved from it.
	words := (n + 63) / 64
	s.sets = fitLen(s.sets, 3*words)
	clear(s.sets)
	e.inActive = s.sets[0*words : 1*words : 1*words]
	e.outActive = s.sets[1*words : 2*words : 2*words]
	e.wake = s.sets[2*words : 3*words : 3*words]

	s.adj = fitLen(s.adj, n)
	for v := 0; v < n; v++ {
		s.adj[v] = e.g.Neighbors(v)
	}
	e.adj = s.adj

	if !e.unitDelay {
		s.edgeOff = fitLen(s.edgeOff, n+1)
		s.edgeOff[0] = 0
		for v := 0; v < n; v++ {
			s.edgeOff[v+1] = s.edgeOff[v] + len(s.adj[v])
		}
		s.edgeLast = fitLen(s.edgeLast, s.edgeOff[n])
		clear(s.edgeLast)
		e.edgeOff, e.edgeLast = s.edgeOff, s.edgeLast
	}
}

// release hands the network's buffers back for another run and cuts the
// network off from them: Begin, Step and Run fail from here on, and a Send on
// a kept Env panics on the nil adjacency, instead of either scribbling on a
// stranger's run.
func (nw *Network) release() {
	e, s := &nw.env, nw.scratch
	s.wheel = e.wheel // growWheel may have replaced it
	clear(s.adj)      // the pool must not keep a graph alive
	nw.scratch = nil
	e.inbox, e.outbox, e.wheel, e.adj = nil, nil, nil, nil
	e.inActive, e.outActive, e.wake = nil, nil, nil
	e.edgeOff, e.edgeLast = nil, nil
	scratchPool.Put(s)
}
