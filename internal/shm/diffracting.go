package shm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/countq"
)

// DiffractingCounter is a diffracting tree (Shavit & Zemach): a binary tree
// of balancers where concurrent tokens meeting at a node "diffract" — one
// goes left, one right — without touching the node's toggle bit, and only
// unpaired tokens serialize on the toggle. Tokens exit at one of L leaves;
// leaf i hands out counts i + L·k + 1 via a per-leaf counter.
//
// The prism here is the funnel's single lock-free rendezvous slot: a
// waiting token parks its record in the slot, a partner captures it and
// hands it a direction. Each node keeps an adaptive hint of how long
// parking is worth (see waitRange), so a node that sees no pairs costs
// its toggle and nothing else. A session owns one token record for its
// whole life; the direct Inc borrows one from a pool. Production
// diffracting trees use multi-slot prisms.
type DiffractingCounter struct {
	leaves []atomic.Int64
	nodes  []diffNode // heap indexing: node 1 is the root
	rank   []int      // leaf position → output rank (bit-reversed index)
	width  int
	tokens sync.Pool // tokens for the direct Inc: steady state allocates nothing
	waitRange
}

type diffNode struct {
	prism  slot[diffToken]
	toggle atomic.Uint32
	wait   atomic.Int32 // polls a token parks here for, in [0, spin]; stored only when it changes
	_      [56]byte
}

// diffToken is a parked token's record: the partner delivers its direction.
type diffToken struct {
	got delivery
	_   [56]byte
}

// NewDiffractingCounter builds a diffracting tree with the given number of
// leaves (a power of two ≥ 1; 0 defaults to the next power of two ≥
// GOMAXPROCS, sizing the stripe count to the machine's real parallelism
// the way the sharded counter sizes its shard array). spin is the ceiling
// of the adaptive wait: the most polls a token spends in a prism waiting
// for a diffraction partner before falling back to the toggle (default
// 16).
func NewDiffractingCounter(leaves, spin int) (*DiffractingCounter, error) {
	if leaves == 0 {
		leaves = 1
		for leaves < runtime.GOMAXPROCS(0) {
			leaves <<= 1
		}
	}
	if leaves < 1 || leaves&(leaves-1) != 0 {
		return nil, fmt.Errorf("shm: diffracting tree needs a power-of-two leaf count, got %d", leaves)
	}
	if spin < 0 {
		return nil, fmt.Errorf("shm: diffracting tree spin must be non-negative, got %d", spin)
	}
	if spin == 0 {
		spin = 16
	}
	d := &DiffractingCounter{
		leaves:    make([]atomic.Int64, leaves),
		nodes:     make([]diffNode, leaves), // 1..leaves-1 used
		rank:      make([]int, leaves),
		width:     leaves,
		waitRange: waitRange{spin: spin},
	}
	for i := range d.nodes {
		d.nodes[i].wait.Store(int32(spin))
	}
	d.tokens.New = func() interface{} { return new(diffToken) }
	// A tree of alternating balancers delivers the k-th token to the leaf
	// whose root-to-leaf direction bits, read MSB-first, are the binary
	// digits of k LSB-first — i.e. leaf positions rank in bit-reversed
	// order. Leaf p therefore hands out counts rev(p) + L·k + 1.
	bits := 0
	for p := 1; p < leaves; p <<= 1 {
		bits++
	}
	for p := 0; p < leaves; p++ {
		r := 0
		for b := 0; b < bits; b++ {
			if p&(1<<uint(b)) != 0 {
				r |= 1 << uint(bits-1-b)
			}
		}
		d.rank[p] = r
	}
	return d, nil
}

// Inc implements Counter.
//
//countq:hotpath clocks=0
func (d *DiffractingCounter) Inc() int64 {
	tok := d.tokens.Get().(*diffToken)
	v := d.inc(tok)
	d.tokens.Put(tok)
	return v
}

// NewSession implements countq.Structure: the session owns one token
// record for its whole life, so its Inc never touches the pool.
func (d *DiffractingCounter) NewSession() (countq.Session, error) {
	s := &diffSession{tok: new(diffToken)}
	s.c = d
	return s, nil
}

// diffSession is a worker's session with its own token record.
type diffSession struct {
	counterSession[*DiffractingCounter]
	tok *diffToken
}

// Inc implements countq.Session.
//
//countq:hotpath clocks=0
func (s *diffSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.c.inc(s.tok), nil
}

// inc walks one token down the tree on the record tok and takes the next
// count of the leaf it reaches. The record is the caller's again on
// return: a partner stops touching it once it has sent the direction.
//
//countq:hotpath clocks=0
func (d *DiffractingCounter) inc(tok *diffToken) int64 {
	node := 1
	for node < d.width {
		node = 2*node + d.traverse(&d.nodes[node], tok)
	}
	leaf := node - d.width
	k := d.leaves[leaf].Add(1) - 1
	return int64(d.rank[leaf]) + int64(d.width)*k + 1
}

// traverse returns the direction (0 = left, 1 = right) the calling token
// takes at nd, by diffraction when a partner is available and by the
// toggle otherwise.
//
//countq:hotpath clocks=0
func (d *DiffractingCounter) traverse(nd *diffNode, tok *diffToken) int {
	wait := int(nd.wait.Load())
	if w := nd.prism.capture(); w != nil {
		// Commit to the parked partner: it goes left, we go right.
		w.got.send(0)
		nd.adapt(wait, d.met(wait))
		return 1
	}
	if wait > 0 && nd.prism.park(tok) {
		if dir, met := nd.prism.wait(tok, &tok.got, wait); met {
			nd.adapt(wait, d.met(wait))
			return int(dir)
		}
		// Nobody committed: use the toggle.
		nd.adapt(wait, d.missed(wait))
	}
	// A node nobody parks at re-arms when its toggle moved under us.
	var before uint32
	if wait == 0 {
		before = nd.toggle.Load()
	}
	t := nd.toggle.Add(1) - 1
	if wait == 0 && t != before {
		nd.wait.Store(1)
	}
	return int(t & 1)
}

// adapt moves the node's wait hint, touching the shared word only when
// the value changes: at either end of the range it is read-only.
func (nd *diffNode) adapt(from, to int) {
	if to != from {
		nd.wait.Store(int32(to))
	}
}

// Width reports the number of leaves.
func (d *DiffractingCounter) Width() int { return d.width }
