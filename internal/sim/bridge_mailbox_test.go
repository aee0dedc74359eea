package sim

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/tree"
)

// ctlProto is a counter the test drives by hand. Issue gives each
// operation the next count, and reports it on issued once it has decided
// whether to hold it: while hold is set, Issue keeps the grant until the
// test sends on release. While stall is set, the pump blocks in its next
// Tick (at node 0) until the test sends on resume, so a request posted
// meanwhile stays untaken. Tick runs only while the pump steps rounds,
// that is while a grant is held.
type ctlProto struct {
	grants  Grants
	next    int64
	held    [][2]int64 // token, count; pump-owned
	hold    atomic.Bool
	stall   atomic.Bool
	issued  chan int64
	release chan struct{}
	stalled chan struct{}
	resume  chan struct{}
}

func (p *ctlProto) Start(*Env, int)            {}
func (p *ctlProto) Deliver(*Env, int, Message) {}

func (p *ctlProto) Issue(env *Env, node, token int, op countq.Op) {
	p.next++
	if p.hold.Load() {
		p.held = append(p.held, [2]int64{int64(token), p.next})
	} else {
		p.grants.Grant(token, p.next)
	}
	p.issued <- p.next
}

func (p *ctlProto) Tick(env *Env, node int) {
	if node != 0 {
		return
	}
	if p.stall.Load() {
		p.stalled <- struct{}{}
		<-p.resume
	}
	select {
	case <-p.release:
		for _, h := range p.held {
			p.grants.Grant(int(h[0]), h[1])
		}
		p.held = p.held[:0]
	default:
	}
}

// newCtlBridge opens a free-running star9 bridge on a ctlProto.
func newCtlBridge(t *testing.T) (*Bridge, *ctlProto) {
	t.Helper()
	p := &ctlProto{
		issued:  make(chan int64, 64),
		release: make(chan struct{}),
		stalled: make(chan struct{}),
		resume:  make(chan struct{}),
	}
	b, err := NewBridge(BridgeConfig{Proto: func(g *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error) {
		p.grants = grants
		return p, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A failed test may leave grants held or the pump stalled: release
		// both until the pump has drained and exited.
		p.hold.Store(false)
		p.stall.Store(false)
		go func() {
			for {
				select {
				case p.release <- struct{}{}:
				case p.resume <- struct{}{}:
				case <-b.pumpExit:
					return
				}
			}
		}()
		b.Close()
	})
	return b, p
}

// cancelParked runs Inc on s under a context it cancels once the round
// trip has had time to post its request and park, and returns Inc's
// result.
func cancelParked(s *bridgeSession) (int64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		v   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := s.Inc(ctx)
		done <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	r := <-done
	return r.v, r.err
}

// TestBridgeCancelExactlyOnce cancels sync round trips at each stage of
// their life: before the pump takes the request, after it takes it but
// before the grant, and racing the grant. Every accepted operation must be
// issued exactly once, so the counts the session sees next stay gap-free
// with the cancelled operations' counts among them, and no late grant may
// stand in for a later round trip's.
func TestBridgeCancelExactlyOnce(t *testing.T) {
	b, p := newCtlBridge(t)
	cs, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := cs.(*bridgeSession)
	keeper, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ak := keeper.(countq.AsyncSession)
	bg := context.Background()
	next := int64(1)
	expectIssued := func(what string) {
		t.Helper()
		select {
		case v := <-p.issued:
			if v != next {
				t.Fatalf("%s: issued count %d, want %d", what, v, next)
			}
			next++
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: count %d never issued", what, next)
		}
	}
	expectInc := func(what string) {
		t.Helper()
		v, err := s.Inc(bg)
		if err != nil {
			t.Fatalf("%s: Inc: %v", what, err)
		}
		expectIssued(what)
		if v != next-1 {
			t.Fatalf("%s: Inc = %d, want %d", what, v, next-1)
		}
	}
	expectInc("first")

	// Before the take: a held keeper op keeps the pump stepping rounds, and
	// the pump stalls in a Tick while the session posts and gives up.
	p.hold.Store(true)
	if err := ak.Submit(bg, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
		t.Fatal(err)
	}
	expectIssued("keeper")
	p.stall.Store(true)
	<-p.stalled
	if _, err := cancelParked(s); err != context.Canceled {
		t.Fatalf("before the take: cancelled Inc returned %v, want context.Canceled", err)
	}
	if taken := s.req.Taken(); taken >= s.syncSeq {
		t.Fatalf("before the take: request %d already taken (taken %d); the stall did not hold the pump", s.syncSeq, taken)
	}
	// The next round trip must wait for the pump to take the cancelled
	// request before it posts its own; give it time to post too early.
	after := make(chan error, 1)
	var got int64
	go func() {
		var err error
		got, err = s.Inc(bg)
		after <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.stall.Store(false)
	p.resume <- struct{}{}
	expectIssued("request cancelled before the take")
	expectIssued("the round trip after it")
	p.hold.Store(false)
	p.release <- struct{}{}
	if c := <-ak.Completions(); c.Err != nil || c.Value != 2 {
		t.Fatalf("keeper completion = (%d, %v), want (2, nil)", c.Value, c.Err)
	}
	if err := <-after; err != nil || got != next-1 {
		t.Fatalf("Inc after a cancel before the take = (%d, %v), want (%d, nil)", got, err, next-1)
	}

	// After the take, before the grant.
	p.hold.Store(true)
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := s.Inc(ctx)
		done <- err
	}()
	expectIssued("request cancelled after the take")
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("after the take: cancelled Inc returned %v, want context.Canceled", err)
	}
	p.hold.Store(false)
	p.release <- struct{}{}
	expectInc("after a cancel after the take")

	// Racing the grant: the round trip may return its count or the
	// cancellation; the count is spent either way.
	for i := 0; i < 20; i++ {
		p.hold.Store(true)
		ctx, cancel := context.WithCancel(bg)
		done := make(chan error, 1)
		go func() {
			_, err := s.Inc(ctx)
			done <- err
		}()
		expectIssued("request racing its grant")
		p.hold.Store(false)
		go cancel()
		p.release <- struct{}{}
		if err := <-done; err != nil && err != context.Canceled {
			t.Fatalf("Inc racing its grant returned %v", err)
		}
		expectInc("after a cancel racing the grant")
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// lateProto holds the first operation's grant and releases it only after
// granting the second: a cancelled round trip's grant that lands after the
// next round trip's own, while that reply may still be unread.
type lateProto struct {
	grants Grants
	held   int
	first  bool
	n      int64
}

func (p *lateProto) Start(*Env, int)            {}
func (p *lateProto) Deliver(*Env, int, Message) {}
func (p *lateProto) Issue(env *Env, node, token int, op countq.Op) {
	p.n++
	if !p.first {
		p.first = true
		p.held = token
		return
	}
	p.grants.Grant(token, p.n)
	if p.held >= 0 {
		p.grants.Grant(p.held, 1)
		p.held = -1
	}
}

// TestBridgeLateGrantAfterNext cancels a round trip whose grant the
// protocol releases right after the next round trip's: the stale grant
// must be dropped at the pump, not overwrite the live reply.
func TestBridgeLateGrantAfterNext(t *testing.T) {
	p := &lateProto{}
	b, err := NewBridge(BridgeConfig{Proto: func(g *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error) {
		p.grants = grants
		return p, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cs, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := cs.(*bridgeSession)
	if _, err := cancelParked(s); err != context.Canceled {
		t.Fatalf("cancelled Inc returned %v, want context.Canceled", err)
	}
	for want := int64(2); want <= 5; want++ {
		v, err := s.Inc(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("Inc = %d, want %d (the cancelled round trip's 1 must be dropped)", v, want)
		}
	}
	if r, ok := s.reply.Read(1); ok {
		t.Fatalf("the stale grant overwrote the reply mailbox: %+v under sequence 1", r)
	}
	// The same order driven by hand, standing in for the pump, so that no
	// timing can hide an overwrite: take two requests, grant the second,
	// then the first.
	var ops [2]bridgeOp
	for i := range ops {
		seq := s.syncSeq + 1
		s.req.Post(seq, bridgeOp{sess: s, arg: 1, seq: seq, node: int32(s.node)})
		s.syncSeq = seq
		_, ops[i], _ = s.req.Take()
	}
	settle(ops[1], 20, nil)
	settle(ops[0], 10, nil)
	if r, ok := s.reply.Read(ops[1].seq); !ok || r.val != 20 {
		t.Fatalf("reply after a late grant = (%+v, %v), want 20 under sequence %d", r, ok, ops[1].seq)
	}
}

// TestBridgeCloseFailsUntakenRequest leaves a request in its mailbox
// without posting the mark — an operation accepted before Close's fence
// whose sweep the pump never made — and closes the bridge: the close sweep
// must take it and answer it with the close error, and the pump must be
// gone.
func TestBridgeCloseFailsUntakenRequest(t *testing.T) {
	before := runtime.NumGoroutine()
	b, err := NewBridge(BridgeConfig{HopLat: 0})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := cs.(*bridgeSession)
	if _, err := s.Inc(context.Background()); err != nil {
		t.Fatal(err)
	}
	seq := s.syncSeq + 1
	s.req.Post(seq, bridgeOp{sess: s, arg: 1, seq: seq, node: int32(s.node)})
	s.syncSeq = seq
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.pumpExit:
	default:
		t.Fatal("Close returned with the pump still running")
	}
	if s.req.Taken() != seq {
		t.Fatalf("request %d left untaken by Close (taken %d)", seq, s.req.Taken())
	}
	r, ok := s.reply.Read(seq)
	if !ok || r.err != errBridgeClosed {
		t.Fatalf("reply to the untaken request = (%+v, %v), want errBridgeClosed", r, ok)
	}
	if _, err := s.Inc(context.Background()); err != errBridgeClosed {
		t.Fatalf("Inc after Close = %v, want errBridgeClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestBridgeMixedSession interleaves Submit and Inc on one session, with
// async operations outstanding across every Inc: each operation must get
// exactly one result, and the counts of both kinds together must be
// gap-free.
func TestBridgeMixedSession(t *testing.T) {
	b, err := NewBridge(BridgeConfig{HopLat: 0, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cs, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	as := cs.(countq.AsyncSession)
	ctx := context.Background()
	var counts []int64
	submitted, reaped := 0, 0
	reap := func() {
		c := <-as.Completions()
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		counts = append(counts, c.Value)
		reaped++
	}
	for i := 0; i < 300; i++ {
		for k := 0; k < i%4; k++ {
			if submitted-reaped == 8 {
				reap()
			}
			if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
		v, err := cs.Inc(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, v)
		if i%3 == 0 && reaped < submitted {
			reap()
		}
	}
	for reaped < submitted {
		reap()
	}
	if n := len(as.Completions()); n != 0 {
		t.Fatalf("%d completions beyond one per Submit", n)
	}
	if err := countq.ValidateCounts(counts); err != nil {
		t.Fatalf("mixed counts invalid: %v", err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
}

// mailboxLines reports the first and last cache line holding a
// ring.Mailbox's sequence and value, the words Post writes.
func mailboxLines(m reflect.Value) (first, last uintptr) {
	seq, val := m.FieldByName("seq"), m.FieldByName("val")
	return seq.UnsafeAddr() / 64, (val.UnsafeAddr() + val.Type().Size() - 1) / 64
}

// TestMailboxLinesLayout checks by address, for sessions at many heap
// offsets, that each of a session's two mailboxes holds its sequence and
// value on exactly one line, so a post moves one line: not the other
// mailbox's, not the line of the session's syncSeq (written every round
// trip) or ev.parked (loaded by every grant), and not the lines of
// Bridge's closeMu (which every send writes) or simRounds and simMsgs
// (which the pump writes after a granting round).
func TestMailboxLinesLayout(t *testing.T) {
	const line = 64
	at := func(p unsafe.Pointer) uintptr { return uintptr(p) / line }
	for i := 0; i < 8; i++ {
		b, err := NewBridge(BridgeConfig{HopLat: 0})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			cs, err := b.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			s := cs.(*bridgeSession)
			if at(unsafe.Pointer(&s.ev)) == at(unsafe.Pointer(&s.syncSeq)) {
				t.Fatalf("session %d: ev shares a line with syncSeq", j)
			}
			others := map[uintptr]string{
				at(unsafe.Pointer(&b.closeMu)):   "Bridge.closeMu",
				at(unsafe.Pointer(&b.simRounds)): "Bridge.simRounds",
				at(unsafe.Pointer(&b.simMsgs)):   "Bridge.simMsgs",
				at(unsafe.Pointer(&s.syncSeq)):   "syncSeq",
				at(unsafe.Pointer(&s.ev)):        "ev",
			}
			for name, m := range map[string]reflect.Value{
				"request": reflect.ValueOf(&s.req).Elem(),
				"reply":   reflect.ValueOf(&s.reply).Elem(),
			} {
				first, last := mailboxLines(m)
				if first != last {
					t.Fatalf("session %d: %s mailbox spans lines %d..%d", j, name, first, last)
				}
				if other, ok := others[first]; ok {
					t.Fatalf("session %d: %s mailbox shares line %d with %s", j, name, first, other)
				}
				others[first] = name + " mailbox"
			}
		}
		b.Close()
	}
}

// TestBridgeLinesLayout checks by address, for Bridges at every offset
// the allocator hands out, that no cache line holds both a field one side
// writes per operation and a field the other side touches per operation:
// sessions write closeMu (RLock, RUnlock) and read closed, cfg, sub and
// idlePoll; the pump writes simRounds, simMsgs and spinRounds and reads
// cfg, sub, idlePoll, yieldEvery and done.
func TestBridgeLinesLayout(t *testing.T) {
	const line = 64
	lines := func(p unsafe.Pointer, size uintptr) []uintptr {
		var ls []uintptr
		for l := uintptr(p) / line; l <= (uintptr(p)+size-1)/line; l++ {
			ls = append(ls, l)
		}
		return ls
	}
	keep := make([]*Bridge, 0, 64)
	for i := 0; i < cap(keep); i++ {
		b := new(Bridge)
		keep = append(keep, b)
		owner := map[uintptr]string{}
		mark := func(side, name string, p unsafe.Pointer, size uintptr) {
			for _, l := range lines(p, size) {
				if o, ok := owner[l]; ok && o[:4] != side[:4] {
					t.Fatalf("Bridge at %p: %s and %s share line %d", b, o, side+" "+name, l)
				}
				owner[l] = side + " " + name
			}
		}
		mark("sess writes", "closeMu", unsafe.Pointer(&b.closeMu), unsafe.Sizeof(b.closeMu))
		mark("pump reads", "cfg", unsafe.Pointer(&b.cfg), unsafe.Sizeof(b.cfg))
		mark("pump reads", "sub", unsafe.Pointer(&b.sub), unsafe.Sizeof(b.sub))
		mark("pump reads", "idlePoll", unsafe.Pointer(&b.idlePoll), unsafe.Sizeof(b.idlePoll))
		mark("pump reads", "yieldEvery", unsafe.Pointer(&b.yieldEvery), unsafe.Sizeof(b.yieldEvery))
		mark("pump reads", "done", unsafe.Pointer(&b.done), unsafe.Sizeof(b.done))
		owner = map[uintptr]string{}
		mark("pump writes", "simRounds", unsafe.Pointer(&b.simRounds), unsafe.Sizeof(b.simRounds))
		mark("pump writes", "simMsgs", unsafe.Pointer(&b.simMsgs), unsafe.Sizeof(b.simMsgs))
		mark("pump writes", "spinRounds", unsafe.Pointer(&b.spinRounds), unsafe.Sizeof(b.spinRounds))
		mark("sess reads", "closed", unsafe.Pointer(&b.closed), unsafe.Sizeof(b.closed))
		mark("sess reads", "cfg", unsafe.Pointer(&b.cfg), unsafe.Sizeof(b.cfg))
		mark("sess reads", "sub", unsafe.Pointer(&b.sub), unsafe.Sizeof(b.sub))
		mark("sess reads", "idlePoll", unsafe.Pointer(&b.idlePoll), unsafe.Sizeof(b.idlePoll))
		mark("sess writes", "closeMu", unsafe.Pointer(&b.closeMu), unsafe.Sizeof(b.closeMu))
	}
}
