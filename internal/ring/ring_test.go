package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestSPSCPushPop(t *testing.T) {
	r := New[int](3) // non-power-of-two: logical cap 3 on a 4-slot buffer
	if r.Cap() != 3 {
		t.Fatalf("Cap() = %d, want 3", r.Cap())
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring reported ok")
	}
	for i := 0; i < 3; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) failed below capacity", i)
		}
	}
	if r.Push(99) {
		t.Fatal("Push succeeded past the logical capacity")
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	for i := 0; i < 3; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on drained ring reported ok")
	}
}

// TestSPSCPeek: Peek shows the entry the next Pop takes and leaves it
// there.
func TestSPSCPeek(t *testing.T) {
	r := New[int](2)
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on empty ring reported ok")
	}
	r.Push(7)
	r.Push(8)
	for i := 0; i < 2; i++ {
		if v, ok := r.Peek(); !ok || v != 7 || r.Len() != 2 {
			t.Fatalf("Peek = (%d, %v) with Len %d, want (7, true) with Len 2", v, ok, r.Len())
		}
	}
	if v, _ := r.Pop(); v != 7 {
		t.Fatalf("Pop after Peek = %d, want 7", v)
	}
	if v, ok := r.Peek(); !ok || v != 8 {
		t.Fatalf("Peek = (%d, %v), want (8, true)", v, ok)
	}
}

// TestSPSCWrap cycles far past the buffer length so the masked cursors
// wrap many times, in mixed-size batches that are coprime with the
// capacity.
func TestSPSCWrap(t *testing.T) {
	r := New[int](8)
	next, got := 0, 0
	for round := 0; round < 1000; round++ {
		batch := round%7 + 1
		for i := 0; i < batch; i++ {
			if !r.Push(next) {
				break
			}
			next++
		}
		take := round%5 + 1
		for i := 0; i < take; i++ {
			v, ok := r.Pop()
			if !ok {
				break
			}
			if v != got {
				t.Fatalf("round %d: Pop = %d, want %d", round, v, got)
			}
			got++
		}
	}
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != got {
			t.Fatalf("final drain: Pop = %d, want %d", v, got)
		}
		got++
	}
	if got != next {
		t.Fatalf("consumed %d of %d pushed", got, next)
	}
}

// TestSPSCZeroesSlots proves consumed slots drop their references: a ring
// of pointers must hold only nils after a full drain, whichever consume
// path ran.
func TestSPSCZeroesSlots(t *testing.T) {
	for _, drain := range []bool{false, true} {
		r := New[*int](4)
		for i := 0; i < 4; i++ {
			v := i
			r.Push(&v)
		}
		if drain {
			out := r.DrainTo(nil)
			if len(out) != 4 {
				t.Fatalf("DrainTo returned %d entries, want 4", len(out))
			}
		} else {
			for i := 0; i < 4; i++ {
				r.Pop()
			}
		}
		for i, p := range r.buf {
			if p != nil {
				t.Fatalf("drain=%v: slot %d still pins a reference", drain, i)
			}
		}
	}
}

func TestDrainToAppends(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	buf := make([]int, 0, 8)
	buf = append(buf, -1)
	buf = r.DrainTo(buf)
	if len(buf) != 6 || buf[0] != -1 {
		t.Fatalf("DrainTo did not append: got %v", buf)
	}
	for i := 0; i < 5; i++ {
		if buf[i+1] != i {
			t.Fatalf("DrainTo order: buf[%d] = %d, want %d", i+1, buf[i+1], i)
		}
	}
	if got := r.DrainTo(buf[:0]); len(got) != 0 {
		t.Fatalf("second DrainTo returned %d entries, want 0", len(got))
	}
}

func TestLanesRegisterRemove(t *testing.T) {
	l := NewLanes[int]()
	a := l.NewLane(4)
	b := l.NewLane(4)
	c := l.NewLane(4)
	snap := l.Snapshot()
	if len(snap) != 3 || snap[0] != a || snap[1] != b || snap[2] != c {
		t.Fatalf("Snapshot not in registration order: %v", snap)
	}
	l.Remove(b)
	snap = l.Snapshot()
	if len(snap) != 2 || snap[0] != a || snap[1] != c {
		t.Fatal("Remove did not excise the lane, or disturbed the order")
	}
	// Entries left in a removed lane stay with the lane, not the set.
	b.Push(7)
	if v, ok := b.Pop(); !ok || v != 7 {
		t.Fatal("removed lane no longer usable by its owner")
	}
}

// TestLanesClaim pins the posted mark's states: nothing posted on a fresh
// aggregate, the lane bit after a Wake (however many), the mailbox bit
// after a WakeMailbox, both after both, and nothing after the Claim that
// reported them.
func TestLanesClaim(t *testing.T) {
	l := NewLanes[int]()
	claim := func(wantLanes, wantBoxes bool) {
		t.Helper()
		if lanes, boxes := l.Claim(); lanes != wantLanes || boxes != wantBoxes {
			t.Fatalf("Claim() = (%v, %v), want (%v, %v)", lanes, boxes, wantLanes, wantBoxes)
		}
	}
	claim(false, false)
	lane, box := l.NewLane(4), new(Mailbox[int])
	l.AddMailbox(box)
	lane.Push(1)
	l.Wake()
	lane.Push(2)
	l.Wake()
	claim(true, false)
	claim(false, false)
	box.Post(1, 10)
	l.WakeMailbox()
	claim(false, true)
	box.Post(2, 20)
	l.WakeMailbox()
	lane.Push(3)
	l.Wake()
	claim(true, true)
	claim(false, false)
}

// TestMailbox pins both ways of reading a mailbox: Take returns each new
// value once and publishes its sequence through Taken; Read returns a
// value only under the sequence it was posted with, and marks nothing.
func TestMailbox(t *testing.T) {
	var m Mailbox[string]
	if _, _, ok := m.Take(); ok {
		t.Fatal("Take on a fresh mailbox reported a value")
	}
	if v, ok := m.Read(0); !ok || v != "" {
		t.Fatalf("Read(0) on a fresh mailbox = (%q, %v), want the zero value", v, ok)
	}
	m.Post(1, "a")
	if v, ok := m.Read(1); !ok || v != "a" {
		t.Fatalf("Read(1) = (%q, %v), want (a, true)", v, ok)
	}
	if _, ok := m.Read(2); ok {
		t.Fatal("Read(2) returned the value posted under 1")
	}
	if m.Taken() != 0 {
		t.Fatalf("Taken() = %d after Read only, want 0", m.Taken())
	}
	if seq, v, ok := m.Take(); !ok || seq != 1 || v != "a" {
		t.Fatalf("Take = (%d, %q, %v), want (1, a, true)", seq, v, ok)
	}
	if _, _, ok := m.Take(); ok {
		t.Fatal("second Take returned the value again")
	}
	if m.Taken() != 1 {
		t.Fatalf("Taken() = %d, want 1", m.Taken())
	}
	m.Post(3, "c") // sequences may skip
	if seq, v, ok := m.Take(); !ok || seq != 3 || v != "c" || m.Taken() != 3 {
		t.Fatalf("Take = (%d, %q, %v) with Taken %d, want (3, c, true) with Taken 3", seq, v, ok, m.Taken())
	}
}

// TestMailboxLayout checks by address that a mailbox's sequence and value
// share no line with its taken sequence or with anything outside the
// mailbox, for mailboxes at every offset the allocator hands out.
func TestMailboxLayout(t *testing.T) {
	const line = 64
	keep := make([]*Mailbox[[3]int64], 0, 256)
	for i := 0; i < cap(keep); i++ {
		m := new(Mailbox[[3]int64])
		keep = append(keep, m)
		first := uintptr(unsafe.Pointer(&m.seq)) / line
		last := (uintptr(unsafe.Pointer(&m.val)) + unsafe.Sizeof(m.val) - 1) / line
		lo, hi := uintptr(unsafe.Pointer(m)), uintptr(unsafe.Pointer(m))+unsafe.Sizeof(*m)
		if first <= lo/line || last >= (hi-1)/line {
			t.Fatalf("Mailbox at %#x..%#x: value lines %d..%d reach a line outside it", lo, hi, first, last)
		}
		if taken := uintptr(unsafe.Pointer(&m.taken)) / line; taken >= first && taken <= last {
			t.Fatalf("Mailbox at %#x: taken sequence on value line %d", lo, taken)
		}
	}
}

// TestMailboxRoundTrip runs the request/reply shape the bridge builds from
// two mailboxes under -race: a client posts request k once Taken says the
// server took k-1, and waits on the reply by Read(k); the server takes
// each request and replies, but first replies to every third one twice —
// once under the previous sequence, a stale reply the client must never
// return — so a Read of the wrong sequence that touched the value would
// race with the server's next Post.
func TestMailboxRoundTrip(t *testing.T) {
	const n = 20000
	var req, reply Mailbox[int64]
	go func() {
		for served := uint64(0); served < n; {
			seq, v, ok := req.Take()
			if !ok {
				runtime.Gosched()
				continue
			}
			if seq%3 == 0 {
				reply.Post(seq-1, -1)
			}
			reply.Post(seq, 2*v)
			served = seq
		}
	}()
	for k := uint64(1); k <= n; k++ {
		for req.Taken() < k-1 {
			runtime.Gosched()
		}
		req.Post(k, int64(k))
		for {
			v, ok := reply.Read(k)
			if ok {
				if v != 2*int64(k) {
					t.Fatalf("reply %d = %d, want %d", k, v, 2*k)
				}
				break
			}
			runtime.Gosched()
		}
	}
}

// TestLanesMarkLayout checks by address that the posted mark shares a cache
// line with the eventcount's parked flag, which Wake loads anyway, for
// aggregates at every offset the allocator hands out.
func TestLanesMarkLayout(t *testing.T) {
	const line = 64
	keep := make([]*Lanes[int], 0, 256)
	for i := 0; i < cap(keep); i++ {
		l := NewLanes[int]()
		keep = append(keep, l)
		mark, parked := uintptr(unsafe.Pointer(&l.posted)), uintptr(unsafe.Pointer(&l.ev.parked))
		if mark/line != parked/line {
			t.Fatalf("Lanes at %#x: posted mark at %#x and parked flag at %#x sit on different cache lines", uintptr(unsafe.Pointer(l)), mark, parked)
		}
	}
}

// TestLanesClaimNoStrand runs the bridge pump's consumer shape under load:
// sweep the lanes only after a Claim that reports them, the mailboxes only
// after one that reports those, and park only after Prepare and a second
// Claim both came up empty. Two producers push to lanes and two post to
// mailboxes; each waits for its last value to be swept before it
// publishes the next, so the consumer parks between most values and every
// wake races a park and the other kind's Claim. Every value must be swept
// exactly once and in its producer's order, and the consumer must never
// stay parked on a producer whose wake has returned: a park that outlives
// the watchdog with such a producer and no signal buffered is a stranded
// item. Run it with -race too.
func TestLanesClaimNoStrand(t *testing.T) {
	const producers = 4 // 0 and 1 push to lanes, 2 and 3 post to mailboxes
	const perProducer = 5000
	const watchdog = 50 * time.Millisecond
	l := NewLanes[int]()
	lanes := []*SPSC[int]{l.NewLane(16), l.NewLane(16)}
	boxes := []*Mailbox[int]{new(Mailbox[int]), new(Mailbox[int])}
	for _, box := range boxes {
		l.AddMailbox(box)
	}
	var woken, swept [producers]atomic.Int64
	seen := make([]int, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []int
		total := 0
		take := func(p, v int) {
			seen[v]++
			if want := p*perProducer + int(swept[p].Load()); v != want {
				t.Errorf("producer %d delivered %d, want %d", p, v, want)
			}
			swept[p].Add(1)
			total++
		}
		sweep := func(sweepLanes, sweepBoxes bool) {
			for i, lane := range l.Snapshot() {
				if !sweepLanes {
					break
				}
				scratch = lane.DrainTo(scratch[:0])
				for _, v := range scratch {
					take(i, v)
				}
			}
			for i, box := range l.Mailboxes() {
				if !sweepBoxes {
					break
				}
				if _, v, ok := box.Take(); ok {
					take(len(lanes)+i, v)
				}
			}
		}
		for total < producers*perProducer {
			if ln, bx := l.Claim(); ln || bx {
				sweep(ln, bx)
				continue
			}
			l.Prepare()
			if ln, bx := l.Claim(); ln || bx {
				l.Unpark()
				sweep(ln, bx)
				continue
			}
			select {
			case <-l.WakeChan():
				continue
			case <-time.After(watchdog):
			}
			// Read the Wakes first: any that returned before this load
			// found the parked flag up, so its signal must be buffered.
			var owed [producers]int64
			for i := range owed {
				owed[i] = woken[i].Load() - swept[i].Load()
			}
			select {
			case <-l.WakeChan():
				continue
			default:
			}
			for i, n := range owed {
				if n > 0 {
					t.Errorf("consumer parked with %d woken items from producer %d and no signal", n, i)
				}
			}
			l.Unpark()
			sweep(true, true)
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < perProducer; i++ {
				if p < len(lanes) {
					for !lanes[p].Push(p*perProducer + i) {
						runtime.Gosched()
					}
					l.Wake()
				} else {
					boxes[p-len(lanes)].Post(uint64(i+1), p*perProducer+i)
					l.WakeMailbox()
				}
				woken[p].Add(1)
				for swept[p].Load() <= int64(i) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	<-done
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d swept %d times, want once", v, n)
		}
	}
}

// TestEventParkWake hammers the park/wake protocol: one consumer sweeps a
// lane set, parking whenever a sweep comes up empty; producers push and
// Wake. Every pushed value must arrive exactly once and the consumer must
// terminate — a lost wakeup deadlocks the test (guarded by the -timeout
// the harness always sets). Run with -race this also checks the
// publication ordering.
func TestEventParkWake(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	l := NewLanes[int]()
	lanes := make([]*SPSC[int], producers)
	for i := range lanes {
		lanes[i] = l.NewLane(64)
	}
	done := make(chan struct{})
	got := make(chan int, producers*perProducer)
	go func() {
		defer close(done)
		seen := 0
		var scratch []int
		for seen < producers*perProducer {
			swept := 0
			for _, lane := range l.Snapshot() {
				scratch = lane.DrainTo(scratch[:0])
				for _, v := range scratch {
					got <- v
				}
				swept += len(scratch)
			}
			seen += swept
			if swept > 0 || seen == producers*perProducer {
				continue
			}
			l.Prepare()
			work := false
			for _, lane := range l.Snapshot() {
				if lane.Len() > 0 {
					work = true
					break
				}
			}
			if work {
				l.Unpark()
				continue
			}
			<-l.WakeChan()
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			lane := lanes[p]
			for i := 0; i < perProducer; i++ {
				for !lane.Push(p*perProducer + i) {
					runtime.Gosched()
				}
				l.Wake()
			}
		}(p)
	}
	<-done
	counts := make(map[int]int)
	close(got)
	for v := range got {
		counts[v]++
	}
	if len(counts) != producers*perProducer {
		t.Fatalf("received %d distinct values, want %d", len(counts), producers*perProducer)
	}
	for v, n := range counts {
		if n != 1 {
			t.Fatalf("value %d delivered %d times", v, n)
		}
	}
}

// TestEventStaleToken walks the abandoned-park scenario the Prepare
// ordering exists for: a producer's token lands after the consumer
// unparked; the next Prepare must drain it so the stale token cannot
// satisfy (and so mask) the next park's genuine wait.
func TestEventStaleToken(t *testing.T) {
	var e Event
	e.Init()
	e.Prepare()
	e.Wake() // token for this park epoch
	e.Unpark()
	// The token is still buffered; a fresh Prepare discards it.
	e.Prepare()
	select {
	case <-e.WakeChan():
		t.Fatal("stale token survived Prepare")
	default:
	}
	e.Wake()
	select {
	case <-e.WakeChan():
	default:
		t.Fatal("Wake after Prepare did not signal")
	}
	e.Unpark()
}

// BenchmarkRoundTrip prices one request/reply round trip between two
// goroutines that poll (yielding every 64 empty polls, so one P also
// works): through two Mailboxes, as the sim bridge's sync path, and
// through two one-entry SPSC rings, as its lanes and grant ring did.
func BenchmarkRoundTrip(b *testing.B) {
	poll := func(ok func() bool) {
		for i := 1; !ok(); i++ {
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}
	b.Run("mailbox", func(b *testing.B) {
		var req, reply Mailbox[int64]
		go func() {
			for {
				var seq uint64
				var v int64
				poll(func() (ok bool) { seq, v, ok = req.Take(); return ok })
				reply.Post(seq, v+1)
				if v < 0 {
					return
				}
			}
		}()
		for i := 1; i <= b.N; i++ {
			seq := uint64(i)
			req.Post(seq, int64(i))
			poll(func() bool { _, ok := reply.Read(seq); return ok })
		}
		b.StopTimer()
		req.Post(uint64(b.N+1), -1)
		poll(func() bool { _, ok := reply.Read(uint64(b.N + 1)); return ok })
	})
	b.Run("spsc", func(b *testing.B) {
		req, reply := New[int64](1), New[int64](1)
		go func() {
			for {
				var v int64
				poll(func() (ok bool) { v, ok = req.Pop(); return ok })
				reply.Push(v + 1)
				if v < 0 {
					return
				}
			}
		}()
		for i := 1; i <= b.N; i++ {
			req.Push(int64(i))
			poll(func() bool { _, ok := reply.Pop(); return ok })
		}
		b.StopTimer()
		req.Push(-1)
		poll(func() bool { _, ok := reply.Pop(); return ok })
	})
}
