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

// TestLanesClaim pins the posted mark's three states: nothing posted on a
// fresh aggregate, posted after a Wake (however many), and cleared by the
// Claim that reported it.
func TestLanesClaim(t *testing.T) {
	l := NewLanes[int]()
	if l.Claim() {
		t.Fatal("Claim on a fresh Lanes reported a post")
	}
	lane := l.NewLane(4)
	lane.Push(1)
	l.Wake()
	lane.Push(2)
	l.Wake()
	if !l.Claim() {
		t.Fatal("Claim after Wake reported nothing posted")
	}
	if l.Claim() {
		t.Fatal("second Claim reported a post the first one cleared")
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
// sweep only after a true Claim, and park only after Prepare and a second
// Claim both came up empty. Each producer waits for its last value to be
// swept before it pushes the next, so the consumer parks between most
// values and every Wake races a park. Every pushed value must be swept
// exactly once and in its lane's order, and the consumer must never stay
// parked on a lane whose producer's Wake has returned: a park that
// outlives the watchdog with such a lane and no signal buffered is a
// stranded item. Run it with -race too.
func TestLanesClaimNoStrand(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	const watchdog = 50 * time.Millisecond
	l := NewLanes[int]()
	lanes := make([]*SPSC[int], producers)
	var woken, swept [producers]atomic.Int64
	for i := range lanes {
		lanes[i] = l.NewLane(16)
	}
	seen := make([]int, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []int
		total := 0
		sweep := func() {
			for i, lane := range l.Snapshot() {
				scratch = lane.DrainTo(scratch[:0])
				for _, v := range scratch {
					seen[v]++
					if want := i*perProducer + int(swept[i].Load()); v != want {
						t.Errorf("lane %d delivered %d, want %d", i, v, want)
					}
					swept[i].Add(1)
				}
				total += len(scratch)
			}
		}
		for total < producers*perProducer {
			if l.Claim() {
				sweep()
				continue
			}
			l.Prepare()
			if l.Claim() {
				l.Unpark()
				sweep()
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
					t.Errorf("consumer parked with %d woken items in lane %d and no signal", n, i)
				}
			}
			l.Unpark()
			sweep()
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
