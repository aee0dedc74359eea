package sim

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/countq"
)

// The free-running pump yields on a round count only where that is the one
// way a waiter gets to run, and after a handoff only where the reaper it
// readied could run on another P; see freeRunYield and yieldsOnHandoff.
func TestFreeRunYieldOnlyOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, yield, poll int
		handoff            bool
	}{
		{1, freeRunYield, 0, false},
		{2, 0, pumpIdlePoll, true},
	} {
		runtime.GOMAXPROCS(tc.procs)
		b, err := NewBridge(BridgeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if b.yieldEvery != tc.yield || b.idlePoll != tc.poll || b.yieldsOnHandoff() != tc.handoff {
			t.Errorf("GOMAXPROCS=%d: yieldEvery %d, idlePoll %d, yield on handoff %v; want %d, %d, %v",
				tc.procs, b.yieldEvery, b.idlePoll, b.yieldsOnHandoff(), tc.yield, tc.poll, tc.handoff)
		}
		b.Close()
	}
}

// TestSettleReportsHandoff: settle reports a handoff only when a reaper
// is blocked on Completions to take the completion; one that stays in the
// channel's buffer is no handoff.
func TestSettleReportsHandoff(t *testing.T) {
	b, err := NewBridge(BridgeConfig{Pipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cs, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := cs.(*bridgeSession)
	// async stands in for an accepted Submit: it takes a free slot and
	// parks the op there, as Submit does before the pump sees it.
	async := func(token uint64) bridgeOp {
		slot, ok := s.free.Pop()
		if !ok {
			t.Fatal("no free slot")
		}
		s.slots[slot] = countq.Op{Kind: countq.OpInc, N: 1, Token: token}
		return bridgeOp{sess: s, arg: 1, seq: uint64(slot), async: true}
	}

	if settle(async(1), 1, nil) {
		t.Error("a completion left in the channel's buffer reported a handoff")
	}
	if c := <-s.Completions(); c.Op.Token != 1 || c.Value != 1 {
		t.Fatalf("buffered completion = %+v, want token 1, value 1", c)
	}

	got := make(chan countq.Completion)
	go func() { got <- <-s.Completions() }()
	// Wait until the reaper is parked in the receive.
	for deadline := time.Now().Add(10 * time.Second); !reaperBlocked(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the reaper never blocked on Completions")
		}
	}
	if !settle(async(2), 2, nil) {
		t.Error("a completion handed to a reaper blocked on Completions reported no handoff")
	}
	if c := <-got; c.Op.Token != 2 || c.Value != 2 {
		t.Fatalf("handed-off completion = %+v, want token 2, value 2", c)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.free.Len(); n != 4 {
		t.Errorf("%d slots back on the free ring, want all 4", n)
	}
}

// reaperBlocked reports whether TestSettleReportsHandoff's reaper
// goroutine is parked in a channel receive.
func reaperBlocked() bool {
	buf := make([]byte, 1<<16)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("TestSettleReportsHandoff.func")) {
			return true
		}
	}
	return false
}
