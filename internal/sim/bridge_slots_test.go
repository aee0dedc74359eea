package sim

import (
	"context"
	"testing"
	"time"

	"repro/countq"
)

// TestBridgeCloseFreesEverySlot closes a bridge while its sessions' full
// pipelines are still in their lanes and in flight on a slow list: once
// Close returns, every operation has its Completion and every slot is back
// on its session's free ring. A Submit rejected by the closed bridge must
// leave the ring as it was, and so must the close sweep of an operation
// left in a lane after the pump exited.
func TestBridgeCloseFreesEverySlot(t *testing.T) {
	const sessions, pipeline = 6, 8
	b, err := NewBridge(BridgeConfig{Topo: "list", Nodes: 16, HopLat: time.Millisecond, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	var ss []*bridgeSession
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		cs, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		s := cs.(*bridgeSession)
		ss = append(ss, s)
		for k := 0; k < pipeline; k++ {
			if err := s.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1, Token: uint64(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if n := s.free.Len(); n != pipeline {
			t.Errorf("session %d: %d of %d slots free after Close", i, n, pipeline)
		}
		if n := len(s.out); n != pipeline {
			t.Errorf("session %d: %d completions for %d accepted operations", i, n, pipeline)
		}
		for len(s.out) > 0 {
			<-s.out
		}
	}
	s := ss[0]
	if s.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1}) == nil {
		t.Fatal("Submit accepted by a closed bridge")
	}
	if n := s.free.Len(); n != pipeline {
		t.Errorf("%d of %d slots free after a rejected Submit", n, pipeline)
	}
	// An operation that reached a lane but not the pump is failed by the
	// close sweep, which also returns its slot.
	slot, _ := s.free.Peek()
	s.slots[slot] = countq.Op{Kind: countq.OpInc, N: 1, Token: 99}
	s.lane.Push(bridgeOp{sess: s, arg: 1, seq: uint64(slot), async: true})
	s.free.Pop()
	b.failLanes(errBridgeClosed)
	if c := <-s.out; c.Op.Token != 99 || c.Err != errBridgeClosed {
		t.Errorf("swept completion = %+v, want token 99 and the close error", c)
	}
	if n := s.free.Len(); n != pipeline {
		t.Errorf("%d of %d slots free after the close sweep", n, pipeline)
	}
}
