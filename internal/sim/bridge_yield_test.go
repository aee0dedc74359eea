package sim

import (
	"runtime"
	"testing"
)

// The free-running pump yields on a round count only where that is the one
// way a waiter gets to run; see freeRunYield for what the yield costs
// everywhere else.
func TestFreeRunYieldOnlyOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, yield, poll int }{
		{1, freeRunYield, 0},
		{2, 0, pumpIdlePoll},
	} {
		runtime.GOMAXPROCS(tc.procs)
		b, err := NewBridge(BridgeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if b.yieldEvery != tc.yield || b.idlePoll != tc.poll {
			t.Errorf("GOMAXPROCS=%d: yieldEvery %d, idlePoll %d; want %d, %d",
				tc.procs, b.yieldEvery, b.idlePoll, tc.yield, tc.poll)
		}
		b.Close()
	}
}
