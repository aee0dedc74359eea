package shm

import (
	"math/bits"
	"runtime"
	"testing"
)

// newTestDiffracting builds a tree, with every node's wait pinned at the
// spin ceiling when asked (the same seam as newTestFunnel).
func newTestDiffracting(t *testing.T, leaves, spin int, pinned bool) *DiffractingCounter {
	t.Helper()
	d, err := NewDiffractingCounter(leaves, spin)
	if err != nil {
		t.Fatal(err)
	}
	if pinned {
		d.floor = d.spin
	}
	return d
}

func TestDiffractingSequential(t *testing.T) {
	for _, leaves := range []int{1, 2, 4, 8} {
		d, err := NewDiffractingCounter(leaves, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := 0; i < 5*leaves+3; i++ {
			got = append(got, d.Inc())
		}
		if err := ValidateCounts(got); err != nil {
			t.Errorf("leaves=%d: %v", leaves, err)
		}
	}
}

func TestDiffractingRejectsBadWidth(t *testing.T) {
	for _, leaves := range []int{3, 12, -2} {
		if _, err := NewDiffractingCounter(leaves, 0); err == nil {
			t.Errorf("leaf count %d accepted", leaves)
		}
	}
	if _, err := NewDiffractingCounter(4, -1); err == nil {
		t.Error("negative spin accepted")
	}
}

// TestDiffractingDefaultLeaves pins the constructor default: like the
// sharded counter's shard array, the tree sizes itself from GOMAXPROCS —
// rounded up to the power of two the balancer tree needs. (The registry
// shim still rejects an explicit leaves=0 spec; 0 is the constructor's
// "use the default" sentinel, not a spec value.)
func TestDiffractingDefaultLeaves(t *testing.T) {
	d, err := NewDiffractingCounter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for want < runtime.GOMAXPROCS(0) {
		want <<= 1
	}
	if d.Width() != want {
		t.Errorf("default leaves = %d, want %d (GOMAXPROCS=%d rounded up to a power of two)",
			d.Width(), want, runtime.GOMAXPROCS(0))
	}
}

func TestDiffractingConcurrent(t *testing.T) {
	for _, mode := range waitModes {
		for _, leaves := range []int{2, 8} {
			d := newTestDiffracting(t, leaves, 32, mode.pinned)
			if _, err := MeasureCounter("diffracting", d, 8, 300); err != nil {
				t.Errorf("%s leaves=%d: %v", mode.name, leaves, err)
			}
			for i := range d.nodes {
				if d.nodes[i].prism.w.Load() != nil {
					t.Errorf("%s leaves=%d: a token is still parked at node %d after every Inc returned", mode.name, leaves, i)
				}
			}
		}
	}
}

// TestDiffractingRendezvousPair: a token that finds one parked in the
// prism sends it left and goes right itself, and neither touches the
// toggle.
func TestDiffractingRendezvousPair(t *testing.T) {
	d := newTestDiffracting(t, 2, 8, true)
	parked := new(diffToken)
	if !d.nodes[1].prism.park(parked) {
		t.Fatal("prism already occupied")
	}
	if v := d.Inc(); v != 2 {
		t.Errorf("committing token counted %d, want 2 (the right leaf's first count)", v)
	}
	if dir, ok := parked.got.await(1); !ok || dir != 0 {
		t.Errorf("parked token's direction = %d, %v; want 0 (left), delivered", dir, ok)
	}
	if d.nodes[1].toggle.Load() != 0 {
		t.Error("a diffracted pair moved the toggle")
	}
}

// TestDiffractingAdaptiveHint pins the node hint by counts: alone, each
// timed-out park halves it, so a node is parked at for at most
// log2(spin)+1 visits and from then on costs its toggle only; a meeting
// raises it again.
func TestDiffractingAdaptiveHint(t *testing.T) {
	d := newTestDiffracting(t, 2, 16, false)
	root := &d.nodes[1]
	var got []int64
	for i := 0; i < bits.Len(uint(d.spin)); i++ {
		got = append(got, d.Inc())
	}
	if root.wait.Load() != 0 {
		t.Fatalf("hint after log2(spin)+1 solo visits = %d, want 0", root.wait.Load())
	}
	for i := 0; i < 100; i++ {
		got = append(got, d.Inc())
		if root.wait.Load() != 0 || root.prism.w.Load() != nil {
			t.Fatal("a quiet node was parked at again")
		}
	}
	if err := ValidateCounts(got); err != nil {
		t.Error(err)
	}
	parked := new(diffToken)
	root.prism.park(parked)
	d.Inc()
	if root.wait.Load() != 1 {
		t.Errorf("hint after a meeting = %d, want 1", root.wait.Load())
	}
}

// TestDiffractingOneP: see TestFunnelOneP.
func TestDiffractingOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range waitModes {
		finishes(t, mode.name+" diffracting", newTestDiffracting(t, 4, 16, mode.pinned))
	}
}

func TestDiffractingMeasured(t *testing.T) {
	d, err := NewDiffractingCounter(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureCounter("diffracting", d, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != 800 {
		t.Errorf("ops = %d", m.Ops)
	}
}
