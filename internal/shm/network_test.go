package shm

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/counting"
)

// TestNetworkBalancerAlternates: the tokens through one balancer leave on
// Top, Bottom, Top, …, starting with Top. Through a whole network, so a
// session alone sees the counts 1, 2, 3, … in order: each of its tokens
// finds the network quiescent, and a quiescent counting network hands the
// next token the next count.
func TestNetworkBalancerAlternates(t *testing.T) {
	spec := counting.Balancer{Top: 3, Bottom: 5}
	var b balancer
	for i := 0; i < 9; i++ {
		want := spec.Top
		if i%2 == 1 {
			want = spec.Bottom
		}
		if got := b.pass(spec); got != want {
			t.Fatalf("token %d left on wire %d, want %d", i, got, want)
		}
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		nc, err := NewNetworkCounter(w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := nc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for want := int64(1); want <= int64(5*w+3); want++ {
			if v, err := s.Inc(context.Background()); err != nil || v != want {
				t.Fatalf("width %d: Inc = %d, %v; want %d", w, v, err, want)
			}
		}
		s.Close()
	}
}

// TestNetworkSessionsConcurrent: sessions racing through the lock-free
// toggles still leave a permutation of 1..n once the network is quiescent.
func TestNetworkSessionsConcurrent(t *testing.T) {
	for _, w := range []int{2, 8, 16} {
		nc, err := NewNetworkCounter(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := measureSessions(nc, 8, 2000); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

// TestNetworkOneP: eight tokens sharing one P, each on its own session or
// through the direct Inc, all get out of the network.
func TestNetworkOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	finishes(t, "network", func() rendezvousCounter {
		nc, err := NewNetworkCounter(8)
		if err != nil {
			t.Fatal(err)
		}
		return nc
	})
}
