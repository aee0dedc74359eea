package tree

import (
	"testing"
)

func TestRouterMatchesNextHop(t *testing.T) {
	shapes := []*Tree{
		Perfect(2, 5),
		Perfect(4, 3),
		randomTree(80, 21),
		mustPathTree(t, 25),
	}
	for _, tr := range shapes {
		r := tr.Router()
		for u := 0; u < tr.N(); u++ {
			for v := 0; v < tr.N(); v++ {
				if u == v {
					continue
				}
				if got, want := r.NextHop(u, v), tr.NextHop(u, v); got != want {
					t.Fatalf("n=%d: Router.NextHop(%d,%d) = %d, want %d", tr.N(), u, v, got, want)
				}
			}
		}
	}
}

func TestRouterSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NextHop(v,v) did not panic")
		}
	}()
	Perfect(2, 3).Router().NextHop(1, 1)
}

func TestRouterWalkTerminates(t *testing.T) {
	tr := randomTree(200, 5)
	r := tr.Router()
	// Walking hop by hop from u must reach v in exactly Dist(u,v) steps.
	for _, pair := range [][2]int{{0, 199}, {150, 3}, {77, 78}} {
		u, v := pair[0], pair[1]
		steps := 0
		for x := u; x != v; x = r.NextHop(x, v) {
			steps++
			if steps > tr.N() {
				t.Fatalf("walk %d→%d did not terminate", u, v)
			}
		}
		if steps != tr.Dist(u, v) {
			t.Errorf("walk %d→%d took %d steps, want %d", u, v, steps, tr.Dist(u, v))
		}
	}
}
