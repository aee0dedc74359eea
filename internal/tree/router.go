package tree

// Router answers next-hop queries on the tree in O(log deg) time using
// Euler-tour intervals, for protocols that route messages hop by hop along
// tree paths (the counting and queuing protocols of the experiments).
type Router struct {
	t         *Tree
	tin, tout []int // DFS entry/exit times; subtree(v) = [tin[v], tout[v])
}

// Router returns the tree's routing structure, computed in O(n) on first use
// and shared from then on: a Tree is immutable and a Router only reads it.
func (t *Tree) Router() *Router {
	t.routerOnce.Do(func() { t.router = t.newRouter() })
	return t.router
}

func (t *Tree) newRouter() *Router {
	n := t.N()
	r := &Router{t: t, tin: make([]int, n), tout: make([]int, n)}
	// Iterative DFS in child order.
	type frame struct{ v, idx int }
	clock := 0
	stack := []frame{{t.root, 0}}
	r.tin[t.root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.children[f.v]
		if f.idx < len(kids) {
			c := kids[f.idx]
			f.idx++
			r.tin[c] = clock
			clock++
			stack = append(stack, frame{c, 0})
			continue
		}
		r.tout[f.v] = clock
		stack = stack[:len(stack)-1]
	}
	return r
}

// inSubtree reports whether x lies in the subtree rooted at v.
func (r *Router) inSubtree(x, v int) bool {
	return r.tin[v] <= r.tin[x] && r.tin[x] < r.tout[v]
}

// NextHop returns the tree neighbor of from that is one hop closer to to.
// It panics if from == to.
func (r *Router) NextHop(from, to int) int {
	if from == to {
		panic("tree: Router.NextHop with from == to")
	}
	if !r.inSubtree(to, from) {
		return r.t.parent[from]
	}
	// Binary search the child whose interval contains tin[to]: the first
	// whose tout exceeds it, since children's intervals are disjoint and
	// ordered by tin. A single child (every inner node of a path) is it.
	kids := r.t.children[from]
	if len(kids) == 1 {
		return kids[0]
	}
	t := r.tin[to]
	lo, hi := 0, len(kids)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.tout[kids[mid]] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return kids[lo]
}

// Dist returns the tree distance (delegates to the tree's LCA structure).
func (r *Router) Dist(u, v int) int { return r.t.Dist(u, v) }
