package countq

import (
	"testing"
	"time"
	"unsafe"
)

// span is the byte range [lo, hi) of one field in memory.
type span struct {
	name   string
	lo, hi uintptr
}

func spanOf[T any](name string, p *T) span {
	lo := uintptr(unsafe.Pointer(p))
	return span{name, lo, lo + unsafe.Sizeof(*p)}
}

// perOpWrites lists every field a worker writes on its per-op path.
func perOpWrites(r *laneRunner) []span {
	ln := &r.ln
	return []span{
		spanOf("counts", &ln.counts), spanOf("blocks", &ln.blocks),
		spanOf("ids", &ln.ids), spanOf("preds", &ln.preds),
		spanOf("hists", &ln.hists), spanOf("events", &ln.events),
		spanOf("issued", &ln.issued), spanOf("err", &ln.err),
		spanOf("iter", &r.iter), spanOf("allowance", &r.allowance),
		spanOf("resLeft", &r.resLeft), spanOf("sinceEvent", &r.sinceEvent),
		spanOf("enqueued", &r.enqueued),
		spanOf("mark", &r.mark), spanOf("intended", &r.intended),
		spanOf("outstanding", &r.outstanding), spanOf("burst", &r.burst),
		spanOf("countDue", &r.countDue), spanOf("blockDue", &r.blockDue),
		spanOf("idDue", &r.idDue),
	}
}

// apart reports whether a and b are at least a cache line apart, so no
// line can hold a byte of each.
func apart(a, b span) bool { return b.lo >= a.hi+cacheLine || a.lo >= b.hi+cacheLine }

// TestRunnerLayout builds two workers of one phase through newWorker, the
// setup step runPhase's workers run, and holds them to the ownership rule
// by address: no field either worker writes per op lies within a cache
// line of a field the other writes, or of either end of its own
// allocation, past which another heap object may sit.
func TestRunnerLayout(t *testing.T) {
	p := Phase{Name: "steady", Goroutines: 2, Mix: 0.5, LatencySample: 64, Ops: 1 << 10}
	ph := newPhaseRun(nil, nil, Workload{}, 0, p, time.Now())
	w := [2]*laneRunner{ph.newWorker(0), ph.newWorker(1)}
	var alloc *isolated[laneRunner]
	for i, r := range w {
		lo := uintptr(unsafe.Pointer(r)) - unsafe.Offsetof(alloc.v)
		edges := []span{{"allocation start", lo, lo}, {"allocation end", lo + unsafe.Sizeof(*alloc), lo + unsafe.Sizeof(*alloc)}}
		for _, f := range perOpWrites(r) {
			for _, e := range edges {
				if !apart(f, e) {
					t.Errorf("worker %d: %s [%#x, %#x) within a cache line of its %s %#x", i, f.name, f.lo, f.hi, e.name, e.lo)
				}
			}
		}
	}
	for _, f := range perOpWrites(w[0]) {
		for _, g := range perOpWrites(w[1]) {
			if !apart(f, g) {
				t.Errorf("worker 0's %s [%#x, %#x) within a cache line of worker 1's %s [%#x, %#x)", f.name, f.lo, f.hi, g.name, g.lo, g.hi)
			}
		}
	}
}
