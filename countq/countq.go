// Package countq is the public face of the repository's concurrent
// counting and queuing structures — the two sides of Busch & Tirthapura,
// "Concurrent counting is harder than queuing".
//
// It defines the Structure and Session interfaces, a spec-keyed registry
// of self-registering implementations (the shared-memory structures in
// internal/shm register themselves on import, in the manner of
// database/sql drivers), and a phased scenario engine that runs any
// registered counter/queue pair under a chosen operation mix, arrival
// pattern, goroutine count and ops budget — as one steady phase, or as a
// named Scenario: a self-registering sequence of Phases that ramps
// goroutines, alternates arrival bursts, shifts the operation mix, or
// toggles batching while the structures persist. Scenarios compose with
// ';' ("ramp?gmax=8;spike", see compose.go), and the Campaign layer runs
// several structure specs under one scenario's byte-identical phase
// sequence, reporting per-structure Metrics plus deltas against a
// baseline. The paper's counting-versus-queuing contrast as one function
// call.
//
// Structures are constructed from specs: a bare registry name builds the
// structure at its declared defaults, and a DSN-style parameter list tunes
// the knobs that control its coordination cost. Every parameter is
// declared by the implementation (see StructureInfo.Params); unknown keys
// and mistyped values are rejected, never silently defaulted.
//
// Quickstart:
//
//	import (
//		"repro/countq"
//
//		_ "repro/internal/shm" // register the shared-memory implementations
//	)
//
//	st, err := countq.NewStructure("sharded?shards=4&batch=16", countq.KindCounter)
//	sess, err := st.NewSession() // one per worker goroutine
//	n, err := sess.Inc(ctx)
//
//	m, err := countq.Run(countq.Workload{
//		Counter:    "sharded?shards=4&batch=16",
//		Queue:      "swap",
//		Scenario:   "ramp?gmax=8", // phased: contention doubles 1 → 8
//		Goroutines: 8,
//		Ops:        100000,
//		Mix:        0.5,
//	})
//
// Run reports structured Metrics rather than a flat average: per-phase
// and aggregate latency histograms with p50/p90/p99/p999/max per op kind,
// a windowed throughput timeline, and per-worker op counts with the
// fairness ratio they imply — because quiescently consistent counters
// look fine on means and give themselves away in the tail. Memory is a
// metric of the same rank: every phase reports heap allocations and
// bytes per operation (AllocsPerOp, AllocBytesPerOp) plus a live-heap
// peak timeline (MemTimeline, LivePeakBytes) on the same 16-window clock
// as the throughput timeline. The driver itself measures from outside
// the allocator — workers preallocate their evidence logs and claim op
// budget in chunks before the phase barrier, so the steady-state loops
// run at zero allocations per op (gated in CI by exact Mallocs counts)
// and the reported numbers belong to the structure under test, not to
// the harness.
//
// Sessions may additionally implement two capability interfaces the
// driver exploits when the registry entry declares them: BatchSession (IncN
// block grants — a whole range of counts for one coordination round) and
// AsyncSession (Submit/Completions — several operations in flight).
//
// Counter and Queuer below are the direct-call view NewCounter/NewQueue
// return: the structure itself, callable from any goroutine with no
// session in between. It exists for code that prices a structure alone
// (bench/ladder.go's shm rungs); everything else drives sessions.
//
// Every run is validated: counts — including IncN block grants — must form
// a gap-free set of distinct values and predecessors must chain into a
// single total order.
package countq

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Counter hands out distinct counts 1, 2, 3, … to concurrent callers: the
// direct-call view of a counter structure (see NewCounter).
type Counter interface {
	// Inc returns the next count (1-based). Safe for concurrent use.
	Inc() int64
}

// Head is the predecessor reported to the first enqueued operation.
const Head int64 = -1

// Queuer organizes concurrent operations into a total order, telling each
// caller the identity of its predecessor — the shared-memory face of
// distributed queuing. Operation ids must be distinct and non-negative.
type Queuer interface {
	// Enqueue appends id to the total order and returns the identity of
	// its predecessor (Head for the first operation).
	Enqueue(id int64) int64
}

// Drainer is implemented by counters that lease count ranges to internal
// shards (e.g. the sharded counter). Drain reclaims every leased-but-unused
// count, so that the counts handed out so far plus the drained remainder
// form the gap-free range 1..max. Validation harnesses call it before
// checking the no-gaps property; callers may also use it as a periodic
// reconciliation point.
type Drainer interface {
	Drain() []int64
}

// CountRange records one IncN block grant: the counts
// First, First+1, …, First+N-1.
type CountRange struct {
	First int64 `json:"first"`
	N     int64 `json:"n"`
}

// ValidateCounts checks that values is a permutation of 1..len(values) —
// the counting correctness condition (distinct counts, no gaps).
func ValidateCounts(values []int64) error {
	return ValidateCountRanges(values, nil)
}

// ValidateCountRanges checks the counting correctness condition over
// singly granted counts plus IncN block grants: together they must tile
// 1..total exactly, where total = len(values) + Σ blocks[i].N — every
// count distinct, no gaps, blocks fully accounted. A rejected input is
// reported by its lowest offending count.
//
// Without block grants it is one pass over a bit set of len(values) bits:
// O(k) time and k/8 bytes, the set small enough to stay in cache beside
// the values streaming through. With block grants every grant becomes a
// span and the spans are sorted: O(k log k) time and 16 bytes per grant.
// Neither path sizes anything by the claimed totals, so malformed input
// from a buggy implementation yields an error rather than an allocation
// failure.
func ValidateCountRanges(values []int64, blocks []CountRange) error {
	if len(blocks) == 0 {
		return validateSingles(values)
	}
	total := int64(len(values))
	type span struct{ lo, hi int64 } // counts [lo, hi)
	spans := make([]span, 0, len(values)+len(blocks))
	for _, v := range values {
		if v == math.MaxInt64 {
			return fmt.Errorf("countq: count %d overflows", v)
		}
		spans = append(spans, span{v, v + 1})
	}
	for _, b := range blocks {
		if b.N < 1 {
			return fmt.Errorf("countq: block grant of %d counts (want ≥ 1)", b.N)
		}
		if b.First > math.MaxInt64-b.N || b.N > math.MaxInt64-total {
			return fmt.Errorf("countq: block [%d,+%d) overflows", b.First, b.N)
		}
		total += b.N
		spans = append(spans, span{b.First, b.First + b.N})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	next := int64(1) // lowest count not yet accounted for
	for _, s := range spans {
		switch {
		case s.lo < 1 || s.lo > total:
			return fmt.Errorf("countq: count %d outside 1..%d", s.lo, total)
		case s.lo < next:
			return fmt.Errorf("countq: count %d duplicated", s.lo)
		case s.lo > next:
			return fmt.Errorf("countq: count %d missing (gap before %d)", next, s.lo)
		}
		next = s.hi
	}
	return nil
}

// validateSingles checks that values is a permutation of 1..len(values)
// and otherwise reports what a walk over the sorted values would meet
// first: the lowest value below 1, else the lower of the first duplicate
// and the first gap (a gap closed only by a value past the total reports
// that value as out of range).
func validateSingles(values []int64) error {
	k := int64(len(values))
	seen := make([]uint64, (len(values)+63)/64) // bit v-1 set: count v granted
	var (
		below = int64(1)             // lowest value under 1
		above = int64(math.MaxInt64) // lowest value over k
		dup   = int64(math.MaxInt64) // lowest count granted twice
	)
	for _, v := range values {
		switch {
		case uint64(v-1) < uint64(k): // 1 ≤ v ≤ k
			w, bit := (v-1)>>6, uint64(1)<<((v-1)&63)
			if seen[w]&bit != 0 {
				dup = min(dup, v)
			}
			seen[w] |= bit
		case v < 1:
			below = min(below, v)
		case v == math.MaxInt64:
			return fmt.Errorf("countq: count %d overflows", v)
		default:
			above = min(above, v)
		}
	}
	if below < 1 {
		return fmt.Errorf("countq: count %d outside 1..%d", below, k)
	}
	if dup == math.MaxInt64 && above == math.MaxInt64 {
		return nil // k distinct values, all within 1..k
	}
	// Some value was wasted on a duplicate or past k, so a count in 1..k
	// is missing; the padding bits past k sit above it.
	w := 0
	for seen[w] == ^uint64(0) {
		w++
	}
	missing := int64(w)<<6 + int64(bits.TrailingZeros64(^seen[w])) + 1
	if dup < missing {
		return fmt.Errorf("countq: count %d duplicated", dup)
	}
	// The sorted walk steps from missing-1 to the next value present.
	// seen[w] is ones below the missing count's bit, so x&(x+1) — clear
	// the trailing ones — keeps exactly the counts above it.
	rest := seen[w] & (seen[w] + 1)
	for rest == 0 && w+1 < len(seen) {
		w++
		rest = seen[w]
	}
	if rest != 0 {
		return fmt.Errorf("countq: count %d missing (gap before %d)", missing, int64(w)<<6+int64(bits.TrailingZeros64(rest))+1)
	}
	return fmt.Errorf("countq: count %d outside 1..%d", above, k)
}

// idIndex is a key → index table over a slice of int64 keys, in one of
// two forms.
//
// The hash form (newIDIndex) is open-addressed over the keys, of which the
// inserted ones are distinct: at least two int32 slots per key (a power of
// two), Fibonacci multiplicative hashing, linear probing, no deletion. A
// slot holds 1 + the key's index, so the zeroed allocation is the empty
// table. It takes any keys, at about one cache miss per insert and per find
// once the table outgrows the cache.
//
// The run form (newRunIndex) serves keys stored as a few runs — stretches
// where each key is the previous key plus one, as a runner lane numbers
// its enqueues — by a table of the runs sorted by first key. findRun is a
// binary search over the runs and one subtraction; nothing is inserted.
type idIndex struct {
	keys  []int64
	slots []int32
	shift uint    // 64 - log2(len(slots))
	runs  []idRun // non-nil in the run form
}

// idRun is one run of the run form: keys[at+i] == first+i for i < n.
type idRun struct {
	first int64
	at, n int32
}

func newIDIndex(keys []int64) idIndex {
	lg := uint(bits.Len(uint(max(2*len(keys)-1, 1))))
	return idIndex{keys: keys, slots: make([]int32, 1<<lg), shift: 64 - lg}
}

// newRunIndex returns the run form over keys, or false when the keys do
// not split into at most max(len(keys)/16, 1) runs covering disjoint key
// ranges. Disjoint runs prove the keys distinct. The count stops at the
// first run past the limit, so keys in no order cost about len(keys)/16
// comparisons and no allocation; runs that overlap share a key, and
// only such input, already invalid, pays for the discarded run table.
// The keys must be non-negative, so that no run wraps past MaxInt64.
func newRunIndex(keys []int64) (idIndex, bool) {
	limit := max(len(keys)/16, 1)
	n := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1]+1 {
			if n++; n > limit {
				return idIndex{}, false
			}
		}
	}
	runs := make([]idRun, 0, n)
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1]+1 {
			runs = append(runs, idRun{first: keys[i], at: int32(i)})
		}
		runs[len(runs)-1].n++
	}
	slices.SortFunc(runs, func(a, b idRun) int { return cmp.Compare(a.first, b.first) })
	for r := 1; r < len(runs); r++ {
		if last := runs[r-1].first + int64(runs[r-1].n) - 1; last >= runs[r].first {
			return idIndex{}, false
		}
	}
	return idIndex{runs: runs}, true
}

// home is the slot a key's probe sequence starts from.
func (t *idIndex) home(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// insert adds keys[i] and returns -1, or returns the index already holding
// an equal key and leaves the table unchanged.
func (t *idIndex) insert(i int) int {
	key, mask := t.keys[i], len(t.slots)-1
	for s := t.home(key); ; s = (s + 1) & mask {
		switch j := int(t.slots[s]) - 1; {
		case j < 0:
			t.slots[s] = int32(i + 1)
			return -1
		case t.keys[j] == key:
			return j
		}
	}
}

// find returns the index of key among the inserted keys, or -1.
func (t *idIndex) find(key int64) int {
	mask := len(t.slots) - 1
	for s := t.home(key); ; s = (s + 1) & mask {
		j := int(t.slots[s]) - 1
		if j < 0 || t.keys[j] == key {
			return j
		}
	}
}

// findRun is find in the run form, which holds at least one run: the
// last run starting at or below key holds it, if any run does. The search
// halves a span whose length depends on the run count alone, so its one
// data-dependent step compiles to a conditional move, and keys scattered
// over the runs cost no branch mispredictions.
func (t *idIndex) findRun(key int64) int {
	runs := t.runs
	i := 0
	for n := len(runs); n > 1; n -= n >> 1 {
		if runs[i+n>>1].first <= key {
			i += n >> 1
		}
	}
	// A key below runs[0] makes off negative, out of range as unsigned.
	if off := key - runs[i].first; uint64(off) < uint64(runs[i].n) {
		return int(runs[i].at) + int(off)
	}
	return -1
}

// ValidateOrder checks the queuing correctness condition on a set of
// (id, predecessor) pairs: ids distinct and non-negative, predecessors
// distinct, exactly one operation queued behind Head, and the successor
// chain covers every operation. A negative id is rejected before anything
// else is looked at: Head is negative, and an operation sharing its name
// could not be told from the head of the queue.
//
// It runs in O(k) expected time over flat memory: one id → index table
// (idIndex) and one successor array by index (4 bytes per entry). Ids
// stored as at most k/16 runs of consecutive integers covering disjoint
// ranges — a runner lane's enqueues, lane by lane — are indexed by their
// runs (16 bytes per run, at most 1 per entry), are distinct by
// construction, and are found by a binary search over the runs: 5 bytes
// per entry at most, read in the order the chain visits them. Any other
// ids go through the hash form (8 to 16 bytes per entry), at about one
// cache miss per id and one per predecessor once the table outgrows the
// cache: 12 to 20 bytes per entry. The form depends on the ids alone;
// verdicts and error texts do not depend on it. Indices are int32, so k is
// limited to 2³¹-1 operations.
func ValidateOrder(ids, preds []int64) error {
	if len(ids) != len(preds) {
		return fmt.Errorf("countq: %d ids but %d preds", len(ids), len(preds))
	}
	if len(ids) > math.MaxInt32 {
		return fmt.Errorf("countq: %d operations exceed the order validator's limit of %d", len(ids), math.MaxInt32)
	}
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("countq: operation id %d is negative", id)
		}
	}
	// Errors are reported as a single pass over the pairs would meet them:
	// at each index the id is checked before the predecessor. Ids are
	// therefore indexed only up to the first duplicate, and predecessors
	// only resolved below it.
	byID, distinct := newRunIndex(ids)
	limit := len(ids)
	if !distinct {
		byID = newIDIndex(ids)
		for i := range ids {
			if byID.insert(i) >= 0 {
				limit = i
				break
			}
		}
	}
	// succ[j] and head hold 1 + the index of the operation queued behind
	// operation j and behind Head; 0 means nobody yet.
	succ := make([]int32, len(ids))
	var head int32
	// A predecessor naming no indexed operation cannot be chained, but a
	// repeat of it must still be reported; the rejected input pays for the
	// second table.
	var strays idIndex
	for i, p := range preds[:limit] {
		behind := &head
		if p != Head {
			// Both finds inline here: a call per predecessor stalls the
			// hash form's overlapping cache misses, 2.5× slower.
			var j int
			if byID.runs != nil {
				j = byID.findRun(p)
			} else {
				j = byID.find(p)
			}
			if j < 0 {
				if strays.slots == nil {
					strays = newIDIndex(preds)
				}
				if strays.insert(i) >= 0 {
					return fmt.Errorf("countq: predecessor %d claimed twice", p)
				}
				continue
			}
			behind = &succ[j]
		}
		if *behind != 0 {
			return fmt.Errorf("countq: predecessor %d claimed twice", p)
		}
		*behind = int32(i + 1)
	}
	if limit < len(ids) {
		return fmt.Errorf("countq: operation id %d duplicated", ids[limit])
	}
	// The walk terminates: index i+1 was stored exactly once above, so no
	// operation is reachable along two edges, and the first operation's
	// only edge comes from Head.
	count := 0
	for cur := head; cur != 0; cur = succ[cur-1] {
		count++
	}
	if count != len(ids) {
		return fmt.Errorf("countq: chain covers %d of %d operations", count, len(ids))
	}
	return nil
}
