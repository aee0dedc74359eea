package countq

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// diffSizes straddle the bit set's word boundary and reach a size where
// the id table no longer fits in cache.
var diffSizes = []int{0, 1, 2, 63, 64, 65, 1 << 16}

// sameVerdict holds got to want: both nil, or both the same error text.
func sameVerdict(t testing.TB, what string, got, want error) {
	t.Helper()
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil || got.Error() != want.Error():
		t.Errorf("%s: got %v, reference says %v", what, got, want)
	}
}

// splits are the segmentations every input is also checked in: whole, and
// cut into 2 and 7 segments, as a run's lanes leave their evidence.
var splits = []int{1, 2, 7}

// cut returns the bounds of segment i of n over l elements.
func cut(l, n, i int) (lo, hi int) { return l * i / n, l * (i + 1) / n }

// diffCounts holds ValidateCountRanges, and the segment form over every
// split of the same values and blocks, to the reference.
func diffCounts(t testing.TB, what string, values []int64, blocks []CountRange) {
	t.Helper()
	want := refValidateCountRanges(values, blocks)
	sameVerdict(t, what, ValidateCountRanges(values, blocks), want)
	for _, n := range splits {
		segs := make([]laneData, n)
		for i := range segs {
			lo, hi := cut(len(values), n, i)
			blo, bhi := cut(len(blocks), n, i)
			segs[i] = laneData{counts: values[lo:hi], blocks: blocks[blo:bhi]}
		}
		sameVerdict(t, fmt.Sprintf("%s (%d segments)", what, n), validateCountRanges(segs), want)
	}
}

// diffOrder holds ValidateOrder, and the segment form over every split of
// the same pairs, to the reference — except on a negative id: the
// reference hangs when an id equals Head, so there the validators are held
// to their contract instead, an error. The splits share one scratch, so
// each call starts from what the previous one left in it.
func diffOrder(t testing.TB, what string, ids, preds []int64) {
	t.Helper()
	negative := int64(0)
	if len(ids) == len(preds) {
		for _, id := range ids {
			if id < 0 {
				negative = id
				break
			}
		}
	}
	var want error
	if negative == 0 {
		want = refValidateOrder(ids, preds)
	}
	check := func(what string, got error) {
		t.Helper()
		if negative == 0 {
			sameVerdict(t, what, got, want)
		} else if got == nil {
			t.Errorf("%s: negative id %d accepted", what, negative)
		}
	}
	check(what, ValidateOrder(ids, preds))
	var sc orderScratch
	for _, n := range splits {
		segs := make([]laneData, n)
		for i := range segs {
			lo, hi := cut(len(ids), n, i)
			plo, phi := cut(len(preds), n, i)
			segs[i] = laneData{ids: ids[lo:hi], preds: preds[plo:phi]}
		}
		check(fmt.Sprintf("%s (%d segments)", what, n), validateOrder(segs, &sc))
	}
}

type countCase struct {
	name   string
	values []int64
	blocks []CountRange
}

// countCases builds, for one size, a valid permutation, a valid tiling with
// block grants, and one input per corruption class, all in shuffled order.
func countCases(k int, rng *rand.Rand) []countCase {
	perm := func() []int64 {
		v := make([]int64, k)
		for i, p := range rng.Perm(k) {
			v[i] = int64(p) + 1
		}
		return v
	}
	// at returns the position holding count c.
	at := func(v []int64, c int64) int {
		for i := range v {
			if v[i] == c {
				return i
			}
		}
		panic("count not present")
	}
	tiling := func() ([]int64, []CountRange) {
		var v []int64
		var b []CountRange
		for c := int64(1); c <= int64(k); {
			if rng.Intn(2) == 0 {
				v = append(v, c)
				c++
				continue
			}
			n := min(int64(1+rng.Intn(5)), int64(k)-c+1)
			b = append(b, CountRange{First: c, N: n})
			c += n
		}
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return v, b
	}

	cases := []countCase{{name: "permutation", values: perm()}}
	v, b := tiling()
	cases = append(cases, countCase{"tiling", v, b})
	if k == 0 {
		return append(cases,
			countCase{"N=0", nil, []CountRange{{First: 1, N: 0}}},
			countCase{"overflowing block", nil, []CountRange{{First: math.MaxInt64, N: 2}}},
		)
	}

	single := func(name string, mutate func(v []int64)) {
		v := perm()
		mutate(v)
		cases = append(cases, countCase{name: name, values: v})
	}
	c := int64(1 + rng.Intn(k)) // the count the corruption lands on
	single("below 1 (zero)", func(v []int64) { v[at(v, c)] = 0 })
	single("below 1 (negative)", func(v []int64) { v[at(v, c)] = -int64(rng.Intn(100)) - 1 })
	single("below 1 (MinInt64)", func(v []int64) { v[at(v, c)] = math.MinInt64 })
	single("two below 1", func(v []int64) { v[at(v, c)] = -3; v[rng.Intn(k)] = -9 })
	single("above total", func(v []int64) { v[at(v, c)] = int64(k) + 1 })
	single("top count past the total", func(v []int64) { v[at(v, int64(k))] = int64(k) + 3 })
	single("far above total", func(v []int64) { v[at(v, c)] = int64(k) + 1 + rng.Int63n(1<<40) })
	single("MaxInt64", func(v []int64) { v[at(v, c)] = math.MaxInt64 })
	single("MaxInt64 after a duplicate", func(v []int64) { v[0] = v[k-1]; v[k-1] = math.MaxInt64 })
	if k >= 2 {
		lo := int64(1 + rng.Intn(k-1)) // lo and lo+1 both in 1..k
		single("duplicate", func(v []int64) { v[at(v, lo+1)] = lo })
		single("gap", func(v []int64) { v[at(v, lo)] = lo + 1 })
		single("gap closed past the total", func(v []int64) { v[at(v, int64(k))] = int64(k) + 7; v[at(v, lo)] = int64(k) + 9 })
		single("duplicate and out of range", func(v []int64) { v[at(v, lo+1)] = lo; v[at(v, 1)] = int64(k) + 2 })
	}

	blocked := func(name string, mutate func(v []int64, b []CountRange) ([]int64, []CountRange)) {
		v, b := tiling()
		if len(b) == 0 {
			b = append(b, CountRange{First: int64(k) + 1, N: 1})
		}
		v, b = mutate(v, b)
		cases = append(cases, countCase{name, v, b})
	}
	blocked("block overlap", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		b[rng.Intn(len(b))].N++
		return v, b
	})
	blocked("block over a single", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return append(v, b[rng.Intn(len(b))].First), b
	})
	blocked("block gap", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		b[rng.Intn(len(b))].First++
		return v, b
	})
	blocked("block dropped", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return v, b[1:]
	})
	blocked("N=0", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		b[rng.Intn(len(b))].N = 0
		return v, b
	})
	blocked("N<0", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		b[rng.Intn(len(b))].N = -int64(rng.Intn(9)) - 1
		return v, b
	})
	blocked("block end overflows", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return v, append(b, CountRange{First: math.MaxInt64 - 1, N: 5})
	})
	blocked("block total overflows", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return v, append(b, CountRange{First: 1, N: math.MaxInt64})
	})
	blocked("MaxInt64 beside blocks", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return append(v, math.MaxInt64), b
	})
	blocked("block below 1", func(v []int64, b []CountRange) ([]int64, []CountRange) {
		return v, append(b, CountRange{First: -2, N: 2})
	})
	return cases
}

type orderCase struct {
	name       string
	ids, preds []int64
}

// orderLayout returns k (id, pred) pairs forming one chain, in storage
// order, plus pos[i]: where the chain's i-th operation sits.
type orderLayout func(k int, rng *rand.Rand) (ids, preds []int64, pos []int)

// shuffledLayout stores a chain over distinct ids from draw in shuffled
// order: no structure for ValidateOrder to lean on, so it takes the hash
// form. ids come from draw, so a case can be rebuilt in the fuzz corpus's
// small id domain.
func shuffledLayout(draw func() int64) orderLayout {
	return func(k int, rng *rand.Rand) (ids, preds []int64, pos []int) {
		seen := make(map[int64]bool, k)
		order := make([]int64, 0, k)
		for len(order) < k {
			if id := draw(); !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
		ids, preds, pos = make([]int64, k), make([]int64, k), rng.Perm(k)
		for i, p := range pos {
			ids[p], preds[p] = order[i], Head
			if i > 0 {
				preds[p] = order[i-1]
			}
		}
		return ids, preds, pos
	}
}

// runLayout stores a chain as the runner's lanes leave it: the ids are at
// most max(k/16, 1) runs of consecutive integers over disjoint ranges of
// [0, span), each run stored whole and in id order, the runs in shuffled
// order; the chain interleaves the runs at random, each run queued in id
// order. Valid evidence in this layout takes ValidateOrder's run form.
func runLayout(span int64) orderLayout {
	return func(k int, rng *rand.Rand) (ids, preds []int64, pos []int) {
		ids, preds, pos = make([]int64, k), make([]int64, k), make([]int, k)
		if k == 0 {
			return ids, preds, pos
		}
		nr := 1 + rng.Intn(min(4, max(k/16, 1)))
		// Run r (in id order) has n[r] ids from first[r] and is stored
		// from at[r]; the gaps between the runs' ranges are random.
		n, first, at := make([]int, nr), make([]int64, nr), make([]int, nr)
		cuts := append(rng.Perm(k - 1)[:nr-1], k-1)
		slices.Sort(cuts)
		gaps := make([]int64, nr)
		for r := range gaps {
			gaps[r] = rng.Int63n(span - int64(k) + 1)
		}
		slices.Sort(gaps)
		for r, prev := 0, -1; r < nr; r++ {
			n[r], prev = cuts[r]-prev, cuts[r]
			first[r] = gaps[r] + int64(cuts[r]+1-n[r])
		}
		next := 0
		for _, r := range rng.Perm(nr) {
			at[r], next = next, next+n[r]
		}
		var turns []int // the run each chain position queues from
		for r := range n {
			for j := 0; j < n[r]; j++ {
				turns = append(turns, r)
			}
		}
		rng.Shuffle(k, func(i, j int) { turns[i], turns[j] = turns[j], turns[i] })
		done := make([]int, nr)
		prev := Head
		for i, r := range turns {
			p := at[r] + done[r]
			ids[p], preds[p] = first[r]+int64(done[r]), prev
			pos[i], prev = p, ids[p]
			done[r]++
		}
		return ids, preds, pos
	}
}

// orderCases builds, for one size, a valid chain in layout and one input
// per corruption class.
func orderCases(k int, rng *rand.Rand, layout orderLayout) []orderCase {
	chain := func() (ids, preds []int64, pos []int) { return layout(k, rng) }
	var cases []orderCase
	add := func(name string, mutate func(ids, preds []int64, pos []int) ([]int64, []int64)) {
		ids, preds, pos := chain()
		ids, preds = mutate(ids, preds, pos)
		cases = append(cases, orderCase{name, ids, preds})
	}
	keep := func(ids, preds []int64, _ []int) ([]int64, []int64) { return ids, preds }
	// stray is a predecessor no operation carries.
	const stray = int64(1)<<62 + 12345

	add("chain", keep)
	if k == 0 {
		return cases
	}
	add("length mismatch", func(ids, preds []int64, _ []int) ([]int64, []int64) { return ids, preds[:k-1] })
	add("no head", func(ids, preds []int64, pos []int) ([]int64, []int64) { preds[pos[0]] = stray; return ids, preds })
	add("self-loop", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		p := pos[rng.Intn(k)]
		preds[p] = ids[p]
		return ids, preds
	})
	add("self-loop at the tail", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		preds[pos[k-1]] = ids[pos[k-1]]
		return ids, preds
	})
	add("stray pred", func(ids, preds []int64, pos []int) ([]int64, []int64) { preds[rng.Intn(k)] = stray; return ids, preds })
	add("negative stray pred", func(ids, preds []int64, pos []int) ([]int64, []int64) { preds[rng.Intn(k)] = -7; return ids, preds })
	add("id is Head", func(ids, preds []int64, pos []int) ([]int64, []int64) { ids[rng.Intn(k)] = Head; return ids, preds })
	add("negative id", func(ids, preds []int64, pos []int) ([]int64, []int64) { ids[rng.Intn(k)] = -5; return ids, preds })
	if k < 2 {
		return cases
	}
	two := func() (int, int) { // two distinct positions
		i := rng.Intn(k)
		j := rng.Intn(k - 1)
		if j >= i {
			j++
		}
		return i, j
	}
	add("two heads", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		preds[pos[1+rng.Intn(k-1)]] = Head
		return ids, preds
	})
	add("duplicate id", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		i, j := two()
		ids[i] = ids[j]
		return ids, preds
	})
	add("repeated pred", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		i, j := two()
		preds[i] = preds[j]
		return ids, preds
	})
	add("repeated stray pred", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		i, j := two()
		preds[i], preds[j] = stray, stray
		return ids, preds
	})
	add("two stray preds", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		i, j := two()
		preds[i], preds[j] = stray, stray+1
		return ids, preds
	})
	add("duplicate id and repeated pred", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		i, j := two()
		ids[i] = ids[j]
		i, j = two()
		preds[i] = preds[j]
		return ids, preds
	})
	add("chain + disjoint cycle", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		// Close the chain's tail into a cycle of 1..3 operations.
		n := min(1+rng.Intn(3), k-1)
		preds[pos[k-n]] = ids[pos[k-1]]
		return ids, preds
	})
	add("everything a cycle", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		preds[pos[0]] = ids[pos[k-1]]
		return ids, preds
	})
	add("overlapping runs", func(ids, preds []int64, pos []int) ([]int64, []int64) {
		// Renumber the last stored stretch of consecutive ids, in the
		// predecessors too, to start inside the first stretch's range:
		// in the run layout two runs now overlap, elsewhere one id
		// repeats.
		s := k - 1
		for s > 0 && ids[s] == ids[s-1]+1 {
			s--
		}
		f := 1
		for f < s && ids[f] == ids[f-1]+1 {
			f++
		}
		if s == 0 {
			s = k - 1 // one stretch: overlap its tail with its head
		}
		shift := ids[0] + rng.Int63n(int64(f)) - ids[s]
		renamed := make(map[int64]int64, k-s)
		for i := s; i < k; i++ {
			renamed[ids[i]] = ids[i] + shift
			ids[i] += shift
		}
		for i, p := range preds {
			if q, ok := renamed[p]; ok {
				preds[i] = q
			}
		}
		return ids, preds
	})
	return cases
}

// TestValidatorsMatchReference is the differential test: on valid inputs
// and on every single corruption class, at sizes around the word boundary
// and beyond the cache, the linear-time validators give the reference
// implementations' verdict with the reference's error text — on flat
// evidence and on the same evidence split into segments.
func TestValidatorsMatchReference(t *testing.T) {
	for _, k := range diffSizes {
		rounds := 8
		if k > 1000 {
			rounds = 2
		}
		for round := 0; round < rounds; round++ {
			rng := rand.New(rand.NewSource(int64(k)*1000 + int64(round)))
			for _, c := range countCases(k, rng) {
				diffCounts(t, fmt.Sprintf("counts k=%d round %d: %s", k, round, c.name), c.values, c.blocks)
			}
			// Ids from anywhere in the non-negative range: no structure
			// for the table to lean on.
			for _, c := range orderCases(k, rng, shuffledLayout(rng.Int63)) {
				diffOrder(t, fmt.Sprintf("order k=%d round %d: %s", k, round, c.name), c.ids, c.preds)
			}
			// The same classes over lane-shaped runs, whose valid chains
			// take the run form and whose corruptions may or may not.
			for _, c := range orderCases(k, rng, runLayout(1<<62)) {
				if _, ok := newRunIndex([]laneData{{ids: c.ids}}, len(c.ids)); !ok && c.name == "chain" {
					t.Errorf("order k=%d round %d: valid runs not indexed by their runs", k, round)
				}
				diffOrder(t, fmt.Sprintf("runs k=%d round %d: %s", k, round, c.name), c.ids, c.preds)
			}
		}
	}
}

// The fuzz targets speak a one-byte-per-value encoding so that mutation
// lands on collisions — equal ids, repeated predecessors, overlapping
// counts — instead of scattering values over 2⁶⁴: bytes below 0xF0 are the
// value itself, the rest name the boundary values.
var fuzzSpecials = [16]int64{
	1 << 40, 1<<62 + 12345, 1<<62 + 12346, math.MaxInt64 - 1,
	math.MaxInt64, math.MinInt64, -7, -5, -3, -2,
	240, 241, 255, 256, 1 << 32, Head,
}

func fuzzDecode(data []byte) []int64 {
	out := make([]int64, len(data))
	for i, b := range data {
		if out[i] = int64(b); b >= 0xF0 {
			out[i] = fuzzSpecials[b-0xF0]
		}
	}
	return out
}

// fuzzEncode is fuzzDecode's inverse where one exists.
func fuzzEncode(vals []int64) ([]byte, bool) {
	out := make([]byte, len(vals))
next:
	for i, v := range vals {
		if v >= 0 && v < 0xF0 {
			out[i] = byte(v)
			continue
		}
		for j, s := range fuzzSpecials {
			if s == v {
				out[i] = byte(0xF0 + j)
				continue next
			}
		}
		return nil, false
	}
	return out, true
}

func FuzzValidateOrder(f *testing.F) {
	// Shuffled seeds, then run-shaped ones, so that mutation also starts
	// from the run form and from inputs one edit away from leaving it.
	for _, runs := range []bool{false, true} {
		for _, k := range diffSizes {
			if k >= 0xF0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(k)))
			layout := shuffledLayout(func() int64 { return rng.Int63n(0xF0) })
			if runs {
				layout = runLayout(0xF0)
			}
			for _, c := range orderCases(k, rng, layout) {
				ids, ok1 := fuzzEncode(c.ids)
				preds, ok2 := fuzzEncode(c.preds)
				if ok1 && ok2 {
					f.Add(ids, preds)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, ids, preds []byte) {
		diffOrder(t, "fuzz", fuzzDecode(ids), fuzzDecode(preds))
	})
}

func FuzzValidateCountRanges(f *testing.F) {
	for _, k := range diffSizes {
		if k >= 0xF0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for _, c := range countCases(k, rng) {
			flat := make([]int64, 0, 2*len(c.blocks))
			for _, b := range c.blocks {
				flat = append(flat, b.First, b.N)
			}
			values, ok1 := fuzzEncode(c.values)
			blocks, ok2 := fuzzEncode(flat)
			if ok1 && ok2 {
				f.Add(values, blocks)
			}
		}
	}
	f.Fuzz(func(t *testing.T, values, blocks []byte) {
		flat := fuzzDecode(blocks)
		grants := make([]CountRange, len(flat)/2)
		for i := range grants {
			grants[i] = CountRange{First: flat[2*i], N: flat[2*i+1]}
		}
		diffCounts(t, "fuzz", fuzzDecode(values), grants)
	})
}

// probes counts the slots ValidateOrder's hash form inspects for one input:
// an insert or a successful find of a key walks from its home slot to the
// slot it rests in, so the count is read off the built table — nothing is
// added to the probe loops themselves. It builds the hash form itself,
// whatever form ValidateOrder would pick for the ids.
func probes(t *testing.T, ids, preds []int64) int {
	t.Helper()
	byID := newIDIndex(ids)
	for i := range ids {
		if byID.insert(i) >= 0 {
			t.Fatalf("id %d duplicated", ids[i])
		}
	}
	walk := make([]int32, len(ids)) // slots inspected to reach ids[i]
	mask := len(byID.slots) - 1
	for s, v := range byID.slots {
		if v != 0 {
			walk[v-1] = int32((s-byID.home(ids[v-1]))&mask) + 1
		}
	}
	n := 0
	for i := range ids {
		n += int(walk[i]) // the insert
		if preds[i] != Head {
			j := byID.find(preds[i])
			if j < 0 {
				t.Fatalf("predecessor %d names no operation", preds[i])
			}
			n += int(walk[j]) // the find
		}
	}
	return n
}

// TestValidateOrderProbeCount holds the hash form of the id table to at
// most two probes per table operation — k inserts and k finds, so 4k in
// all — on the id shapes it will meet: a hash that degenerates into long
// probe runs on one of them fails here, in counts, not in a benchmark's
// timings. Stored in issue order, the runner packing and the dense ids are
// runs, which ValidateOrder indexes by the run; shuffled or reaped out of
// order they reach the hash, so it is measured on all four shapes.
func TestValidateOrderProbeCount(t *testing.T) {
	const k = 1 << 20
	shapes := []struct {
		name string
		id   func(i int) int64
	}{
		// 2 phases × 2 lanes, each lane numbering its enqueues from 0.
		{"runner packing", func(i int) int64 { return int64(i>>19)<<55 | int64(i>>18&1)<<40 | int64(i&(1<<18-1)) }},
		{"dense sequential", func(i int) int64 { return int64(i) }},
		{"strided", func(i int) int64 { return int64(i) << 22 }},
		{"bit-reversed", func(i int) int64 { return int64(bits.Reverse64(uint64(i)) >> 1) }},
	}
	for _, shape := range shapes {
		ids, preds := make([]int64, k), make([]int64, k)
		// Queued in a shuffled order, stored in issue order.
		rng := rand.New(rand.NewSource(1))
		prev := Head
		for _, i := range rng.Perm(k) {
			ids[i] = shape.id(i)
			preds[i] = prev
			prev = ids[i]
		}
		if err := ValidateOrder(ids, preds); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		n := probes(t, ids, preds)
		t.Logf("%s: %.2f probes per entry", shape.name, float64(n)/k)
		if n > 4*k {
			t.Errorf("%s: %d probes for %d entries, want ≤ %d", shape.name, n, k, 4*k)
		}
	}
}
