package shm

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/countq"
)

// shardedAll runs goroutines×opsPerG increments and returns the handed-out
// counts together with the drained remainder.
func shardedAll(t *testing.T, c *ShardedCounter, goroutines, opsPerG int) (handed, drained []int64) {
	t.Helper()
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			vals := make([]int64, opsPerG)
			for i := range vals {
				vals[i] = c.Inc()
			}
			results[gi] = vals
		}(gi)
	}
	wg.Wait()
	for _, vs := range results {
		handed = append(handed, vs...)
	}
	return handed, c.Drain()
}

// TestShardedCounterDistinctNoGaps is the sharded counter's correctness
// check under -race: counts handed out concurrently are distinct, and
// together with the drained lease remainders they cover 1..max without
// gaps.
func TestShardedCounterDistinctNoGaps(t *testing.T) {
	for _, cfg := range []struct{ shards, batch int }{
		{1, 1}, {2, 8}, {4, 64}, {8, 17},
	} {
		c, err := NewShardedCounter(cfg.shards, int64(cfg.batch))
		if err != nil {
			t.Fatal(err)
		}
		handed, drained := shardedAll(t, c, 8, 500)
		if len(handed) != 8*500 {
			t.Fatalf("shards=%d batch=%d: %d counts handed out", cfg.shards, cfg.batch, len(handed))
		}
		if err := ValidateCounts(append(append([]int64(nil), handed...), drained...)); err != nil {
			t.Errorf("shards=%d batch=%d: %v", cfg.shards, cfg.batch, err)
		}
	}
}

// TestShardedCounterReconcile checks that reconciled remainders are
// reissued — after Reconcile, new increments consume the pooled ranges
// before touching the global high-water mark, so a fully-drained counter
// still covers 1..max exactly.
func TestShardedCounterReconcile(t *testing.T) {
	// One shard keeps the lease sequence deterministic (sync.Pool
	// affinity is randomized under -race).
	c, err := NewShardedCounter(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	for i := 0; i < 10; i++ {
		all = append(all, c.Inc())
	}
	c.Reconcile() // pools the 54 unused counts of the first lease
	for i := 0; i < 100; i++ {
		all = append(all, c.Inc())
	}
	if err := ValidateCounts(append(append([]int64(nil), all...), c.Drain()...)); err != nil {
		t.Fatal(err)
	}
	// The pooled remainder must be reissued rather than leaked: 110 ops
	// consume the first lease's 64 counts plus one fresh batch, so no
	// count can exceed 128.
	max := int64(0)
	for _, v := range all {
		if v > max {
			max = v
		}
	}
	if max > 128 {
		t.Errorf("high-water mark %d suggests reconciled ranges were not reissued", max)
	}
}

// TestShardedCounterQuiescentNotLinearizable documents the sharded
// counter's consistency level: validity (distinct, gap-free after drain)
// always holds, while linearizability is not guaranteed — shards hold
// blocks from different eras, exactly like a counting network's output
// wires.
func TestShardedCounterQuiescentNotLinearizable(t *testing.T) {
	c, err := NewShardedCounter(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	spans := RecordSpans(c, 8, 500)
	vals := make([]int64, len(spans))
	for i, s := range spans {
		vals[i] = s.Value
	}
	if err := ValidateCounts(append(vals, c.Drain()...)); err != nil {
		t.Fatalf("sharded validity: %v", err)
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Logf("expected behavior (quiescent consistency only): %v", err)
	} else {
		t.Log("no linearizability violation observed in this run (the property is not guaranteed either way)")
	}
}

func TestShardedCounterRejectsBadBatch(t *testing.T) {
	if _, err := NewShardedCounter(2, -3); err == nil {
		t.Error("negative batch accepted")
	}
}

// TestShardedCounterSessions exercises the explicit per-worker lease path
// (the session) under -race: every worker Incs through its own session,
// Close surrenders the remainders, and handed ∪ drained must tile 1..max
// exactly.
func TestShardedCounterSessions(t *testing.T) {
	c, err := NewShardedCounter(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, opsPerG = 8, 501 // odd count forces partial leases
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			h, _ := c.NewSession()
			defer h.Close()
			vals := make([]int64, opsPerG)
			for i := range vals {
				vals[i], _ = h.Inc(context.Background())
			}
			results[gi] = vals
		}(gi)
	}
	wg.Wait()
	var all []int64
	for _, vs := range results {
		all = append(all, vs...)
	}
	if len(all) != goroutines*opsPerG {
		t.Fatalf("%d counts handed out", len(all))
	}
	if err := ValidateCounts(append(all, c.Drain()...)); err != nil {
		t.Errorf("handles: %v", err)
	}
}

// TestShardedCounterSessionsMixed runs session holders, plain Inc callers
// and IncN batchers concurrently: all three allocation paths share one
// high-water mark and must still jointly tile 1..max.
func TestShardedCounterSessionsMixed(t *testing.T) {
	c, err := NewShardedCounter(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		singles []int64
		blocks  []countq.CountRange
	)
	for gi := 0; gi < 9; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			var mine []int64
			var myBlocks []countq.CountRange
			switch gi % 3 {
			case 0: // session (private lease) path
				h, _ := c.NewSession()
				defer h.Close()
				for i := 0; i < 400; i++ {
					v, _ := h.Inc(context.Background())
					mine = append(mine, v)
				}
			case 1: // plain shard path
				for i := 0; i < 400; i++ {
					mine = append(mine, c.Inc())
				}
			case 2: // batch path
				for i := 0; i < 40; i++ {
					myBlocks = append(myBlocks, countq.CountRange{First: c.IncN(10), N: 10})
				}
			}
			mu.Lock()
			singles = append(singles, mine...)
			blocks = append(blocks, myBlocks...)
			mu.Unlock()
		}(gi)
	}
	wg.Wait()
	if err := countq.ValidateCountRanges(append(singles, c.Drain()...), blocks); err != nil {
		t.Errorf("mixed allocation paths: %v", err)
	}
}

func TestShardedCounterIncN(t *testing.T) {
	c, err := NewShardedCounter(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	first := c.IncN(5)
	if first != 1 {
		t.Errorf("first block starts at %d, want 1", first)
	}
	second := c.IncN(3)
	if second != 6 {
		t.Errorf("second block starts at %d, want 6", second)
	}
	defer func() {
		if recover() == nil {
			t.Error("IncN(0) did not panic")
		}
	}()
	c.IncN(0)
}

// TestShardedDefaultShards pins the constructor default: the shard array
// sizes itself from GOMAXPROCS at construction (the `shards` param still
// overrides), so the per-P affinity scheme has one shard per P to land on.
func TestShardedDefaultShards(t *testing.T) {
	c, err := NewShardedCounter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default shard count = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestShardedIncZeroAlloc is the allocation gate for direct
// ShardedCounter.Inc calls: the shard index comes out of and goes back into
// the affinity pool as the same pointer, and leases move ranges, not
// slices, so Inc allocates nothing — the 16 lease refills in the window
// included. GC is off in the window: a collection empties the pool, and
// its refill would be charged to Inc.
func TestShardedIncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops shard indices under the race detector")
	}
	c, err := NewShardedCounter(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := allocsPerOp(4096, func() { c.Inc() }); avg != 0 {
		t.Errorf("%.5f allocs per Inc in steady state, want 0", avg)
	}
}
