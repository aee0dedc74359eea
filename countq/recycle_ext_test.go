package countq_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/countq"
)

// runnerShape is shm-runner's workload at a quarter of its ops.
var runnerShape = countq.Workload{Counter: "atomic", Queue: "swap", Mix: 0.5, Scenario: "ramp?gmax=2", Goroutines: 2, Ops: 1 << 20}

// TestRunRecyclesEvidence: a Run's lane logs and the order check's scratch
// come back to the next Run, across one collection as between the
// benchmark's repeats, so the second of two back-to-back Runs allocates
// under a tenth of the first's bytes outside its measured phases, on
// whichever Ps its workers run.
func TestRunRecyclesEvidence(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	outside := func(seed int64) uint64 {
		w := runnerShape
		w.Seed = seed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := countq.Run(w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var in float64
		for _, p := range m.Phases {
			in += p.AllocBytesPerOp * float64(p.Ops)
		}
		return after.TotalAlloc - before.TotalAlloc - uint64(in)
	}
	countq.DropRecycled() // the first run allocates every log afresh
	first := outside(1)
	runtime.GC()
	second := outside(2)
	t.Logf("bytes allocated outside the phases: first run %d, second %d", first, second)
	if second*10 >= first {
		t.Errorf("second run allocated %d bytes outside its phases, want under a tenth of the first run's %d", second, first)
	}
}

// TestConcurrentRunnersValidate: four Runs at once draw their logs from
// one store, and each validates its own evidence.
func TestConcurrentRunnersValidate(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := runnerShape
			w.Ops, w.Seed = 20000, int64(i)
			_, errs[i] = countq.Run(w)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}
