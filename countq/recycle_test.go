package countq

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// repeatCounter is a faulty counter, kept out of the registry, whose
// session suite would reject it: its eighth grant repeats the seventh
// count, and every later grant lags one behind, so a run's counts repeat 7
// and miss the top one.
type repeatCounter struct{ v atomic.Int64 }

func (c *repeatCounter) Inc() int64 {
	n := c.v.Add(1)
	if n > 7 {
		n--
	}
	return n
}
func (c *repeatCounter) NewSession() (Session, error) { return sessionOver(c), nil }

// TestRecycledLogsKeepNoEvidence: the logs a clean run leaves in logStore
// carry its counts in their capacity, and none of it reaches the next run's
// validators — a faulty counter of the same shape still fails with its own
// error, and a clean run after it passes.
func TestRecycledLogsKeepNoEvidence(t *testing.T) {
	base := Workload{Queue: "queue", Mix: 0.5, Scenario: "ramp?gmax=2", Goroutines: 2, Ops: 20000, Seed: 1}.withDefaults()
	for _, tc := range []struct {
		counter Structure
		err     string
	}{
		{&testCounter{}, ""},
		{&repeatCounter{}, "count 7 duplicated"},
		{&testCounter{}, ""},
	} {
		base.Counter = fmt.Sprintf("%T", tc.counter)
		sc, err := ExpandScenario(base.Scenario, base)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runPhases(base, sc.Spec, sc.Phases, tc.counter, &testQueue{tail: Head}, StructureInfo{}, StructureInfo{})
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", base.Counter, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: got %v, want an error naming %q", base.Counter, err, tc.err)
		}
	}
}

// TestOpMixCoinSplit holds the op-mix coin to the slack room assumes:
// over 64 seeds and 64 windows each, the heads among the ops a window has
// room for stay within 4·√ops of ops·mix, inside the window's logs, and
// one seed draws the same sequence twice.
func TestOpMixCoinSplit(t *testing.T) {
	toss := func(seed int64, mix float64, each func(heads, ops int, rm logRoom)) *laneRunner {
		p := Phase{Name: "mixed", Goroutines: 2, Ops: 1 << 20, Mix: mix, LatencySample: 64}
		ph := newPhaseRun(nil, nil, Workload{Seed: seed}, 0, p, time.Now())
		r, ops := ph.newWorker(1), int(ph.winOps)
		for w := 0; w < 64; w++ {
			heads := 0
			for i := 0; i < ops; i++ {
				if r.heads() {
					heads++
				}
			}
			each(heads, ops, ph.room(ph.winOps))
		}
		return r
	}
	for _, mix := range []float64{0.5, 0.1} {
		for seed := int64(0); seed < 64; seed++ {
			toss(seed, mix, func(heads, ops int, rm logRoom) {
				if dev := math.Abs(float64(heads) - float64(ops)*mix); dev > 4*math.Sqrt(float64(ops)) {
					t.Errorf("mix %v seed %d: %d heads in %d draws, %.0f off the expected split (slack %.0f)", mix, seed, heads, ops, dev, 4*math.Sqrt(float64(ops)))
				}
				if heads > rm.counts || ops-heads > rm.ids {
					t.Errorf("mix %v seed %d: %d counter and %d queue draws overflow the window's %d and %d", mix, seed, heads, ops-heads, rm.counts, rm.ids)
				}
			})
		}
	}
	var h1, h2 []int
	r1 := toss(7, 0.5, func(heads, _ int, _ logRoom) { h1 = append(h1, heads) })
	r2 := toss(7, 0.5, func(heads, _ int, _ logRoom) { h2 = append(h2, heads) })
	if !slices.Equal(h1, h2) || r1.coin != r2.coin {
		t.Errorf("seed 7 drew %v heads (state %#x), then %v (state %#x)", h1, r1.coin, h2, r2.coin)
	}
}
