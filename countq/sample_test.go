package countq

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// sampleStructure is a counter and a queue in one, with every path the
// runner drives: Inc and IncN on one atomic word, Enqueue by swap, and
// Submit completing at once on the session's own channel.
type sampleStructure struct{ v, tail atomic.Int64 }

func (s *sampleStructure) NewSession() (Session, error) {
	return &sampleSession{s: s, out: make(chan Completion, 16)}, nil
}

type sampleSession struct {
	s   *sampleStructure
	out chan Completion
}

func (n *sampleSession) Inc(ctx context.Context) (int64, error) { return n.IncN(ctx, 1) }
func (n *sampleSession) IncN(ctx context.Context, k int64) (int64, error) {
	return n.s.v.Add(k) - k + 1, nil
}
func (n *sampleSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return n.s.tail.Swap(id), nil
}
func (n *sampleSession) Close() error                   { return nil }
func (n *sampleSession) Completions() <-chan Completion { return n.out }
func (n *sampleSession) Submit(ctx context.Context, op Op) error {
	c := Completion{Op: op}
	if op.Kind == OpEnqueue {
		c.Value, _ = n.Enqueue(ctx, op.ID)
	} else {
		c.Value, _ = n.IncN(ctx, max(op.N, 1))
	}
	n.out <- c
	return nil
}

// moduloSamples applies the index-mod-sample rule to one lane's evidence:
// the kind's k-th op is sampled when k%sample == 0. It returns the
// counter and queue histogram counts that rule yields (a sampled block
// records all its counts) and how many ops it samples.
func moduloSamples(ln *lane, sample int) (counter, queue, sampled int64) {
	for k := range ln.counts {
		if k%sample == 0 {
			counter++
			sampled++
		}
	}
	for k, b := range ln.blocks {
		if k%sample == 0 {
			counter += b.N
			sampled++
		}
	}
	for k := range ln.ids {
		if k%sample == 0 {
			queue++
			sampled++
		}
	}
	return counter, queue, sampled
}

// TestPhaseSamplingMatchesModuloRule runs two-worker phases on the sync,
// batch and async paths at several sampling rates and holds the per-kind
// countdowns to the modulo rule they replace: each lane's histogram
// counts, its timeline events and the folded PhaseMetrics — sample
// counts, timeline op totals, fairness — match what the rule predicts from
// the lane's own evidence. The async phase's final short grants complete
// as single counts, so it exercises all three evidence kinds at once.
func TestPhaseSamplingMatchesModuloRule(t *testing.T) {
	const ops = 5001 // not a multiple of the batch: a chunk ends short
	for _, path := range []struct {
		name string
		p    Phase
	}{
		{"sync", Phase{Mix: 0.5}},
		{"batch", Phase{Mix: 0.5, Batch: 4}},
		{"async", Phase{Mix: 0.5, Batch: 4, Inflight: 8}},
	} {
		for _, sample := range []int{1, 3, 64} {
			t.Run(fmt.Sprintf("%s/sample=%d", path.name, sample), func(t *testing.T) {
				p := path.p
				p.Name, p.Goroutines, p.Ops, p.LatencySample = "steady", 2, ops, sample
				ph := newPhaseRun(&sampleStructure{}, &sampleStructure{}, Workload{Seed: 1}, 0, p, time.Now())
				lanes := ph.run()
				var wantC, wantQ int64
				workers := make([]int64, len(lanes))
				for gi, ln := range lanes {
					if ln.err != nil {
						t.Fatal(ln.err)
					}
					c, q, sampled := moduloSamples(ln, sample)
					wantC, wantQ = wantC+c, wantQ+q
					workers[gi] = int64(len(ln.counts) + len(ln.ids))
					for _, b := range ln.blocks {
						workers[gi] += b.N
					}
					if got := [2]int64{ln.hists.c.Count(), ln.hists.q.Count()}; got != [2]int64{c, q} {
						t.Errorf("lane %d: histogram counts %v, modulo rule %v", gi, got, [2]int64{c, q})
					}
					if p.Inflight > 1 {
						if got := [2]int64{ln.hists.ccorr.Count(), ln.hists.qcorr.Count()}; got != [2]int64{c, q} {
							t.Errorf("lane %d: corrected histogram counts %v, modulo rule %v", gi, got, [2]int64{c, q})
						}
					}
					var evOps int64
					for _, ev := range ln.events {
						evOps += ev.ops
					}
					// One event per sampled op, plus the flush of any
					// unsampled tail.
					if n := int64(len(ln.events)); evOps != ln.issued || n < sampled || n > sampled+1 {
						t.Errorf("lane %d: %d events carrying %d ops; modulo rule samples %d of %d", gi, n, evOps, sampled, ln.issued)
					}
				}
				var all laneData
				pm, _, err := ph.fold(lanes, &all)
				if err != nil {
					t.Fatal(err)
				}
				if pm.Ops != ops || pm.CounterLat.Samples != wantC || pm.QueueLat.Samples != wantQ {
					t.Errorf("phase: %d ops, %d+%d samples; want %d ops, %d+%d", pm.Ops, pm.CounterLat.Samples, pm.QueueLat.Samples, ops, wantC, wantQ)
				}
				var tlOps int64
				for _, w := range pm.Timeline {
					tlOps += w.Ops
				}
				if tlOps != ops {
					t.Errorf("timeline carries %d ops, want %d", tlOps, ops)
				}
				if want := fairness(workers); pm.Fairness != want {
					t.Errorf("fairness %v, want %v from worker ops %v", pm.Fairness, want, workers)
				}
			})
		}
	}
}
