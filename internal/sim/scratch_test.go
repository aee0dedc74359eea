package sim_test

// What recycling must not change. sim.Run hands each run the buffers of the
// one before it on the same P, so these tests chain runs that differ in
// topology, capacity and delay model — and runs that stopped half way — and
// hold every one to the committed golden traces and to the Stats of a run on
// a never-used scratch.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// burst has every leaf of a star send the hub three messages at time zero,
// two more than a capacity of one lets out.
type burst struct{}

func (burst) Start(env *sim.Env, node int) {
	for k := 0; node != 0 && k < 3; k++ {
		env.Send(node, 0, sim.Message{Kind: 9})
	}
}
func (burst) Deliver(*sim.Env, int, sim.Message) {}

// abortedRuns each leave a scratch in a state a run to quiescence never does.
var abortedRuns = []struct {
	name  string
	cfg   sim.Config
	proto sim.Protocol
	want  string
}{
	// Round bound hit with the hub's inbox backed up and messages in flight
	// on a wheel that had to grow past its initial size.
	{"round-bound", sim.Config{Graph: graph.Star(9), Delay: sim.JitterDelay{Seed: 2, Max: 40}, MaxRounds: 60}, stepEcho{hub: 0}, "round bound"},
	// Strict violation in the middle of round 1's receive phase: active bits
	// set, the hub's inbox part consumed, next-round floors stamped.
	{"strict-inbox", sim.Config{Graph: graph.Star(9), Strict: true}, stepEcho{hub: 0}, "inbox backlog"},
	// Strict violation in round 0's send phase: every leaf's outbox loaded.
	{"strict-outbox", sim.Config{Graph: graph.Star(9), Strict: true}, burst{}, "outbox backlog"},
}

func abortRun(t *testing.T, i int) {
	t.Helper()
	a := abortedRuns[i]
	if _, err := sim.Run(a.cfg, a.proto); err == nil || !strings.Contains(err.Error(), a.want) {
		t.Fatalf("aborted run %s: error %v, want one naming %q", a.name, err, a.want)
	}
}

func TestDirtyScratchDeterminism(t *testing.T) {
	// One P, so that each sim.Run draws exactly what the previous one put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	specs := goldenSpecs()

	// The reference: each spec on a scratch nothing has used. Two collections
	// empty a sync.Pool.
	fresh := make([]sim.Stats, len(specs))
	for i, s := range specs {
		runtime.GC()
		runtime.GC()
		_, fresh[i] = s.trace(t)
	}

	replay := func(i int, after string) {
		t.Helper()
		s := specs[i]
		got, stats := s.trace(t)
		want, err := os.ReadFile(goldenPath(s.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s after %s: trace differs from the golden", s.name, after)
		}
		if g, w := fmt.Sprintf("%+v", stats), fmt.Sprintf("%+v", fresh[i]); g != w {
			t.Errorf("%s after %s: stats %s, on a fresh scratch %s", s.name, after, g, w)
		}
	}

	for seed := int64(1); seed <= 2; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(len(specs))
		prev := "the aborted runs"
		for i := range abortedRuns {
			abortRun(t, i)
		}
		for _, i := range order {
			replay(i, prev)
			prev = specs[i].name
		}
	}
	for a := range abortedRuns {
		for i := range specs {
			abortRun(t, a)
			replay(i, "aborted run "+abortedRuns[a].name)
		}
	}
}

// TestRunConcurrent runs a mix of one-shot simulations from eight goroutines
// at once; every result must equal the one the same leg gave alone. The
// scratch pool is the only state such runs share.
func TestRunConcurrent(t *testing.T) {
	type result struct {
		stats      sim.Stats
		total, max int
	}
	var legs []func() (result, error)
	arrowLeg := func(g *graph.Graph, cfg sim.Config) {
		tr := mustBFS(t, g)
		req := allRequests(g.N())
		legs = append(legs, func() (result, error) {
			res, err := arrow.RunOneShotConfig(g, tr, tr.Root(), req, cfg)
			if err != nil {
				return result{}, err
			}
			return result{res.Stats, res.TotalDelay, res.MaxDelay}, nil
		})
	}
	countingLeg := func(g *graph.Graph, cfg sim.Config, mk func(*tree.Tree, []bool) (counting.Protocol, error)) {
		tr := mustBFS(t, g)
		req := allRequests(g.N())
		legs = append(legs, func() (result, error) {
			p, err := mk(tr, req)
			if err != nil {
				return result{}, err
			}
			res, err := counting.RunConfig(g, p, cfg)
			if err != nil {
				return result{}, err
			}
			return result{res.Stats, res.TotalDelay, res.MaxDelay}, nil
		})
	}
	treecount := func(tr *tree.Tree, req []bool) (counting.Protocol, error) { return counting.NewTreeCount(tr, req) }
	central := func(tr *tree.Tree, req []bool) (counting.Protocol, error) { return counting.NewCentral(tr, req) }
	jitter := sim.Config{Delay: sim.JitterDelay{Seed: 1, Max: 3}}
	arrowLeg(graph.Path(256), sim.Config{})
	arrowLeg(graph.Path(256), jitter)
	arrowLeg(graph.Star(64), sim.Config{TrackPerNode: true})
	countingLeg(graph.Mesh(16, 16), sim.Config{}, treecount)
	countingLeg(graph.Mesh(5, 5), jitter, treecount)
	countingLeg(graph.Path(48), sim.Config{TrackPerNode: true}, central)
	countingLeg(graph.Star(64), jitter, central)

	want := make([]result, len(legs))
	for i, leg := range legs {
		var err error
		if want[i], err = leg(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(legs); k++ {
				i := (g + 3*k) % len(legs)
				got, err := legs[i]()
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, leg %d: %+v (%v), alone %+v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
