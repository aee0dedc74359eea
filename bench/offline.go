package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/nntsp"
	"repro/internal/sim"
	"repro/internal/tree"
)

// legStats is what one one-shot simulation reports in the model's units.
// They repeat exactly, so a simulator speed-up must leave them identical.
type legStats struct {
	Rounds     int `json:"rounds"`
	Messages   int `json:"messages"`
	TotalDelay int `json:"total_delay"`
	MaxDelay   int `json:"max_delay"`
}

// leg is one one-shot simulation of the offline pass.
type leg struct {
	name     string
	requests int
	seeded   bool // the request set is drawn from -seed
	run      func() (legStats, error)
	// oracle, when set, holds the leg's statistics to one of the paper's
	// theorems.
	oracle func(legStats) error
}

//go:embed testdata/oneshot.golden.json
var goldenJSON []byte

// loadGolden returns the pinned statistics per leg. The seeded legs are
// pinned at seed 1.
func loadGolden() (map[string]legStats, error) {
	golden := make(map[string]legStats)
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("bench: testdata/oneshot.golden.json: %w", err)
	}
	return golden, nil
}

func allRequest(n int) []bool {
	req := make([]bool, n)
	for i := range req {
		req[i] = true
	}
	return req
}

// halfRequest draws exactly n/2 requesters, so the seed changes which nodes
// ask and not how many operations a pass simulates.
func halfRequest(n int, seed int64) []bool {
	req := make([]bool, n)
	for _, v := range rand.New(rand.NewSource(seed)).Perm(n)[:n/2] {
		req[v] = true
	}
	return req
}

func countTrue(req []bool) int {
	n := 0
	for _, b := range req {
		if b {
			n++
		}
	}
	return n
}

func arrowLeg(name string, g *graph.Graph, tr *tree.Tree, req []bool, cfg sim.Config) leg {
	return leg{name: name, requests: countTrue(req), run: func() (legStats, error) {
		res, err := arrow.RunOneShotConfig(g, tr, tr.Root(), req, cfg)
		if err != nil {
			return legStats{}, err
		}
		return legStats{res.Stats.Rounds, res.Stats.MessagesSent, res.TotalDelay, res.MaxDelay}, nil
	}}
}

func countingLeg(name string, g *graph.Graph, req []bool, mk func() (counting.Protocol, error)) leg {
	return leg{name: name, requests: countTrue(req), run: func() (legStats, error) {
		p, err := mk()
		if err != nil {
			return legStats{}, err
		}
		res, err := counting.Run(g, p, 1)
		if err != nil {
			return legStats{}, err
		}
		return legStats{res.Stats.Rounds, res.Stats.MessagesSent, res.TotalDelay, res.MaxDelay}, nil
	}}
}

// buildLegs constructs the pass: every graph, spanning tree and request
// set, and the closures that simulate on them. Arrow runs on the Hamilton
// path where the paper does (list, mesh) and on the BFS tree elsewhere;
// the counting protocols run on the BFS tree from node 0. Everything runs
// at the base model's capacity 1 except the seeded arrow leg, which runs
// at the tree's degree so that Theorem 4.1 applies to it (see offlineSetup).
func buildLegs(seed int64) ([]leg, error) {
	type topo struct {
		name      string
		g         *graph.Graph
		arrowTree *tree.Tree
		bfs       *tree.Tree
	}
	identity := make([]int, 256)
	for i := range identity {
		identity[i] = i
	}
	var topos []topo
	for _, t := range []struct {
		name string
		g    *graph.Graph
		path []int
	}{
		{"list256", graph.Path(256), identity},
		{"mesh16x16", graph.Mesh(16, 16), graph.MeshHamiltonPath(16, 16)},
		{"binary255", graph.PerfectMAryTree(2, 8), nil},
		{"star64", graph.Star(64), nil},
	} {
		bfs, err := tree.BFSTree(t.g, 0)
		if err != nil {
			return nil, err
		}
		at := bfs
		if t.path != nil {
			if at, err = tree.PathTree(t.path); err != nil {
				return nil, err
			}
		}
		topos = append(topos, topo{t.name, t.g, at, bfs})
	}

	var legs []leg
	for _, t := range topos {
		t := t
		req := allRequest(t.g.N())
		legs = append(legs,
			arrowLeg("arrow-"+t.name, t.g, t.arrowTree, req, sim.Config{Capacity: 1}),
			countingLeg("treecount-"+t.name, t.g, req, func() (counting.Protocol, error) { return counting.NewTreeCount(t.bfs, req) }),
			countingLeg("central-"+t.name, t.g, req, func() (counting.Protocol, error) { return counting.NewCentral(t.bfs, req) }),
		)
	}

	complete := graph.Complete(64)
	parent := make([]int, 64)
	for v := 1; v < 64; v++ {
		parent[v] = (v - 1) / 2
	}
	heapTree, err := tree.FromParents(0, parent)
	if err != nil {
		return nil, err
	}
	req64 := allRequest(64)
	legs = append(legs, countingLeg("countnet8-complete64", complete, req64, func() (counting.Protocol, error) {
		return counting.NewCountNet(heapTree, req64, 8, nil)
	}))

	list := topos[0]
	legs = append(legs, arrowLeg("arrow-list256-jitter3", list.g, list.arrowTree, allRequest(256),
		sim.Config{Capacity: 1, Delay: sim.JitterDelay{Seed: 1, Max: 3}}))

	half := halfRequest(256, seed)
	seededArrow := arrowLeg("arrow-list256-half", list.g, list.arrowTree, half, sim.Config{Capacity: list.arrowTree.MaxDegree()})
	seededTree := countingLeg("treecount-list256-half", list.g, half, func() (counting.Protocol, error) { return counting.NewTreeCount(list.bfs, half) })
	seededArrow.seeded, seededTree.seeded = true, true
	// Theorem 4.1: with expanded time steps, arrow's total delay is at most
	// twice the nearest-neighbour tour over the request set from the tail.
	seededArrow.oracle = func(s legStats) error {
		var reqs []int
		for v, b := range half {
			if b {
				reqs = append(reqs, v)
			}
		}
		tour, err := nntsp.Greedy(list.arrowTree, reqs, list.arrowTree.Root())
		if err != nil {
			return err
		}
		if s.TotalDelay > 2*tour.Cost {
			return fmt.Errorf("total delay %d exceeds 2 × NN-TSP cost %d (Theorem 4.1)", s.TotalDelay, tour.Cost)
		}
		return nil
	}
	legs = append(legs, seededArrow, seededTree)
	return legs, nil
}

// offlineSetup builds the pass and establishes what each leg must report:
// every leg runs twice and must repeat itself exactly; legs whose inputs do
// not depend on the seed (and the seeded ones at seed 1) must also match
// the golden; and a leg with an oracle must satisfy it. The simulated
// requests are added to rep.attempted, those of a leg that broke one of the
// three to rep.failed, with a note.
func offlineSetup(seed int64, golden map[string]legStats, rep *repeat) (legs []leg, want []legStats, err error) {
	if legs, err = buildLegs(seed); err != nil {
		return nil, nil, err
	}
	want = make([]legStats, len(legs))
	for i, l := range legs {
		var again legStats
		if want[i], err = l.run(); err != nil {
			return nil, nil, err
		}
		if again, err = l.run(); err != nil {
			return nil, nil, err
		}
		rep.attempted += 2 * int64(l.requests)
		bad := ""
		if again != want[i] {
			bad = fmt.Sprintf("not deterministic: %+v then %+v", want[i], again)
		} else if g, ok := golden[l.name]; (!l.seeded || seed == 1) && (!ok || g != want[i]) {
			bad = fmt.Sprintf("%+v, golden %+v", want[i], g)
		} else if l.oracle != nil {
			if oerr := l.oracle(want[i]); oerr != nil {
				bad = oerr.Error()
			}
		}
		if bad != "" {
			rep.failed += 2 * int64(l.requests)
			rep.notef("%s: %s", l.name, bad)
		}
	}
	return legs, want, nil
}

// tracePassEvery is the share of offline passes a traced run records leg
// spans for.
const tracePassEvery = 8

// oneshotOffline loops a fixed pass over the one-shot simulations for each
// repeat's window. An op is one simulated request; a latency sample is the
// wall time of one pass.
func oneshotOffline(cfg runConfig) ([]repeat, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	reps := make([]repeat, 0, cfg.repeats)
	for i := 0; i < cfg.repeats; i++ {
		r, err := offlineRepeat(cfg, golden)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func offlineRepeat(cfg runConfig, golden map[string]legStats) (rep repeat, err error) {
	tr := cfg.tr
	root := tr.begin(0, "repeat", -1)
	defer tr.end(root)
	runtime.GC()
	setupStart := time.Now()
	id := tr.begin(root, "setup", -1)
	legs, want, err := offlineSetup(cfg.seed, golden, &rep)
	tr.end(id)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(setupStart)

	var ms0, ms1 runtime.MemStats
	var rounds, msgs int64
	var passUs []float64
	runtime.ReadMemStats(&ms0)
	measure := tr.begin(root, "measure", -1)
	start := time.Now()
	deadline := start.Add(cfg.window)
	for pass, t0 := int64(0), start; t0.Before(deadline); pass++ {
		var passSpan int32
		if pass%tracePassEvery == 0 {
			passSpan = tr.begin(measure, "pass", pass)
		}
		for i, l := range legs {
			var legSpan int32
			if passSpan != 0 {
				legSpan = tr.begin(passSpan, "leg", pass)
			}
			got, err := l.run()
			tr.end(legSpan)
			rep.attempted += int64(l.requests)
			if err != nil || got != want[i] {
				rep.failed += int64(l.requests)
				rep.notef("%s: pass %d: %+v (%v), want %+v", l.name, pass, got, err, want[i])
				continue
			}
			rep.ops += int64(l.requests)
			rounds += int64(got.Rounds)
			msgs += int64(got.Messages)
		}
		tr.end(passSpan)
		t1 := time.Now()
		passUs = append(passUs, float64(t1.Sub(t0))/1e3)
		t0 = t1
	}
	rep.wall = time.Since(start)
	tr.end(measure)
	runtime.ReadMemStats(&ms1)
	rep.setLatency(passUs)
	if rep.ops > 0 {
		rep.rounds = float64(rounds) / float64(rep.ops)
		rep.msgs = float64(msgs) / float64(rep.ops)
		rep.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.ops)
	}
	return rep, nil
}
