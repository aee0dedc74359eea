package core

import (
	"fmt"
	"math/rand"

	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/tree"
)

// RunE15 approximates the max-over-request-sets in the paper's complexity
// definitions (Equations 1 and 3): C(alg, G) is the worst case over R ⊆ V,
// which no single workload exhibits. A seeded hill-climbing search flips
// membership bits to drive the total delay up, for both the arrow protocol
// and the tree counter, and reports how much worse the found sets are than
// the all-nodes workload the other experiments use.
func init() {
	Register(&Spec{ID: "E15", Title: "Adversarial request sets via hill climbing", Ref: "extension: the max over R in Eq. (1)/(3)", Run: RunE15})
}

func RunE15(cfg Config) (*Table, error) {
	iters := 400
	if cfg.Quick {
		iters = 80
	}
	t := &Table{
		ID:      "E15",
		Title:   "adversarial request sets: hill-climbed C(alg,G) vs all-request",
		Ref:     "extension: the max over R in Eq. (1)/(3)",
		Columns: []string{"graph", "alg", "all-request", "worst found", "|R| found", "worst/all"},
	}
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"path(32)", graph.Path(32)},
		{"mesh(6x6)", graph.Mesh(6, 6)},
	}
	worstRatio := 1.0
	for _, sh := range shapes {
		n := sh.g.N()
		arrowTree, _, err := tree.ForQueuing(sh.g)
		if err != nil {
			return nil, err
		}
		bfs, err := tree.BFSTree(sh.g, 0)
		if err != nil {
			return nil, err
		}

		// Start the queue tail in the middle of the spanning tree: with
		// the tail at a path endpoint every request set costs at most
		// n−1 (tours from an endpoint are monotone), so the adversarial
		// structure of Lemma 4.3 — zig-zag sets with Fibonacci-growing
		// legs — only exists for interior tails.
		tail := arrowTree.BFSOrder()[arrowTree.N()/2]
		evalArrow := func(req []bool) (int, error) {
			return runArrow(sh.g, arrowTree, tail, req, 1)
		}
		evalCount := func(req []bool) (int, error) {
			tc, err := counting.NewTreeCount(bfs, req)
			if err != nil {
				return 0, err
			}
			res, err := counting.Run(sh.g, tc, 1)
			if err != nil {
				return 0, err
			}
			return res.TotalDelay, nil
		}
		for _, alg := range []struct {
			name string
			eval func([]bool) (int, error)
		}{{"arrow", evalArrow}, {"treecount", evalCount}} {
			all, err := alg.eval(allRequests(n))
			if err != nil {
				return nil, err
			}
			req, worst, err := hillClimbRequests(n, iters, cfg.Seed, alg.eval)
			if err != nil {
				return nil, err
			}
			if worst < all {
				// The climber always evaluates the all-request start,
				// so it can never do worse.
				return nil, fmt.Errorf("E15: search result %d below all-request %d", worst, all)
			}
			size := 0
			for _, b := range req {
				if b {
					size++
				}
			}
			ratio := float64(worst) / float64(all)
			if ratio > worstRatio {
				worstRatio = ratio
			}
			t.AddRow(sh.name, alg.name, fmt.Sprint(all), fmt.Sprint(worst),
				fmt.Sprint(size), fmt.Sprintf("%.2f", ratio))
		}
	}
	t.AddNote("worst found/all-request reaches %.2f: sparse zig-zag sets around an interior tail force long nearest-neighbour legs (the structure behind Lemma 4.3's 3n bound), so all-request under-reports C_Q(alg,G)", worstRatio)
	return t, nil
}

// hillClimbRequests maximizes eval over request vectors by randomized
// single-bit hill climbing with restarts, starting from the all-request
// vector. Deterministic for a given seed.
func hillClimbRequests(n, iters int, seed int64, eval func([]bool) (int, error)) ([]bool, int, error) {
	rng := rand.New(rand.NewSource(seed))
	best := allRequests(n)
	bestScore, err := eval(best)
	if err != nil {
		return nil, 0, err
	}
	cur := append([]bool(nil), best...)
	curScore := bestScore
	sinceImprove := 0
	for i := 0; i < iters; i++ {
		cand := append([]bool(nil), cur...)
		// Flip one to three random bits.
		for f := 0; f <= rng.Intn(3); f++ {
			b := rng.Intn(n)
			cand[b] = !cand[b]
		}
		score, err := eval(cand)
		if err != nil {
			return nil, 0, err
		}
		if score >= curScore {
			cur, curScore = cand, score
			if score > bestScore {
				best = append([]bool(nil), cand...)
				bestScore = score
				sinceImprove = 0
				continue
			}
		}
		sinceImprove++
		if sinceImprove > iters/4 {
			// Restart from a random half-density vector.
			cur = make([]bool, n)
			for v := range cur {
				cur[v] = rng.Intn(2) == 0
			}
			if curScore, err = eval(cur); err != nil {
				return nil, 0, err
			}
			sinceImprove = 0
		}
	}
	return best, bestScore, nil
}
