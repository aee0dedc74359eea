package core

import (
	"fmt"
	"math/rand"

	"repro/internal/arrow"
	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/nntsp"
	"repro/internal/tree"
)

// RunE3 reproduces Theorem 4.1 empirically: with expanded time steps
// (capacity = max tree degree), the arrow protocol's total queuing delay is
// at most twice the cost of the nearest-neighbour TSP visiting the request
// set on the spanning tree, starting at the initial tail.
func init() {
	Register(&Spec{ID: "E3", Title: "Arrow total delay ≤ 2 × nearest-neighbour TSP", Ref: "Theorem 4.1", Run: RunE3})
	Register(&Spec{ID: "E4", Title: "Nearest-neighbour TSP on the list costs ≤ 3n", Ref: "Lemma 4.3 / Fig. 2", Run: RunE4})
	Register(&Spec{ID: "E5", Title: "Nearest-neighbour TSP on perfect trees costs O(n)", Ref: "Theorem 4.7 / Lemma 4.9 / Fig. 3", Run: RunE5})
}

func RunE3(cfg Config) (*Table, error) {
	trials := 40
	if cfg.Quick {
		trials = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E3",
		Title:   "arrow total delay vs 2 × NN-TSP",
		Ref:     "Theorem 4.1",
		Columns: []string{"tree", "trials", "densities", "max arrow/2·NNTSP", "violations"},
	}
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"list(128)", graph.Path(128)},
		{"perfect binary d=6", graph.PerfectMAryTree(2, 7)},
		{"perfect ternary d=4", graph.PerfectMAryTree(3, 5)},
	}
	densities := []float64{0.1, 0.3, 0.7, 1.0}
	for _, sh := range shapes {
		// Each graph is its own spanning tree.
		tr, err := tree.BFSTree(sh.g, 0)
		if err != nil {
			return nil, err
		}
		n := sh.g.N()
		worst := 0.0
		violations := 0
		for trial := 0; trial < trials; trial++ {
			density := densities[trial%len(densities)]
			req := randomRequests(n, density, rng)
			reqs := requestList(req)
			if len(reqs) == 0 {
				continue
			}
			tail := rng.Intn(n)
			res, err := arrow.RunOneShot(sh.g, tr, tail, req, tr.MaxDegree())
			if err != nil {
				return nil, err
			}
			tour, err := nntsp.Greedy(tr, reqs, tail)
			if err != nil {
				return nil, err
			}
			if tour.Cost == 0 {
				continue
			}
			ratio := float64(res.TotalDelay) / float64(2*tour.Cost)
			if ratio > worst {
				worst = ratio
			}
			if res.TotalDelay > 2*tour.Cost {
				violations++
			}
		}
		if violations > 0 {
			return nil, fmt.Errorf("E3: %d violations of Theorem 4.1 on %s", violations, sh.name)
		}
		t.AddRow(sh.name, fmt.Sprint(trials), "0.1–1.0", fmt.Sprintf("%.3f", worst), "0")
	}
	t.AddNote("ratio ≤ 1 everywhere confirms the Theorem 4.1 envelope on every tree family tested")
	return t, nil
}

// RunE4 reproduces Lemma 4.3 (and the Fig. 2 run decomposition): the
// nearest-neighbour tour on a list of n vertices costs at most 3n, for
// random and adversarial request sets, and the runs obey the Fibonacci-type
// growth x_i ≥ x_{i-1} + x_{i-2} of Lemma 4.4.
func RunE4(cfg Config) (*Table, error) {
	sizes := []int{64, 256, 1024, 4096}
	trials := 50
	if cfg.Quick {
		sizes = []int{64, 256}
		trials = 15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E4",
		Title:   "NN-TSP on the list: cost vs 3n, run structure",
		Ref:     "Lemma 4.3, Lemma 4.4, Fig. 2",
		Columns: []string{"n", "trials", "max cost", "3n", "max cost/n", "run-ineq violations"},
	}
	for _, n := range sizes {
		tr, err := tree.BFSTree(graph.Path(n), 0)
		if err != nil {
			return nil, err
		}
		maxCost := 0
		violations := 0
		for trial := 0; trial < trials; trial++ {
			var reqs []int
			switch trial % 3 {
			case 0: // random density
				for v := 0; v < n; v++ {
					if rng.Float64() < 0.4 {
						reqs = append(reqs, v)
					}
				}
			case 1: // endpoints-heavy (adversarial for naive tours)
				for v := 0; v < n/8; v++ {
					reqs = append(reqs, v, n-1-v)
				}
			case 2: // sparse far-apart
				for v := 0; v < n; v += 1 + rng.Intn(7) {
					reqs = append(reqs, v)
				}
			}
			if len(reqs) == 0 {
				continue
			}
			start := rng.Intn(n)
			tour, err := nntsp.Greedy(tr, reqs, start)
			if err != nil {
				return nil, err
			}
			if tour.Cost > maxCost {
				maxCost = tour.Cost
			}
			rd := nntsp.DecomposeListTour(tour.Order, start)
			if err := rd.CheckLemma44(); err != nil {
				violations++
			}
			if tour.Cost > bounds.QueuingUpperBoundList(n) {
				return nil, fmt.Errorf("E4: tour cost %d exceeds 3n=%d at n=%d", tour.Cost, 3*n, n)
			}
		}
		if violations > 0 {
			return nil, fmt.Errorf("E4: %d run-inequality violations at n=%d", violations, n)
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(trials), fmt.Sprint(maxCost),
			fmt.Sprint(3*n), fmt.Sprintf("%.2f", float64(maxCost)/float64(n)), "0")
	}
	t.AddNote("max cost/n stays below 3 and the Lemma 4.4 run inequality holds in every trial")
	return t, nil
}

// RunE5 reproduces Theorem 4.7 (and Lemma 4.9 / Fig. 3): nearest-neighbour
// tours from the root of a perfect binary (and m-ary) tree cost O(n), with
// the per-depth budgets cost(ℓ) ≤ 4n·2^ℓ/2^d + 2d respected at every depth.
func RunE5(cfg Config) (*Table, error) {
	binaryLevels := []int{4, 6, 8, 10}
	trials := 30
	if cfg.Quick {
		binaryLevels = []int{4, 6}
		trials = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E5",
		Title:   "NN-TSP on perfect trees: cost vs O(n) budget",
		Ref:     "Theorem 4.7, Lemma 4.9, Fig. 3",
		Columns: []string{"tree", "n", "max cost", "proof budget", "max cost/n", "depth-budget violations"},
	}
	for _, levels := range binaryLevels {
		tr := tree.Perfect(2, levels)
		n, d := tr.N(), tr.Height()
		maxCost := 0
		violations := 0
		for trial := 0; trial < trials; trial++ {
			var reqs []int
			density := 0.2 + 0.8*rng.Float64()
			for v := 0; v < n; v++ {
				if rng.Float64() < density {
					reqs = append(reqs, v)
				}
			}
			tour, err := nntsp.Greedy(tr, reqs, tr.Root())
			if err != nil {
				return nil, err
			}
			if tour.Cost > maxCost {
				maxCost = tour.Cost
			}
			if err := nntsp.CheckLemma49(tr, tour); err != nil {
				violations++
			}
		}
		budget := bounds.QueuingUpperBoundPerfectBinary(n, d)
		if maxCost > budget {
			return nil, fmt.Errorf("E5: binary levels=%d cost %d exceeds budget %d", levels, maxCost, budget)
		}
		if violations > 0 {
			return nil, fmt.Errorf("E5: %d depth-budget violations at levels=%d", violations, levels)
		}
		t.AddRow(fmt.Sprintf("binary d=%d", d), fmt.Sprint(n), fmt.Sprint(maxCost),
			fmt.Sprint(budget), fmt.Sprintf("%.2f", float64(maxCost)/float64(n)), "0")
	}
	// The m-ary extension (paper: "can easily be extended to any perfect
	// m-ary tree").
	for _, m := range []int{3, 4} {
		levels := 5
		if m == 4 {
			levels = 4
		}
		if cfg.Quick {
			levels--
		}
		tr := tree.Perfect(m, levels)
		n := tr.N()
		maxCost := 0
		for trial := 0; trial < trials; trial++ {
			var reqs []int
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.5 {
					reqs = append(reqs, v)
				}
			}
			tour, err := nntsp.Greedy(tr, reqs, tr.Root())
			if err != nil {
				return nil, err
			}
			if tour.Cost > maxCost {
				maxCost = tour.Cost
			}
		}
		// Generic linear budget with a conservative constant.
		if maxCost > 12*n {
			return nil, fmt.Errorf("E5: %d-ary cost %d not linear (n=%d)", m, maxCost, n)
		}
		t.AddRow(fmt.Sprintf("%d-ary d=%d", m, tr.Height()), fmt.Sprint(n),
			fmt.Sprint(maxCost), fmt.Sprint(12*n), fmt.Sprintf("%.2f", float64(maxCost)/float64(n)), "-")
	}
	t.AddNote("cost/n bounded by a constant on all perfect trees (Theorem 4.7 and its m-ary extension, Theorem 4.12's ingredient)")
	return t, nil
}
