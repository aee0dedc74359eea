package raymond_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/raymond"
	"repro/internal/tree"
)

// ExampleRun is distributed mutual exclusion two ways on a 63-node binary
// tree. Raymond's token algorithm (the paper's reference [9]) runs end to
// end: requests travel toward the token, the token travels back, and the
// simulator verifies that no two critical sections overlap. The arrow
// protocol's one-shot queue over the same tree yields exactly the hand-off
// schedule a token would follow, because distributed queuing and
// token-based locking are the same problem; its cost is the
// coordination-only part of Raymond's latency.
func ExampleRun() {
	g := graph.PerfectMAryTree(2, 6)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	// A third of the nodes request the lock; the token starts at the root.
	rng := rand.New(rand.NewSource(3))
	var reqs []raymond.Request
	requests := make([]bool, g.N())
	for v := range requests {
		if rng.Intn(3) == 0 {
			requests[v] = true
			reqs = append(reqs, raymond.Request{Node: v, Time: 0})
		}
	}

	const csRounds = 2
	p, stats, err := raymond.Run(g, tr, 0, csRounds, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raymond: %d lock requests on %s, CS length %d rounds\n", len(reqs), g, csRounds)
	fmt.Printf("raymond: all served, mutual exclusion verified, %d messages, %d rounds\n", stats.MessagesSent, stats.Rounds)
	fmt.Println("op  node  requested  acquired  released")
	for op, r := range reqs[:4] {
		fmt.Printf("%3d %5d %10d %9d %9d\n", op, r.Node, r.Time, p.Acquired(op), p.Released(op))
	}

	res, err := arrow.RunOneShot(g, tr, 0, requests, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrow queue order (first 10 of %d): %v\n", len(res.Order), res.Order[:10])
	total := 0
	for op := range reqs {
		total += p.Latency(op)
	}
	fmt.Printf("total acquisition latency (raymond, incl. serial CS): %d rounds\n", total)
	fmt.Printf("total queue-formation delay (arrow):                  %d rounds\n", res.TotalDelay)
	// Output:
	// raymond: 23 lock requests on perfect2arytree(depth=5): n=63 m=62, CS length 2 rounds
	// raymond: all served, mutual exclusion verified, 130 messages, 113 rounds
	// op  node  requested  acquired  released
	//   0     2          0         3         5
	//   1     3          0        64        66
	//   2     5          0         6         8
	//   3     6          0        36        38
	// arrow queue order (first 10 of 23): [2 5 11 49 26 54 52 6 14 61]
	// total acquisition latency (raymond, incl. serial CS): 1272 rounds
	// total queue-formation delay (arrow):                  69 rounds
}
