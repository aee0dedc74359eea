package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/raymond"
	"repro/internal/sim"
	"repro/internal/tree"
)

// TraceDemo runs a small arrow execution and a Raymond mutual-exclusion
// execution on the same tree and renders both as text timelines — the
// library entry point behind `countq trace`.
func TraceDemo(n, k, width int, seed int64) (string, error) {
	levels := 1
	for size := 1; size < n; size = size*2 + 1 {
		levels++
	}
	g := graph.PerfectMAryTree(2, levels)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	if k > g.N() {
		k = g.N()
	}
	nodes := rng.Perm(g.N())[:k]

	var b strings.Builder

	// Arrow: all requests at time zero; span = issue..predecessor found.
	req := make([]bool, g.N())
	for _, v := range nodes {
		req[v] = true
	}
	ap, err := arrow.New(tr, 0, req)
	if err != nil {
		return "", err
	}
	if _, err := sim.Run(sim.Config{Graph: g}, ap); err != nil {
		return "", err
	}
	atl := &Timeline{Title: fmt.Sprintf("arrow one-shot on %s: queue message lifetimes", g.Name())}
	for _, v := range nodes {
		atl.Add(fmt.Sprintf("op@%d", v), 0, ap.Delay(v))
	}
	b.WriteString(atl.Render(width))
	order, err := ap.Order()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "queue order: %v\n\n", order)

	// Raymond: same requests as lock acquisitions; marks at acquire.
	var reqs []raymond.Request
	for _, v := range nodes {
		reqs = append(reqs, raymond.Request{Node: v, Time: 0})
	}
	rp, _, err := raymond.Run(g, tr, 0, 2, reqs)
	if err != nil {
		return "", err
	}
	rtl := &Timeline{Title: "raymond token algorithm: request → critical section"}
	for op, r := range reqs {
		rtl.Add(fmt.Sprintf("op@%d", r.Node), r.Time, rp.Released(op),
			Mark{Round: rp.Acquired(op), Rune: '█'})
	}
	b.WriteString(rtl.Render(width))
	b.WriteString("█ marks the critical-section entry; sections never overlap\n")
	return b.String(), nil
}
