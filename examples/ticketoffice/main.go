// Ticket office: the long-lived face of counting versus queuing.
//
// Customers arrive at random branch offices (nodes of a mesh network) over
// time. Two designs for serving them in a consistent global order:
//
//   - numbered tickets — each arrival gets the next global ticket number
//     (distributed counting via a combining tree, like a bakery counter);
//   - a service chain — each arrival just learns who is directly ahead of
//     it (distributed queuing via the long-lived arrow protocol).
//
// Both produce a valid global service order, but the coordination latency a
// customer pays differs by an order of magnitude — the paper's thesis, in
// its long-lived form (reference [8]).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

func main() {
	g := graph.Mesh(8, 8)
	tr, err := tree.BFSTree(g, 27) // head office near the center
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	// 200 customers over 150 rounds.
	const customers, window = 200, 150
	qReqs := make([]arrow.Request, customers)
	cReqs := make([]counting.Request, customers)
	for i := 0; i < customers; i++ {
		node := rng.Intn(g.N())
		when := rng.Intn(window)
		qReqs[i] = arrow.Request{Node: node, Time: when}
		cReqs[i] = counting.Request{Node: node, Time: when}
	}

	// Numbered tickets: combining-tree counter.
	tickets, err := counting.NewCombining(tr, cReqs)
	if err != nil {
		log.Fatal(err)
	}
	tStats, err := sim.Run(sim.Config{Graph: g}, tickets)
	if err != nil {
		log.Fatal(err)
	}
	if err := tickets.Validate(); err != nil {
		log.Fatal(err)
	}

	// Service chain: long-lived arrow.
	chain, err := arrow.NewLongLived(tr, 27, qReqs)
	if err != nil {
		log.Fatal(err)
	}
	qStats, err := sim.Run(sim.Config{Graph: g}, chain)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := chain.Order(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ticket office on %s: %d customers over %d rounds\n\n", g, customers, window)
	fmt.Printf("%-28s %14s %14s %10s\n", "design", "total latency", "mean latency", "messages")
	fmt.Printf("%-28s %14d %14.1f %10d\n", "numbered tickets (counting)",
		tickets.TotalLatency(), float64(tickets.TotalLatency())/customers, tStats.MessagesSent)
	fmt.Printf("%-28s %14d %14.1f %10d\n", "service chain (queuing)",
		chain.TotalLatency(), float64(chain.TotalLatency())/customers, qStats.MessagesSent)
	fmt.Printf("\ncounting/queuing latency ratio: %.1f×\n",
		float64(tickets.TotalLatency())/float64(chain.TotalLatency()))

	// Spot-check a few customers.
	fmt.Println("\ncustomer  node  arrives  ticket#  (counting)   pred  (queuing)")
	for i := 0; i < 5; i++ {
		pred := "HEAD"
		if p := chain.Pred(i); p != arrow.Head {
			pred = fmt.Sprintf("cust%d", p)
		}
		fmt.Printf("%8d %5d %8d %8d %13s %6s\n",
			i, qReqs[i].Node, qReqs[i].Time, tickets.CountOf(i), "", pred)
	}
	fmt.Println("\nboth designs yield one consistent global order; the chain just costs less to build")
}
