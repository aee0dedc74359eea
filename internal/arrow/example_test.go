package arrow_test

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// ExampleRunOneShot runs the arrow protocol on a small list: three nodes
// issue queuing operations at time zero and each learns its predecessor.
func ExampleRunOneShot() {
	g := graph.Path(6)
	order := []int{0, 1, 2, 3, 4, 5}
	tr, err := tree.PathTree(order)
	if err != nil {
		log.Fatal(err)
	}
	requests := make([]bool, 6)
	requests[1], requests[3], requests[5] = true, true, true

	res, err := arrow.RunOneShot(g, tr, 0, requests, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("queue order:", res.Order)
	fmt.Println("total delay:", res.TotalDelay)
	// Output:
	// queue order: [1 3 5]
	// total delay: 5
}

// ExampleNewLongLived schedules requests over time; the protocol still
// produces one global order.
func ExampleNewLongLived() {
	tr, err := tree.PathTree([]int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	p, err := arrow.NewLongLived(tr, 0, []arrow.Request{
		{Node: 3, Time: 0},
		{Node: 1, Time: 20},
	})
	if err != nil {
		log.Fatal(err)
	}
	_ = p // run it with sim.New(sim.Config{Graph: g}, p).Run()
	fmt.Println("ops scheduled:", 2)
	// Output:
	// ops scheduled: 2
}

// Example_orderedMulticast is the motivating application of Section 1,
// built both ways on a 12×12 mesh. Totally ordered multicast needs every
// receiver to deliver the same messages in the same order. The counting
// solution attaches a rank from a distributed counter to each message, and
// receivers deliver in rank order. The queuing solution attaches the
// predecessor message, and receivers rebuild the unique chain from the
// head. Both deliver identically on every receiver; queuing costs less to
// coordinate.
func Example_orderedMulticast() {
	g := graph.Mesh(12, 12)
	rng := rand.New(rand.NewSource(7))
	senders := make([]bool, g.N())
	var msgs []int
	for v := range senders {
		if senders[v] = rng.Intn(3) == 0; senders[v] {
			msgs = append(msgs, v)
		}
	}

	bfs, err := tree.BFSTree(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	counter, err := counting.NewTreeCount(bfs, senders)
	if err != nil {
		log.Fatal(err)
	}
	cRes, err := counting.Run(g, counter, 1)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := tree.PathTree(graph.MeshHamiltonPath(12, 12))
	if err != nil {
		log.Fatal(err)
	}
	qRes, err := arrow.RunOneShot(g, hp, hp.Root(), senders, 1)
	if err != nil {
		log.Fatal(err)
	}
	pred := map[int]int{}
	for i, m := range qRes.Order {
		pred[m] = arrow.Head
		if i > 0 {
			pred[m] = qRes.Order[i-1]
		}
	}

	// Receivers see the messages in arbitrary arrival order and deliver by
	// the coordination metadata.
	var byRank0, chain0 []int
	for r := 0; r < 5; r++ {
		arrival := slices.Clone(msgs)
		rng.Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })
		byRank := slices.Clone(arrival)
		sort.Slice(byRank, func(i, j int) bool { return counter.Count(byRank[i]) < counter.Count(byRank[j]) })
		succ := make(map[int]int, len(arrival))
		for _, m := range arrival {
			succ[pred[m]] = m
		}
		var chain []int
		for cur, ok := succ[arrow.Head]; ok; cur, ok = succ[cur] {
			chain = append(chain, cur)
		}
		if r == 0 {
			byRank0, chain0 = byRank, chain
		} else if !slices.Equal(byRank, byRank0) || !slices.Equal(chain, chain0) || len(chain) != len(msgs) {
			log.Fatalf("receiver %d delivers differently from receiver 0", r)
		}
	}

	fmt.Printf("topology %s, %d senders, 5 receivers\n", g, len(msgs))
	fmt.Println("both schemes delivered identically on every receiver")
	fmt.Printf("coordination cost, counting flavor (tree counter): total delay %d\n", cRes.TotalDelay)
	fmt.Printf("coordination cost, queuing flavor (arrow):          total delay %d\n", qRes.TotalDelay)
	fmt.Printf("queuing-based ordered multicast is %.1f× cheaper to coordinate\n", float64(cRes.TotalDelay)/float64(qRes.TotalDelay))
	// Output:
	// topology mesh(12x12): n=144 m=264, 45 senders, 5 receivers
	// both schemes delivered identically on every receiver
	// coordination cost, counting flavor (tree counter): total delay 1505
	// coordination cost, queuing flavor (arrow):          total delay 143
	// queuing-based ordered multicast is 10.5× cheaper to coordinate
}

// Example_ticketOffice is the long-lived face of counting versus queuing:
// 200 customers arrive at random offices of an 8×8 mesh over 150 rounds.
// Numbered tickets give each arrival the next global number (a combining
// tree counter); a service chain tells each arrival only who is directly
// ahead (the long-lived arrow protocol). Both yield one consistent global
// order; the chain costs far less latency to build.
func Example_ticketOffice() {
	g := graph.Mesh(8, 8)
	tr, err := tree.BFSTree(g, 27) // head office near the center
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const customers, window = 200, 150
	qReqs := make([]arrow.Request, customers)
	cReqs := make([]counting.Request, customers)
	for i := range qReqs {
		node, when := rng.Intn(g.N()), rng.Intn(window)
		qReqs[i] = arrow.Request{Node: node, Time: when}
		cReqs[i] = counting.Request{Node: node, Time: when}
	}

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

	fmt.Printf("%-28s %14s %14s %10s\n", "design", "total latency", "mean latency", "messages")
	fmt.Printf("%-28s %14d %14.1f %10d\n", "numbered tickets (counting)",
		tickets.TotalLatency(), float64(tickets.TotalLatency())/customers, tStats.MessagesSent)
	fmt.Printf("%-28s %14d %14.1f %10d\n", "service chain (queuing)",
		chain.TotalLatency(), float64(chain.TotalLatency())/customers, qStats.MessagesSent)
	fmt.Println("customer  node  arrives  ticket#  pred")
	for i := 0; i < 3; i++ {
		pred := "HEAD"
		if p := chain.Pred(i); p != arrow.Head {
			pred = fmt.Sprintf("cust%d", p)
		}
		fmt.Printf("%8d %5d %8d %8d  %s\n", i, qReqs[i].Node, qReqs[i].Time, tickets.CountOf(i), pred)
	}
	// Output:
	// design                        total latency   mean latency   messages
	// numbered tickets (counting)            5653           28.3       1216
	// service chain (queuing)                 897            4.5        848
	// customer  node  arrives  ticket#  pred
	//        0    49      137      186  cust103
	//        1     4        0        1  HEAD
	//        2    31      145      185  cust79
}
