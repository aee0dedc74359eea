// Spec sweep: the parameterized-spec API end to end. Constructs counters
// from DSN-style specs, sweeps the sharded counter's lease batch size with
// Spec.With, and shows the two escape hatches a session offers — a private
// per-worker lease and BatchSession block grants — moving the coordination
// cost the paper's lower bound prices per operation.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/countq"

	_ "repro/internal/shm" // register the shared-memory implementations
)

func main() {
	// Every registered structure documents its own tunables.
	fmt.Println("declared tunables:")
	for _, info := range countq.Structures() {
		for _, p := range info.Params {
			fmt.Printf("  %-12s %-8s default %-12s %s\n", info.Name, p.Name, p.Default, p.Doc)
		}
	}

	// Sweep the sharded counter's lease batch: one global fetch-and-add
	// per `batch` counts, so bigger batches amortize the hot word further.
	base, err := countq.ParseSpec("sharded?shards=4")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsharded lease-batch sweep (8 goroutines, 200k ops):")
	for _, batch := range []string{"1", "16", "256"} {
		spec := base.With("batch", batch)
		res, err := countq.Run(countq.Workload{
			Counter:    spec.String(),
			Goroutines: 8,
			Ops:        200_000,
			Seed:       1,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Metrics carry the tail, not just the mean: a batch size that
		// wins on ns/op can still lose on p99 when the lease refill stalls.
		fmt.Printf("  %-28s %8.1f ns/op   p50 %6.0f   p99 %6.0f\n",
			spec, res.NsPerOp(), res.Aggregate.CounterLat.P50Ns, res.Aggregate.CounterLat.P99Ns)
	}

	// Sessions, used directly: a sharded session owns a private lease (the
	// uncontended fast path) until Close surrenders the remainder, and its
	// IncN grants a whole block of counts for one coordination round.
	ctx := context.Background()
	st, err := countq.NewStructure("sharded?shards=2&batch=64", countq.KindCounter)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := st.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	a, _ := sess.Inc(ctx)
	b, _ := sess.Inc(ctx)
	first, err := sess.(countq.BatchSession).IncN(ctx, 100)
	if err != nil {
		log.Fatal(err)
	}
	sess.Close()
	fmt.Printf("\nsession counts: %d, %d; IncN(100) granted block [%d,%d]; %d leased counts drained\n",
		a, b, first, first+99, len(countq.DrainCounts(st)))

	// The queue side of the paper's contrast needs no tunables at all:
	// learning your predecessor is one atomic swap.
	qs, err := countq.NewStructure("swap", countq.KindQueue)
	if err != nil {
		log.Fatal(err)
	}
	q, err := qs.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()
	p1, _ := q.Enqueue(ctx, 1)
	p2, _ := q.Enqueue(ctx, 2)
	fmt.Printf("swap queue predecessors: %d, %d (Head = %d)\n", p1, p2, countq.Head)
}
