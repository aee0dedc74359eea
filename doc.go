// Package repro is a Go reproduction of Costas Busch and Srikanta
// Tirthapura, "Concurrent counting is harder than queuing" (IEEE IPDPS
// 2006; Theoretical Computer Science 411, 2010).
//
// The repository contains a synchronous message-passing network simulator
// implementing the paper's machine model, the arrow distributed queuing
// protocol, a portfolio of distributed counting protocols (central,
// aggregating tree, bitonic counting network), the nearest-neighbour TSP
// machinery behind the queuing upper bound, exact evaluators for the
// paper's lower bounds, and an experiment harness (E1–E16) that reproduces
// every theorem and figure as a measurable table. See DESIGN.md for the
// system inventory; `go run ./cmd/countq run all` regenerates the
// paper-versus-measured tables.
//
// # Quickstart: sessions, structures, and the registry
//
// The public package repro/countq exposes every counting and queuing
// backend behind one registry of Structures. A Structure is a session
// factory; a Session is one worker's conversation with it, and
// Session.Inc(ctx) / Session.Enqueue(ctx, id) are the canonical
// operations — context-aware and fallible, so backends whose coordination
// round is not a synchronous shared-memory call (the message-passing sim
// bridge) are first-class citizens:
//
//	import (
//		"repro/countq"
//
//		_ "repro/internal/shm" // register the shared-memory zoo
//		_ "repro/internal/sim" // register the sim bridge (sim-counter, sim-queue)
//	)
//
//	st, _ := countq.NewStructure("sim-counter?hoplat=1us", countq.KindCounter)
//	sess, _ := st.NewSession()
//	defer sess.Close()
//	count, err := sess.Inc(ctx)
//
// Structures declare their kinds (counter, queue), construction params,
// and session capabilities in the registry: CapBatch sessions implement
// BatchSession (IncN block grants — a range of counts for one
// coordination round), CapAsync sessions implement AsyncSession
// (Submit/Completions — keep K operations in flight per worker, the
// pipeline that overlaps coordination rounds). Capabilities are demanded,
// not hinted: a workload that asks for Batch or Inflight against a
// structure without the capability is rejected before any goroutine runs.
//
// Every implementation registers the same way — one RegisterStructure
// call whose Kinds, Caps, Params and Linearizable are literals — and
// serves sessions itself: the shared-memory structures' sessions call
// the structure's own Inc / IncN / Enqueue directly (sharded's session
// is its per-worker lease; Close surrenders the remainder, and
// DrainCounts(structure) reclaims it for validation). NewCounter and
// NewQueue are a direct-call view over that one path: they build the
// structure through NewStructure and return it as a Counter / Queuer,
// callable from any goroutine with no session — kept for code that
// prices a structure alone (bench/ladder.go's shm rungs). Structures
// with no synchronous call form (the sim bridges, the native-async
// combiners) have no such view and say so.
//
// The scenario engine runs the paper's counting-versus-queuing contrast
// over any registered pair — as one steady phase or as a registered
// scenario (steady, ramp, spike, mixshift, batched) whose phases reshape
// mix, contention, arrival, batching and pipelining while the structures
// persist. Scenario specs compose with ';' ("ramp?gmax=8;spike"), with
// reserved per-segment weight and warmup parameters. Every run is
// validated once across all phases (counts distinct and gap-free, block
// grants included, predecessors one total order) and reports structured
// Metrics: per-phase latency quantiles (p50/p90/p99/p999/max) per op kind,
// coordinated-omission-corrected quantiles under open-loop arrivals
// (uniform, bursty) and async pipelining, a windowed throughput timeline,
// and per-worker fairness (the fairshare arrival pattern makes that number
// scheduler-independent on single-core hosts):
//
//	m, err := countq.Run(countq.Workload{
//		Counter:    "sim-counter?hoplat=1us",
//		Scenario:   "ramp?gmax=8",
//		Goroutines: 8,
//		Ops:        1 << 20,
//		Inflight:   16, // 16 ops outstanding per worker (CapAsync)
//	})
//
// The campaign layer runs several structure specs under one scenario's
// byte-identical phase sequence and a shared seed, returning per-structure
// Metrics plus delta ratios against a declared baseline, exportable as CSV
// or Markdown. Entries may declare per-entry Goroutines/Batch/Inflight
// overrides for asymmetric comparisons (batched vs unbatched, pipelined vs
// synchronous) at equal budgets:
//
//	cmp, err := countq.Campaign{
//		Base: countq.Workload{Scenario: "ramp?gmax=8", Ops: 1 << 20},
//		Entries: []countq.Entry{
//			{Counter: "sharded?shards=8"},
//			{Counter: "sim-counter?hoplat=1us"},
//			{Counter: "sim-counter?hoplat=1us", Inflight: 16},
//		},
//	}.Run()
//
// The same engine is exposed on the command line, including the campaign
// comparison (comma-separated specs and '@' per-entry overrides), the
// parameter sweep and the scenario catalogue:
//
//	go run ./cmd/countq list -v                               # structures, kinds, caps, tunables
//	go run ./cmd/countq scenarios -v                          # scenario catalogue + declared params
//	go run ./cmd/countq drive -counter sim-counter -inflight 16 -scenario 'ramp?gmax=8' -json
//	go run ./cmd/countq compare "sharded?shards=8,sim-counter?hoplat=1us" -scenario "ramp?gmax=8"
//	go run ./cmd/countq compare -sweep shards=2,8,32 sharded
//
// The repository's benchmark is `go run ./bench` (seven end-to-end
// workloads, BENCHMARK.json); the Go benchmarks in bench_test.go iterate
// the registry and sweep the declared tunables, so every registered
// implementation is measured for free. What the registry costs per
// operation is a test: TestRegistryCost (countq/conformance_test.go)
// holds every entry and canonical variant to its exact allocations per
// operation on each declared path and to bounded growth of its time per
// operation between 2¹² and 2¹⁶ operations.
//
//	go test -bench=. -benchmem
//	go test -run TestRegistryCost -v ./countq
//
// The measured invariants are also proved statically: cmd/countqlint runs
// the repo's own analyzers (internal/lint) over the tree — functions
// marked //countq:hotpath must be allocation-free with a declared clock
// budget. Three interprocedural analyzers over a
// CHA call graph add the concurrency-protocol contracts: ringrole checks
// //countq:role=producer|consumer annotations against the ring methods
// each function can reach (one goroutine per SPSC side, lossless parks),
// grantlife proves every BridgeProtocol.Issue settles its grant token
// exactly once on every path, and simdet proves everything reachable
// from the simulator's round loop deterministic — no clocks, unseeded
// rand, map iteration, or goroutine/channel operations, so golden traces
// stay byte-identical by construction. CI runs
// `go run ./cmd/countqlint ./...` on every push (`-only a,b` selects
// analyzers); see DESIGN.md ("Static invariants") for the contract.
//
// The cmd/countq, cmd/nntsp and cmd/bounds executables expose the same
// functionality on the command line, and examples/ holds runnable
// walkthroughs (quickstart, ordered multicast, distributed locking, a
// ticket office, and a topology atlas).
package repro
