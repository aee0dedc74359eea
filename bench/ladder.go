package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/countq"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nntsp"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The micro-ladder prices each layer's public calls in isolation, from the
// outside, so that a change to one layer has a number of its own and the
// end-to-end metric it should move is known beforehand (README.md, "Which
// layer moves which metric"). Its readings do not depend on the workload a
// traced run was asked for; the span metrics (layerMetrics) do.

type ladderConfig struct {
	budget time.Duration
	seed   int64
	quick  bool
	spin   float64 // the host block's calibration score
}

// ladder accumulates the rungs' readings; the first error stops the climb.
type ladder struct {
	cfg   ladderConfig
	slice time.Duration // time one timed rung may take
	m     map[string]metricValue
	// rounds is the rounds/op each live rung saw, for the residuals.
	rounds map[string]float64
	err    error
}

func (l *ladder) set(name string, v float64) {
	l.m[name] = metricValue{Value: v, Unit: layerUnit(name)}
}

func (l *ladder) get(name string) float64 { return l.m[name].Value }

func (l *ladder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// timeOp reports the median nanoseconds per iteration of fn(n) over up to
// five batches. The batch grows until one fills a tenth of the rung's
// slice; a call that is already longer than that is timed twice.
func (l *ladder) timeOp(fn func(n int)) float64 {
	if l.err != nil {
		return 0
	}
	started := time.Now()
	var per []float64
	for n := 1; len(per) < 5; {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		switch {
		case d >= l.slice/10 || n >= 1<<28:
			per = append(per, float64(d)/float64(n))
			if len(per) >= 2 && time.Since(started) >= l.slice {
				return median(per)
			}
		case d < l.slice/1000:
			n *= 10
		default:
			n = int(float64(n)*float64(l.slice/10)/float64(d)) + 1
		}
	}
	return median(per)
}

func runLadder(cfg ladderConfig) (map[string]metricValue, error) {
	l := &ladder{cfg: cfg, slice: cfg.budget / 100, m: make(map[string]metricValue), rounds: make(map[string]float64)}
	if l.slice < 200*time.Microsecond {
		l.slice = 200 * time.Microsecond
	}
	l.set("host.spin_score", cfg.spin)
	for _, rung := range []func(){l.ringRungs, l.engineRungs, l.bridgeRungs, l.liveRungs, l.oneshotRungs, l.shmRungs, l.countqRungs, l.harnessRungs, l.crossChecks} {
		rung()
		if l.err != nil {
			return nil, l.err
		}
	}
	return l.m, nil
}

// --- internal/ring -----------------------------------------------------------
//
// countqlint's ringrole analyzer rejects a function that reaches both sides
// of a ring, so every touch of a primitive goes through a helper that
// declares its side; the loops that alternate sides call the helpers.

//countq:role=producer
func ringPush(r *ring.SPSC[int64], v int64) bool { return r.Push(v) }

//countq:role=consumer
func ringPop(r *ring.SPSC[int64]) (int64, bool) { return r.Pop() }

//countq:role=consumer
func ringDrain(r *ring.SPSC[int64], buf []int64) []int64 { return r.DrainTo(buf) }

// ringFill pushes n entries, yielding while the ring is full.
//
//countq:role=producer
func ringFill(r *ring.SPSC[int64], n int) {
	for i := 0; i < n; {
		if r.Push(int64(i)) {
			i++
		} else {
			runtime.Gosched()
		}
	}
}

// ringTake pops n entries, yielding while the ring is empty.
//
//countq:role=consumer
func ringTake(r *ring.SPSC[int64], n int) {
	for i := 0; i < n; {
		if _, ok := r.Pop(); ok {
			i++
		} else {
			runtime.Gosched()
		}
	}
}

// sweepLanes is one consumer sweep over every registered lane.
//
//countq:role=consumer
func sweepLanes(l *ring.Lanes[int64], buf []int64) []int64 {
	for _, lane := range l.Snapshot() {
		buf = lane.DrainTo(buf[:0])
	}
	return buf
}

// handoff is one direction of the park/wake ping-pong: the waiter parks on
// ev until turn reaches the value it waits for.
type handoff struct {
	ev   ring.Event
	turn atomic.Int64
}

// await follows the park discipline: announce, re-check, then block.
//
//countq:role=consumer
func (h *handoff) await(want int64) {
	for h.turn.Load() < want {
		h.ev.Prepare()
		if h.turn.Load() >= want {
			h.ev.Unpark()
			return
		}
		<-h.ev.WakeChan()
	}
}

//countq:role=producer
func (h *handoff) pass(turn int64) {
	h.turn.Store(turn)
	h.ev.Wake()
}

func (l *ladder) ringRungs() {
	r := ring.New[int64](1024)
	l.set("ring.pushpop_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			ringPush(r, int64(i))
			ringPop(r)
		}
	}))
	l.set("ring.xfer_ns", l.timeOp(func(n int) {
		done := make(chan struct{})
		go func() {
			ringFill(r, n)
			close(done)
		}()
		ringTake(r, n)
		<-done
	}))
	buf := make([]int64, 0, 8)
	l.set("ring.drain8_ns_per_item", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			for j := int64(0); j < 8; j++ {
				ringPush(r, j)
			}
			buf = ringDrain(r, buf[:0])
		}
	})/8)

	// Two goroutines hand a turn back and forth, each parking until the
	// other wakes it: one iteration is two Event hand-offs.
	var ping, pong handoff
	ping.ev.Init()
	pong.ev.Init()
	turn := int64(0)
	l.set("ring.park_wake_ns", l.timeOp(func(n int) {
		first, last := turn+1, turn+int64(n)
		turn = last
		done := make(chan struct{})
		go func() {
			for t := first; t <= last; t++ {
				ping.await(t)
				pong.pass(t)
			}
			close(done)
		}()
		for t := first; t <= last; t++ {
			ping.pass(t)
			pong.await(t)
		}
		<-done
	})/2)

	lanes := ring.NewLanes[int64]()
	for i := 0; i < 64; i++ {
		lanes.NewLane(16)
	}
	l.set("ring.lanes_snapshot64_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			buf = sweepLanes(lanes, buf)
		}
	}))
}

// --- internal/sim: the round engine -------------------------------------------

// echoProto keeps a star busy with no protocol logic on top: the hub echoes
// every message and the leaf sends it back. Dense, every leaf plays (2(n-1)
// messages per round at capacity n-1); sparse, only leaf 1 does — the one
// message per round of a synchronous round trip.
type echoProto struct{ sparse bool }

func (p echoProto) Start(env *sim.Env, node int) {
	if node == 1 || (node != 0 && !p.sparse) {
		env.Send(node, 0, sim.Message{Kind: 1})
	}
}

func (p echoProto) Deliver(env *sim.Env, node int, m sim.Message) {
	env.Send(node, m.From, sim.Message{Kind: 1})
}

// walkProto walks eight tokens up and down a path, turning at the ends:
// the message load of the eight list64 requesters, on a protocol that does
// nothing else. A is the token's direction.
type walkProto struct{}

func (walkProto) Start(env *sim.Env, node int) {
	if node%7 == 0 && node >= 7 && node <= 56 {
		env.Send(node, node+1, sim.Message{Kind: 1, A: 1})
	}
}

func (walkProto) Deliver(env *sim.Env, node int, m sim.Message) {
	dir := m.A
	if next := node + dir; next < 0 || next >= env.N() {
		dir = -dir
	}
	env.Send(node, node+dir, sim.Message{Kind: 1, A: dir})
}

// walkTickProto is walkProto on the engine's per-node Tick path.
type walkTickProto struct{ walkProto }

func (walkTickProto) Tick(*sim.Env, int) {}

// stepRung times Network.Step on a begun network.
func (l *ladder) stepRung(cfg sim.Config, p sim.Protocol) float64 {
	nw := sim.New(cfg, p)
	l.fail(nw.Begin())
	return l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := nw.Step(); err != nil {
				l.fail(err)
				return
			}
		}
	})
}

func (l *ladder) engineRungs() {
	star9, star33, list64 := graph.Star(9), graph.Star(33), graph.Path(64)
	l.set("sim.step_star9_dense_ns", l.stepRung(sim.Config{Graph: star9, Capacity: 8}, echoProto{}))
	l.set("sim.step_star9_sparse_ns", l.stepRung(sim.Config{Graph: star9}, echoProto{sparse: true}))
	l.set("sim.step_star33_ns_per_msg", l.stepRung(sim.Config{Graph: star33, Capacity: 32}, echoProto{})/64)
	l.set("sim.step_list64_sparse_ns", l.stepRung(sim.Config{Graph: list64}, walkProto{}))
	l.set("sim.step_list64_tick_ns", l.stepRung(sim.Config{Graph: list64}, walkTickProto{}))
	l.set("sim.step_jitter3_ns", l.stepRung(sim.Config{Graph: star9, Capacity: 8, Delay: sim.JitterDelay{Seed: 1, Max: 3}}, echoProto{}))
	l.set("sim.new_begin_list64_us", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			l.fail(sim.New(sim.Config{Graph: list64}, walkProto{}).Begin())
		}
	})/1e3)
}

// --- internal/sim: the bridge ---------------------------------------------------

// grantAtIssueProto grants every operation the moment Issue runs and routes
// no message, so a round trip through it is the bridge transport alone:
// lane push, pump sweep, grant ring or completion buffer, spin-then-park.
type grantAtIssueProto struct {
	grants sim.Grants
	next   int64
}

func (p *grantAtIssueProto) Start(*sim.Env, int) {}

func (p *grantAtIssueProto) Issue(env *sim.Env, node int, token int, op countq.Op) {
	p.next++
	p.grants.Grant(token, p.next)
}

func (p *grantAtIssueProto) Deliver(*sim.Env, int, sim.Message) {}

func grantAtIssue(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	return &grantAtIssueProto{grants: grants}, nil
}

// transportRung times load's closed loop over a bridge whose protocol
// grants at Issue: the same sessions, lanes and reap order as the workload,
// with no simulated message travelling.
func (l *ladder) transportRung(load simLoad, topo string, nodes int) float64 {
	br, err := sim.NewBridge(sim.BridgeConfig{Topo: topo, Nodes: nodes, Pipeline: 16, Proto: grantAtIssue})
	if err != nil {
		l.fail(err)
		return 0
	}
	defer br.Close()
	d, err := load.openDriver(br, l.cfg.seed, &evidence{}, nil)
	if err != nil {
		l.fail(err)
		return 0
	}
	defer d.close()
	return l.timeOp(func(n int) {
		d.ev.reset()
		d.loop(context.Background(), int64(n), time.Time{})
		l.failOps(d.failed)
	})
}

func (l *ladder) failOps(failed int64) {
	if failed > 0 {
		l.fail(fmt.Errorf("%d operations failed in a ladder rung", failed))
	}
}

func (l *ladder) bridgeRungs() {
	l.set("bridge.transport_sync_ns", l.transportRung(star9SyncCounter, "star", 9))
	l.set("bridge.transport_inflight8_ns", l.transportRung(list64PipeCounter, "list", 64))
	l.set("bridge.open_close_us", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			st, err := countq.NewStructure(list64PipeCounter.spec, countq.KindCounter)
			if err != nil {
				l.fail(err)
				return
			}
			d, err := list64PipeCounter.openDriver(st, l.cfg.seed, &evidence{}, nil)
			if err != nil {
				l.fail(err)
				return
			}
			d.close()
			st.(*sim.Bridge).Close()
		}
	})/1e3)
}

// liveRungs runs one short repeat of each sim workload, so that the
// residuals and the paper's separation below come from the ladder alone,
// whichever workload the traced run was asked for.
func (l *ladder) liveRungs() {
	window := l.cfg.budget / 20
	for _, r := range []struct {
		name string
		load simLoad
	}{
		{"star9_sync", star9SyncCounter},
		{"list64_counter", list64PipeCounter},
		{"list64_queue", list64PipeQueue},
		{"list64_tree", list64PipeTree},
	} {
		reps, err := r.load.run(runConfig{seed: l.cfg.seed, repeats: 1, window: window, quick: l.cfg.quick})
		if err != nil {
			l.fail(err)
			return
		}
		rep := reps[0]
		if rep.failed > 0 || len(rep.notes) > 0 || rep.ops == 0 {
			l.fail(fmt.Errorf("live rung %s: %d failed of %d, %v", r.name, rep.failed, rep.attempted, rep.notes))
			return
		}
		l.set("live."+r.name+"_ns", float64(rep.wall)/float64(rep.ops))
		l.rounds[r.name] = rep.rounds
	}
}

// --- the protocols, one shot ------------------------------------------------------

func (l *ladder) oneshotRungs() {
	legs, err := buildLegs(l.cfg.seed)
	if err != nil {
		l.fail(err)
		return
	}
	stats := make(map[string]legStats, len(legs))
	runs := make(map[string]func() (legStats, error), len(legs))
	for _, lg := range legs {
		s, err := lg.run()
		if err != nil {
			l.fail(err)
			return
		}
		stats[lg.name], runs[lg.name] = s, lg.run
	}
	for _, r := range []struct{ metric, leg string }{
		{"arrow.oneshot_ns_per_msg", "arrow-list256"},
		{"counting.treecount_ns_per_msg", "treecount-mesh16x16"},
		{"counting.central_ns_per_msg", "central-mesh16x16"},
		{"counting.countnet_ns_per_msg", "countnet8-complete64"},
	} {
		run := runs[r.leg]
		l.set(r.metric, l.timeOp(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := run(); err != nil {
					l.fail(err)
					return
				}
			}
		})/float64(stats[r.leg].Messages))
	}
	// The paper's separation in its own unit, exact: the cheaper counting
	// protocol's total delay over arrow's, where the paper predicts a gap
	// (the list) and where it predicts none (the star).
	for _, topo := range []string{"list256", "star64"} {
		counting := stats["treecount-"+topo].TotalDelay
		if c := stats["central-"+topo].TotalDelay; c < counting {
			counting = c
		}
		l.set("paper.sep_delay_"+topo, float64(counting)/float64(stats["arrow-"+topo].TotalDelay))
	}
}

// --- internal/shm, called directly -------------------------------------------------

// inPair runs op n times split over two goroutines, the partnered case of
// the rendezvous structures.
func inPair(n int, op func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				op()
			}
		}()
	}
	wg.Wait()
}

// inflightLoop keeps depth operations outstanding on one async session
// until n have completed.
func inflightLoop(ctx context.Context, as countq.AsyncSession, n, depth int, op func(i int) countq.Op) error {
	outstanding := 0
	reap := func() error {
		c := <-as.Completions()
		outstanding--
		return c.Err
	}
	for i := 0; i < n; i++ {
		for outstanding >= depth {
			if err := reap(); err != nil {
				return err
			}
		}
		if err := as.Submit(ctx, op(i)); err != nil {
			return err
		}
		outstanding++
	}
	for outstanding > 0 {
		if err := reap(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) shmRungs() {
	counter := func(spec string) countq.Counter {
		c, err := countq.NewCounter(spec)
		l.fail(err)
		return c
	}
	solo := func(c countq.Counter) float64 {
		return l.timeOp(func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		})
	}
	pair := func(c countq.Counter) float64 {
		return l.timeOp(func(n int) { inPair(n+1, func() { c.Inc() }) })
	}
	if l.err != nil {
		return
	}
	l.set("shm.atomic_inc_ns", solo(counter("atomic")))
	l.set("shm.sharded_inc_ns", solo(counter("sharded")))
	l.set("shm.funnel_solo_ns", solo(counter("funnel")))
	l.set("shm.funnel_pair_ns", pair(counter("funnel")))
	l.set("shm.diffracting_solo_ns", solo(counter("diffracting")))
	l.set("shm.diffracting_pair_ns", pair(counter("diffracting")))
	l.set("shm.combining_pair_ns", pair(counter("combining")))

	q, err := countq.NewQueue("swap")
	if err != nil {
		l.fail(err)
		return
	}
	id := int64(0)
	l.set("shm.swap_enq_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(id)
			id++
		}
	}))

	for _, r := range []struct {
		metric, spec string
		kind         countq.Kind
	}{
		{"shm.async_funnel_inflight8_ns", "async-funnel", countq.KindCounter},
		{"shm.elim_inflight8_ns", "elim", countq.KindQueue},
	} {
		sess, err := openSession(r.spec, r.kind)
		if err != nil {
			l.fail(err)
			return
		}
		next := int64(0)
		mk := func(int) countq.Op { return countq.Op{Kind: countq.OpInc, N: 1} }
		if r.kind == countq.KindQueue {
			mk = func(int) countq.Op {
				next++
				return countq.Op{Kind: countq.OpEnqueue, ID: next}
			}
		}
		l.set(r.metric, l.timeOp(func(n int) {
			l.fail(inflightLoop(context.Background(), sess.(countq.AsyncSession), n, 8, mk))
		}))
		sess.Close()
	}
}

func openSession(spec string, kind countq.Kind) (countq.Session, error) {
	st, err := countq.NewStructure(spec, kind)
	if err != nil {
		return nil, err
	}
	return st.NewSession()
}

// --- countq: sessions, runner, validation, campaign --------------------------------

func (l *ladder) countqRungs() {
	sess, err := openSession("atomic", countq.KindCounter)
	if err != nil {
		l.fail(err)
		return
	}
	ctx := context.Background()
	l.set("countq.session_inc_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sess.Inc(ctx); err != nil {
				l.fail(err)
				return
			}
		}
	}))
	sess.Close()
	l.set("countq.session_overhead_ns", l.get("countq.session_inc_ns")-l.get("shm.atomic_inc_ns"))

	scale := func(ops int) int {
		if l.cfg.quick {
			return ops/100 + 64
		}
		return ops
	}
	run := func(w countq.Workload) (*countq.Metrics, time.Duration) {
		w.Seed = l.cfg.seed
		start := time.Now()
		m, err := countq.Run(w)
		if err != nil {
			l.fail(err)
			return &countq.Metrics{}, 0
		}
		return m, time.Since(start)
	}
	m, _ := run(countq.Workload{Counter: "atomic", Goroutines: 1, Ops: scale(1_000_000)})
	l.set("countq.runner_overhead_ns", m.NsPerOp()-l.get("countq.session_inc_ns"))
	w := shmRunner.w
	w.Ops = scale(1_000_000)
	m, wall := run(w)
	if m.Aggregate.Ops > 0 {
		l.set("countq.run_fixed_ns_per_op", float64(wall-m.Aggregate.Elapsed)/float64(m.Aggregate.Ops))
	}
	m, _ = run(countq.Workload{Counter: star9SyncCounter.spec, Goroutines: 1, Ops: scale(100_000)})
	l.set("countq.runner_over_bridge_ns", m.NsPerOp()-l.get("live.star9_sync_ns"))
	if l.err != nil {
		return
	}

	// Validation over synthetic evidence in shuffled order, as concurrent
	// workers leave it: a permutation of 1..k, and one chain of k ids.
	k := scale(1 << 18)
	rng := rand.New(rand.NewSource(l.cfg.seed))
	counts, ids, preds := make([]int64, k), make([]int64, k), make([]int64, k)
	for i, p := range rng.Perm(k) {
		counts[i] = int64(p) + 1
		ids[i] = int64(p)
		preds[i] = int64(p) - 1 // id 0 queues behind countq.Head, which is -1
	}
	l.set("countq.validate_counts_ns_per_op", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			l.fail(countq.ValidateCounts(counts))
		}
	})/float64(k))
	l.set("countq.validate_order_ns_per_op", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			l.fail(countq.ValidateOrder(ids, preds))
		}
	})/float64(k))

	var h countq.Histogram
	l.set("countq.hist_record_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Record(int64(i&1023) + 100)
		}
	}))

	start := time.Now()
	_, err = countq.Campaign{
		Base:    countq.Workload{Goroutines: 2, Ops: scale(30_000), Seed: l.cfg.seed},
		Entries: []countq.Entry{{Counter: "atomic"}, {Counter: "sharded"}, {Counter: "mutex"}},
	}.Run()
	l.fail(err)
	l.set("countq.campaign3_s", time.Since(start).Seconds())

	base := countq.Workload{Counter: "atomic", Goroutines: 2, Ops: 1 << 16}
	l.set("countq.expand_ns", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := countq.ExpandScenario("ramp?gmax=2;spike", base); err != nil {
				l.fail(err)
				return
			}
		}
	}))
}

// --- the offline harness --------------------------------------------------------------

func (l *ladder) harnessRungs() {
	start := time.Now()
	for _, spec := range core.Experiments() {
		if spec.ID == "E11" { // the shared-memory sweep; shm-* and the shm rungs cover it
			continue
		}
		if _, err := spec.Run(core.Config{Quick: true, Seed: l.cfg.seed}); err != nil {
			l.fail(fmt.Errorf("%s: %w", spec.ID, err))
			return
		}
	}
	l.set("core.quick_all_s", time.Since(start).Seconds())

	mesh := graph.Mesh(16, 16)
	l.set("graph.build_mesh256_us", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			mesh = graph.Mesh(16, 16)
		}
	})/1e3)
	l.set("tree.bfs_mesh256_us", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tree.BFSTree(mesh, 0); err != nil {
				l.fail(err)
				return
			}
		}
	})/1e3)

	order := make([]int, 1024)
	var reqs []int
	for i := range order {
		order[i] = i
		if i%2 == 0 {
			reqs = append(reqs, i)
		}
	}
	list, err := tree.PathTree(order)
	if err != nil {
		l.fail(err)
		return
	}
	l.set("nntsp.greedy_list1024_us", l.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := nntsp.Greedy(list, reqs, 0); err != nil {
				l.fail(err)
				return
			}
		}
	})/1e3)
}

// --- cross-checks ------------------------------------------------------------------------

// crossChecks derives what the rungs imply together. A live residual is the
// part of a workload's ns/op that neither the transport nor the engine's
// rounds account for — the protocol's own state machine, if every layer is
// measured. The star9 residual as a share of the whole is the sum-check:
// beyond ±0.25 a layer is unmeasured.
func (l *ladder) crossChecks() {
	residual := func(live, step string) float64 {
		return l.get("live."+live+"_ns") - l.get("bridge.transport_inflight8_ns") - l.rounds[live]*l.get(step)
	}
	l.set("sim.central_live_self_ns", residual("list64_counter", "sim.step_list64_sparse_ns"))
	l.set("arrow.live_self_ns", residual("list64_queue", "sim.step_list64_sparse_ns"))
	l.set("counting.tree_live_self_ns", residual("list64_tree", "sim.step_list64_tick_ns"))
	l.set("paper.sep_rounds_list64", l.rounds["list64_counter"]/l.rounds["list64_queue"])
	l.set("paper.sep_ns_list64", l.get("live.list64_counter_ns")/l.get("live.list64_queue_ns"))
	star := l.get("live.star9_sync_ns")
	l.set("ladder.star9_sync_residual_frac",
		(star-l.get("bridge.transport_sync_ns")-l.rounds["star9_sync"]*l.get("sim.step_star9_sparse_ns"))/star)
}
