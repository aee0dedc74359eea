package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/countq"
	"repro/internal/sim"
)

// simLoad is a closed-loop workload over one of the simulator bridges. The
// bridge runs free (hoplat=0) with a 16-deep pipeline, so wall time is the
// program and not time.Sleep; two goroutines are busy, this driver and the
// bridge's pump.
type simLoad struct {
	spec string
	kind countq.Kind
	// open is how many sessions the structure is given; sessions pin
	// round-robin to the non-root nodes, so session i sits on node i+1.
	// drive indexes the sessions that issue operations: one makes a
	// synchronous Inc loop, several make the pipelined loop (one operation
	// outstanding each, reaped in drive order and resubmitted at once).
	open  int
	drive func(seed int64) []int
	warm  int // warm-up operations before the timed window
	// exactRounds, when set, is the rounds/op the topology forces; any
	// other reading is a correctness failure.
	exactRounds int64
}

// sampleEvery is the share of operations whose latency is timed: the clock
// is read twice for one operation in 16, which keeps timing under 1% of a
// 1 µs operation.
const sampleEvery = 16

const bridgeParams = "&hoplat=0&pipeline=16"

// list64Requesters are the driven sessions on the 64-node list: nodes
// 7, 14, …, 56, spread along the list so that the central counter pays the
// diameter and the arrow queue pays only the distance between neighbours.
// The set is the same for every seed — rounds/op depends on it to the
// second digit, and the contract wants seeds to be cost-neutral — and the
// seed instead rotates the order in which the eight are submitted and
// reaped, and offsets the enqueue ids.
func list64Requesters(seed int64) []int {
	const k = 8
	rot := int(uint64(seed) % k)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = 7*((i+rot)%k+1) - 1
	}
	return idx
}

func list64(spec string, kind countq.Kind, warm int) simLoad {
	return simLoad{
		spec:  spec + "?topo=list&nodes=64" + bridgeParams,
		kind:  kind,
		open:  63,
		drive: list64Requesters,
		warm:  warm,
	}
}

var (
	// A synchronous Inc loop has no input to draw: the seed changes nothing.
	star9SyncCounter = simLoad{
		spec:        "sim-counter?topo=star&nodes=9" + bridgeParams,
		kind:        countq.KindCounter,
		open:        1,
		drive:       func(int64) []int { return []int{0} },
		warm:        20000,
		exactRounds: 2,
	}
	list64PipeCounter = list64("sim-counter", countq.KindCounter, 2000)
	list64PipeQueue   = list64("sim-arrow-queue", countq.KindQueue, 20000)
	list64PipeTree    = list64("sim-tree-counter", countq.KindCounter, 500)
)

// evidence is the validation log of one repeat — every count, or every
// (id, predecessor) pair, since the structure was made. The buffers are
// allocated once per run and reused, so the timed window and the set-up
// time see no allocation from the harness.
type evidence struct {
	counts     []int64
	ids, preds []int64
}

func (e *evidence) reset() {
	e.counts, e.ids, e.preds = e.counts[:0], e.ids[:0], e.preds[:0]
}

func (l simLoad) run(cfg runConfig) ([]repeat, error) {
	// Room for 2.5 M ops/s, above anything the bridges reach; a longer
	// window only costs an append.
	room := int(cfg.window.Seconds()*2.5e6) + 4*l.warm
	ev := &evidence{}
	if l.kind == countq.KindQueue {
		ev.ids, ev.preds = make([]int64, 0, room), make([]int64, 0, room)
	} else {
		ev.counts = make([]int64, 0, room)
	}
	lat := make([]float64, 0, room/sampleEvery+1)
	reps := make([]repeat, 0, cfg.repeats)
	for i := 0; i < cfg.repeats; i++ {
		r, err := l.repeat(cfg, ev, lat)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// simDriver is the state of one closed loop over a bridge's sessions.
type simDriver struct {
	queue  bool
	open   []countq.Session      // every session, driven or idle
	async  []countq.AsyncSession // the driven ones, in reap order
	live   []bool                // per driven session: an operation is outstanding
	spanOf []int32               // per driven session: the outstanding operation's span, 0 when untraced
	ev     *evidence
	latUs  []float64
	issued int64 // operations issued so far
	base   int64 // issued when the current loop began: its first operation is sampled
	idBase int64
	failed int64
	tr     *tracer
	parent int32
}

// openDriver opens the load's sessions on st and picks the driven ones.
func (l simLoad) openDriver(st countq.Structure, seed int64, ev *evidence, tr *tracer) (*simDriver, error) {
	d := &simDriver{queue: l.kind == countq.KindQueue, ev: ev, tr: tr, idBase: (seed & 0xffff) << 32}
	all := make([]countq.Session, l.open)
	for i := range all {
		var err error
		if all[i], err = st.NewSession(); err != nil {
			return nil, err
		}
	}
	d.open = all
	for _, i := range l.drive(seed) {
		as, ok := all[i].(countq.AsyncSession)
		if !ok {
			return nil, fmt.Errorf("bench: %s sessions are not async", l.spec)
		}
		d.async = append(d.async, as)
	}
	d.live, d.spanOf = make([]bool, len(d.async)), make([]int32, len(d.async))
	return d, nil
}

func (d *simDriver) close() {
	for _, s := range d.open {
		s.Close()
	}
	d.open = nil
}

func (l simLoad) repeat(cfg runConfig, ev *evidence, lat []float64) (rep repeat, err error) {
	ctx := context.Background()
	ev.reset()
	tr := cfg.tr
	root := tr.begin(0, "repeat", -1)
	defer tr.end(root)

	// Collect before the clock starts, so every repeat's set-up and window
	// begin from the same heap state.
	runtime.GC()
	setupStart := time.Now()
	setupSpan := tr.begin(root, "setup", -1)
	id := tr.begin(setupSpan, "new_structure", -1)
	st, err := countq.NewStructure(l.spec, l.kind)
	tr.end(id)
	if err != nil {
		return rep, err
	}
	br, ok := st.(*sim.Bridge)
	if !ok {
		return rep, fmt.Errorf("bench: %s is not a sim bridge", l.spec)
	}
	defer br.Close()

	id = tr.begin(setupSpan, "new_sessions", -1)
	d, err := l.openDriver(br, cfg.seed, ev, tr)
	tr.end(id)
	if err != nil {
		return rep, err
	}
	defer d.close()
	d.latUs = lat[:0]

	warm := l.warm
	if cfg.quick {
		warm = l.warm/50 + 16
	}
	d.parent = tr.begin(setupSpan, "warmup", -1)
	d.loop(ctx, int64(warm), time.Time{})
	tr.end(d.parent)
	tr.end(setupSpan)
	rep.setup = time.Since(setupStart)
	d.latUs = d.latUs[:0]
	warmed, warmFailed := d.issued, d.failed

	var ms0, ms1 runtime.MemStats
	r0, m0 := settledStats(br)
	runtime.ReadMemStats(&ms0)
	d.parent = tr.begin(root, "measure", -1)
	start := time.Now()
	d.loop(ctx, math.MaxInt64, start.Add(cfg.window))
	rep.wall = time.Since(start)
	tr.end(d.parent)
	runtime.ReadMemStats(&ms1)
	r1, m1 := settledStats(br)

	id = tr.begin(root, "close", -1)
	d.close()
	br.Close()
	tr.end(id)

	rep.attempted = d.issued
	rep.ops = d.issued - warmed - (d.failed - warmFailed)
	rep.failed = d.failed
	rep.setLatency(d.latUs)
	if rep.ops > 0 {
		rep.rounds = float64(r1-r0) / float64(rep.ops)
		rep.msgs = float64(m1-m0) / float64(rep.ops)
		rep.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.ops)
	}

	id = tr.begin(root, "validate", -1)
	if d.queue {
		err = countq.ValidateOrder(ev.ids, ev.preds)
	} else {
		err = countq.ValidateCounts(ev.counts)
	}
	tr.end(id)
	if err != nil {
		rep.failed = rep.attempted
		rep.notef("validation: %v", err)
	}
	if l.exactRounds != 0 && r1-r0 != l.exactRounds*rep.ops {
		rep.notef("%d rounds for %d ops, want exactly %d rounds/op", r1-r0, rep.ops, l.exactRounds)
	}
	return rep, nil
}

// settledStats reads the bridge's simulated rounds and messages once they
// have stopped moving. The pump publishes them after each round, a moment
// after the round's grants reach the sessions, and keeps stepping while
// messages that grant nothing are still in flight; with no operation
// outstanding both settle within a few rounds.
func settledStats(br *sim.Bridge) (rounds, msgs int64) {
	rounds, msgs = br.SimStats()
	for {
		time.Sleep(100 * time.Microsecond)
		r, m := br.SimStats()
		if r == rounds && m == msgs {
			return r, m
		}
		rounds, msgs = r, m
	}
}

func (d *simDriver) op(k int64) countq.Op {
	if d.queue {
		return countq.Op{Kind: countq.OpEnqueue, ID: d.idBase + k}
	}
	return countq.Op{Kind: countq.OpInc, N: 1}
}

// record logs one finished operation as validation evidence.
func (d *simDriver) record(op countq.Op, v int64, err error) {
	switch {
	case err != nil:
		d.failed++
	case d.queue:
		d.ev.ids = append(d.ev.ids, op.ID)
		d.ev.preds = append(d.ev.preds, v)
	default:
		d.ev.counts = append(d.ev.counts, v)
	}
}

// loop issues operations until maxOps have been issued or the deadline has
// passed (a zero deadline never passes), and returns with none outstanding.
func (d *simDriver) loop(ctx context.Context, maxOps int64, deadline time.Time) {
	d.base = d.issued
	if len(d.async) == 1 {
		d.syncLoop(ctx, maxOps, deadline)
	} else {
		d.pipeLoop(ctx, maxOps, deadline)
	}
}

// syncLoop is the synchronous closed loop: one counting session, one Inc
// at a time. The deadline is checked on the sampled operations, whose end
// time is read anyway.
func (d *simDriver) syncLoop(ctx context.Context, maxOps int64, deadline time.Time) {
	s := d.async[0]
	for ; maxOps > 0; maxOps-- {
		k := d.issued
		d.issued++
		if (k-d.base)%sampleEvery != 0 {
			v, err := s.Inc(ctx)
			d.record(countq.Op{}, v, err)
			continue
		}
		var id int32
		if (k-d.base)%traceEvery == 0 {
			id = d.tr.begin(d.parent, "inc", k)
		}
		t0 := time.Now()
		v, err := s.Inc(ctx)
		t1 := time.Now()
		d.tr.end(id)
		d.record(countq.Op{}, v, err)
		d.latUs = append(d.latUs, float64(t1.Sub(t0))/1e3)
		if !deadline.IsZero() && t1.After(deadline) {
			return
		}
	}
}

// pipeLoop is the pipelined closed loop: every driven session keeps one
// operation outstanding; each cycle reaps the sessions in order and
// resubmits at once. The deadline is checked once per cycle, and the last
// cycle reaps without resubmitting.
func (d *simDriver) pipeLoop(ctx context.Context, maxOps int64, deadline time.Time) {
	end := int64(math.MaxInt64)
	if maxOps != math.MaxInt64 {
		end = d.issued + maxOps
	}
	for i := range d.async {
		d.live[i] = d.submit(ctx, i)
	}
	for last := false; !last; {
		last = d.issued >= end || (!deadline.IsZero() && time.Now().After(deadline))
		for i := range d.async {
			if !d.live[i] {
				continue
			}
			d.reap(i)
			d.live[i] = !last && d.submit(ctx, i)
		}
	}
}

// submit issues the next operation on driven session i, stamping one in
// sampleEvery with its submit time; the session echoes the stamp in the
// completion, which is how reap knows to time it. A traced operation gets
// an "op" span from submit to reap, with the Submit call and the wait on
// Completions as its children: what is left is the time the operation was
// in flight while the driver served other sessions.
func (d *simDriver) submit(ctx context.Context, i int) bool {
	k := d.issued
	d.issued++
	op := d.op(k)
	var id int32
	if d.tr != nil && (k-d.base)%traceEvery == 0 {
		if d.spanOf[i] = d.tr.begin(d.parent, "op", k); d.spanOf[i] != 0 {
			id = d.tr.begin(d.spanOf[i], "submit", k)
		}
	}
	if (k-d.base)%sampleEvery == 0 {
		op.Submitted = time.Now()
	}
	err := d.async[i].Submit(ctx, op)
	d.tr.end(id)
	if err != nil {
		d.failed++
		return false
	}
	return true
}

// reap takes driven session i's completion.
func (d *simDriver) reap(i int) {
	var c countq.Completion
	if op := d.spanOf[i]; op != 0 {
		id := d.tr.begin(op, "wait", d.tr.spans[op-1].Op)
		c = <-d.async[i].Completions()
		d.tr.end(id)
		d.tr.end(op)
		d.spanOf[i] = 0
	} else {
		c = <-d.async[i].Completions()
	}
	d.record(c.Op, c.Value, c.Err)
	if !c.Op.Submitted.IsZero() {
		d.latUs = append(d.latUs, float64(time.Since(c.Op.Submitted))/1e3)
	}
}
