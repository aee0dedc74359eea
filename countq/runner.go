package countq

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opsChunk is the granule workers claim from a phase's shared op pool:
// large enough that the claim CAS stays out of the measured hot path,
// small enough that an actually-starved worker shows up in the per-worker
// op counts instead of being handed a preassigned quota.
const opsChunk = 64

// Run executes the workload against freshly constructed instances of the
// specified implementations — as one steady phase, or as the phase
// sequence of Workload.Scenario — validates the outcome once across all
// phases (counts distinct and gap-free after draining leased remainders,
// block grants included; predecessors a single total order), and reports
// structured per-phase and aggregate Metrics: latency quantiles per op
// kind (with coordinated-omission-corrected quantiles under open-loop
// arrivals and async pipelining), a windowed throughput timeline, and
// per-worker fairness.
//
// The validation is one pass after the last phase, outside every measured
// window and reported as Metrics.ValidateElapsed. Each lane's evidence is
// copied once into run-level buffers sized up front from the ops budgets
// (8 bytes per count, 16 per queued operation); ValidateCountRanges and
// ValidateOrder then read them in linear time — on a 2.6 GHz Xeon about
// 2 ns per count, and 25 to 45 ns plus 12 to 20 bytes of index per queued
// operation.
//
// Every operation flows through the session layer: each worker opens one
// Session per structure and issues Inc/Enqueue through it, so a structure
// with per-worker state (sharded's private lease) serves its fast path.
// Capabilities are demanded, not hinted: a phase with Batch > 1 requires a
// CapBatch structure, a phase with Inflight > 1 requires CapAsync, and
// either fails loudly when the capability is missing.
func Run(w Workload) (*Metrics, error) {
	if w.Counter == "" && w.Queue == "" {
		return nil, fmt.Errorf("countq: workload names neither a counter nor a queue")
	}
	base := w.withDefaults()
	scenarioSpec := ""
	var phases []Phase
	if w.Scenario != "" {
		sc, err := ExpandScenario(w.Scenario, base)
		if err != nil {
			return nil, err
		}
		scenarioSpec, phases = sc.Spec, sc.Phases
	} else {
		phases = []Phase{basePhase(base, "steady")}
		phases[0].Ops, phases[0].Duration = base.Ops, base.Duration
	}
	return runSpec(base, scenarioSpec, phases)
}

// runSpec constructs the workload's structures and drives an
// already-expanded phase sequence — the shared back half of Run and
// Campaign.Run. It owns (and mutates) the phases slice; callers reusing an
// expansion across runs must pass each run its own copy. Structures
// holding background resources (io.Closer) are closed when the run ends.
func runSpec(w Workload, scenarioSpec string, phases []Phase) (*Metrics, error) {
	if w.Counter == "" && w.Queue == "" {
		return nil, fmt.Errorf("countq: workload names neither a counter nor a queue")
	}
	var (
		cs, qs       Structure
		cinfo, qinfo StructureInfo
	)
	if w.Counter != "" {
		s, err := ParseSpec(w.Counter)
		if err != nil {
			return nil, err
		}
		if cs, cinfo, err = newStructureFromSpec(s, KindCounter); err != nil {
			return nil, err
		}
	}
	if w.Queue != "" {
		s, err := ParseSpec(w.Queue)
		if err != nil {
			return nil, err
		}
		if qs, qinfo, err = newStructureFromSpec(s, KindQueue); err != nil {
			return nil, err
		}
	}
	defer closeStructure(cs)
	defer closeStructure(qs)
	return runPhases(w, scenarioSpec, phases, cs, qs, cinfo, qinfo)
}

// closeStructure releases a structure's background resources when it holds
// any (the sim bridge's network pump). Best effort: a close failure cannot
// un-validate an already-validated run.
func closeStructure(s Structure) {
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// laneData is the validation evidence one worker (and, folded, one run)
// accumulates: every count, block grant and (id, predecessor) pair.
type laneData struct {
	counts     []int64
	blocks     []CountRange
	ids, preds []int64
}

// reserve sizes the run's evidence buffers once, from the phases' ops
// budgets, so that folding a phase's lanes in is one copy into room that
// already exists. The counter/queue split of a mixed phase is a coin per
// draw, so each kind gets its expected share plus 4·√ops — eight standard
// deviations of that split. Duration-budget phases promise nothing up
// front; fold makes their room when their lanes arrive.
func (d *laneData) reserve(phases []Phase) {
	var counts, blocks, queued float64
	for i := range phases {
		p := &phases[i]
		if p.Ops <= 0 {
			continue
		}
		ops := float64(p.Ops)
		slack := 4 * math.Sqrt(ops)
		switch {
		case p.Mix == 0:
		case p.Batch > 1:
			// Whole blocks, plus the short one that ends each claimed chunk.
			blocks += ops/float64(p.Batch) + ops/opsChunk + float64(p.Goroutines)
		default:
			counts += ops*p.Mix + slack
		}
		if p.Mix < 1 {
			queued += ops*(1-p.Mix) + slack
		}
	}
	d.counts = make([]int64, 0, int(counts))
	d.blocks = make([]CountRange, 0, int(blocks))
	d.ids = make([]int64, 0, int(queued))
	d.preds = make([]int64, 0, int(queued))
}

// fold appends every lane's evidence, growing each buffer at most once —
// and not at all inside the reservation.
func (d *laneData) fold(lanes []*lane) {
	var counts, blocks, queued int
	for _, ln := range lanes {
		counts += len(ln.counts)
		blocks += len(ln.blocks)
		queued += len(ln.ids)
	}
	d.counts = slices.Grow(d.counts, counts)
	d.blocks = slices.Grow(d.blocks, blocks)
	d.ids = slices.Grow(d.ids, queued)
	d.preds = slices.Grow(d.preds, queued)
	for _, ln := range lanes {
		d.counts = append(d.counts, ln.counts...)
		d.blocks = append(d.blocks, ln.blocks...)
		d.ids = append(d.ids, ln.ids...)
		d.preds = append(d.preds, ln.preds...)
	}
}

// phaseHists bundles one lane's (or one phase's) latency histograms:
// service time per op kind plus the coordinated-omission-corrected
// distributions.
type phaseHists struct {
	c, q         Histogram
	ccorr, qcorr Histogram
}

func (h *phaseHists) merge(o *phaseHists) {
	h.c.Merge(&o.c)
	h.q.Merge(&o.q)
	h.ccorr.Merge(&o.ccorr)
	h.qcorr.Merge(&o.qcorr)
}

// runPhases drives the phase sequence over the shared structure instances
// and validates the accumulated evidence once at the end.
func runPhases(base Workload, scenarioSpec string, phases []Phase, cs, qs Structure, cinfo, qinfo StructureInfo) (*Metrics, error) {
	if err := normalizePhases(base, phases, cs, qs, cinfo, qinfo); err != nil {
		return nil, err
	}
	m := &Metrics{
		Counter:  base.Counter,
		Queue:    base.Queue,
		Scenario: scenarioSpec,
		Seed:     base.Seed,
	}
	var all laneData
	all.reserve(phases)
	var aggHists phaseHists
	var totalAllocs, totalAllocBytes float64
	agg := Measurement{Fairness: 1}
	runStart := time.Now()
	for pi := range phases {
		pm, hists, err := runPhase(cs, qs, base, pi, phases[pi], runStart, &all)
		if err != nil {
			return nil, err
		}
		m.Phases = append(m.Phases, pm)
		if pm.Goroutines > m.Goroutines {
			m.Goroutines = pm.Goroutines
		}
		if pm.Warmup {
			continue
		}
		agg.Ops += pm.Ops
		agg.CounterOps += pm.CounterOps
		agg.QueueOps += pm.QueueOps
		agg.Elapsed += pm.Elapsed
		agg.Timeline = append(agg.Timeline, pm.Timeline...)
		agg.MemTimeline = append(agg.MemTimeline, pm.MemTimeline...)
		if pm.LivePeakBytes > agg.LivePeakBytes {
			agg.LivePeakBytes = pm.LivePeakBytes
		}
		totalAllocs += pm.AllocsPerOp * float64(pm.Ops)
		totalAllocBytes += pm.AllocBytesPerOp * float64(pm.Ops)
		if pm.Fairness < agg.Fairness {
			agg.Fairness = pm.Fairness
		}
		aggHists.merge(hists)
	}
	m.Elapsed = time.Since(runStart)
	agg.CounterLat = aggHists.c.Stats()
	agg.QueueLat = aggHists.q.Stats()
	agg.CounterCorr = aggHists.ccorr.Stats()
	agg.QueueCorr = aggHists.qcorr.Stats()
	if agg.Ops > 0 {
		agg.AllocsPerOp = totalAllocs / float64(agg.Ops)
		agg.AllocBytesPerOp = totalAllocBytes / float64(agg.Ops)
	}
	m.Aggregate = agg

	// Fail-loudly sampling invariant: operations of a kind without a single
	// latency sample would silently report no distribution at all.
	if agg.CounterOps > 0 && agg.CounterLat == nil {
		return nil, fmt.Errorf("countq: %d counter operations but none latency-sampled", agg.CounterOps)
	}
	if agg.QueueOps > 0 && agg.QueueLat == nil {
		return nil, fmt.Errorf("countq: %d queue operations but none latency-sampled", agg.QueueOps)
	}

	validateStart := time.Now()
	if err := validateRun(base, cs, &all); err != nil {
		return nil, err
	}
	m.ValidateElapsed = time.Since(validateStart)
	return m, nil
}

// normalizePhases fills each phase's defaults from the base workload and
// rejects the whole sequence before any goroutine runs: a misconfigured
// final phase must not waste the preceding ones.
func normalizePhases(base Workload, phases []Phase, cs, qs Structure, cinfo, qinfo StructureInfo) error {
	if len(phases) > 256 {
		return fmt.Errorf("countq: %d phases overflow the queue-op id packing (max 256)", len(phases))
	}
	for i := range phases {
		p := &phases[i]
		if p.Goroutines <= 0 {
			p.Goroutines = base.Goroutines
		}
		if p.Goroutines > 1<<15 {
			return fmt.Errorf("countq: phase %q: %d goroutines overflow the queue-op id packing (max %d)", p.Name, p.Goroutines, 1<<15)
		}
		if p.LatencySample == 0 {
			p.LatencySample = base.LatencySample
		}
		if p.LatencySample < 0 {
			return fmt.Errorf("countq: phase %q: latency sample %d is negative (want 0 for the default, or ≥ 1)", p.Name, p.LatencySample)
		}
		switch {
		case qs == nil:
			p.Mix = 1
		case cs == nil:
			p.Mix = 0
		}
		if p.Mix < 0 || p.Mix > 1 {
			return fmt.Errorf("countq: phase %q: counter mix %v outside [0,1]", p.Name, p.Mix)
		}
		if p.Batch < 0 {
			return fmt.Errorf("countq: phase %q: negative batch %d", p.Name, p.Batch)
		}
		if p.Batch == 1 {
			p.Batch = 0 // IncN(1) is Inc; keep the single-Inc path
		}
		if p.Batch > 1 && p.Mix > 0 && !cinfo.Caps.Has(CapBatch) {
			return fmt.Errorf("countq: phase %q sets batch=%d but counter %q lacks the batch capability (BatchSession block grants); drop the batch or pick a batching counter", p.Name, p.Batch, base.Counter)
		}
		if p.Inflight == 0 {
			p.Inflight = base.Inflight
		}
		if p.Inflight < 0 {
			return fmt.Errorf("countq: phase %q: negative inflight %d", p.Name, p.Inflight)
		}
		if p.Inflight == 1 {
			p.Inflight = 0 // one outstanding op is the synchronous path
		}
		if p.Inflight > 1 {
			if p.Arrival == Fairshare {
				return fmt.Errorf("countq: phase %q: the fairshare rotation grants one operation at a time and cannot be combined with inflight=%d pipelining", p.Name, p.Inflight)
			}
			if p.Mix > 0 && !cinfo.Caps.Has(CapAsync) {
				return fmt.Errorf("countq: phase %q sets inflight=%d but counter %q lacks the async capability (AsyncSession completions); drop the inflight or pick an async-capable structure", p.Name, p.Inflight, base.Counter)
			}
			if p.Mix < 1 && !qinfo.Caps.Has(CapAsync) {
				return fmt.Errorf("countq: phase %q sets inflight=%d but queue %q lacks the async capability (AsyncSession completions); drop the inflight or pick an async-capable structure", p.Name, p.Inflight, base.Queue)
			}
		}
		if p.Duration > 0 {
			p.Ops = 0
		} else if p.Ops <= 0 {
			return fmt.Errorf("countq: phase %q has neither an ops nor a duration budget", p.Name)
		}
	}
	return nil
}

// validateRun is the one validation pass over the whole run, warmup
// included: phases share the structure instances, so counts keep rising
// across phase boundaries and the gap-free check must see every grant.
// Sessions are all closed by now, so DrainCounts sees surrendered lease
// remainders.
func validateRun(base Workload, cs Structure, all *laneData) error {
	if cs != nil {
		all.counts = append(all.counts, DrainCounts(cs)...)
	}
	if err := ValidateCountRanges(all.counts, all.blocks); err != nil {
		return fmt.Errorf("countq: %s failed validation: %w", base.Counter, err)
	}
	if err := ValidateOrder(all.ids, all.preds); err != nil {
		return fmt.Errorf("countq: %s failed validation: %w", base.Queue, err)
	}
	return nil
}

// claimOps takes up to chunk ops from the phase's shared pool, returning 0
// when the budget is exhausted.
//
//countq:hotpath clocks=0
func claimOps(pool *atomic.Int64, chunk int64) int64 {
	for {
		r := pool.Load()
		if r <= 0 {
			return 0
		}
		n := chunk
		if n > r {
			n = r
		}
		if pool.CompareAndSwap(r, r-n) {
			return n
		}
	}
}

// phaseDeadline amortizes a phase's duration budget: one timer flips the
// flag when the wall budget expires, and every worker polls a single
// uncontended atomic load per iteration — replacing the old idiom of each
// worker re-reading the wall clock every 64 iterations, which appeared
// verbatim in both the sync and async loops.
type phaseDeadline struct {
	expired atomic.Bool
	timer   *time.Timer
}

func startDeadline(d time.Duration) *phaseDeadline {
	pd := &phaseDeadline{}
	pd.timer = time.AfterFunc(d, func() { pd.expired.Store(true) })
	return pd
}

// done reports whether the budget expired. A nil deadline (an ops-budget
// phase) never expires.
//
//countq:hotpath clocks=0
func (pd *phaseDeadline) done() bool { return pd != nil && pd.expired.Load() }

// stop releases the timer.
func (pd *phaseDeadline) stop() {
	if pd != nil {
		pd.timer.Stop()
	}
}

// grow returns s with room for at least n more elements, doubling capacity
// so that reserving ahead of appends keeps the per-op append path free of
// allocation inside a measured phase.
func grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	c := 2 * cap(s)
	if c < len(s)+n {
		c = len(s) + n
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// cacheLine is the coherence granule the runner lays its memory out by.
const cacheLine = 64

// isolated keeps v on cache lines of its own: a full guard line on each
// side means no neighbouring field or heap object shares a line with any
// byte of v. It is the runner's one layout mechanism — around each
// worker's whole per-phase state, and around each shared word written by
// design (the op pool, the fairshare turn, each fairshare done flag) — so
// a worker's per-op writes land only on lines it owns, and the contention
// a phase measures is the structure's, not the harness's.
type isolated[T any] struct {
	_ [cacheLine]byte
	v T
	_ [cacheLine]byte
}

// lane is one worker's phase-local accumulation: validation evidence,
// latency histograms, timeline events, and the op count feeding fairness.
type lane struct {
	laneData
	hists  phaseHists
	events []tlEvent
	issued int64
	err    error
}

// laneRunner is one worker's execution state for one phase, its lane
// included. The worker allocates it itself, isolated (newWorker), so every
// word written per op — evidence headers, histograms, counters, clocks —
// sits on lines no other worker touches. Everything it allocates —
// evidence capacity, histograms, the rng — is set up before the start
// barrier, and the per-op methods (issueSync, submitOne, reap) are written
// to run at zero heap allocations; alloc_test.go gates them by counting
// runtime Mallocs exactly.
type laneRunner struct {
	ln     lane
	p      *Phase
	pi, gi int

	csess Session
	qsess Session
	bsess BatchSession
	cas   AsyncSession
	qas   AsyncSession
	cch   <-chan Completion
	qch   <-chan Completion

	ctx     context.Context
	rng     *rand.Rand
	batch   int
	drawMix float64
	sample  int
	chunk   int64
	open    bool
	hasPool bool

	pool *atomic.Int64
	dl   *phaseDeadline

	runStart time.Time
	// intended is the corrected-latency clock: it accumulates the arrival
	// schedule's think times from the phase start, independent of how long
	// service takes — when the structure falls behind, completion − intended
	// grows by the backlog, which is exactly what coordinated omission hides.
	intended time.Time
	// mark is the most recent clock read. Under an open arrival it is
	// refreshed after every pause and after every completed op, so it can
	// double as the sampled op's t0 and keep service time out of intended —
	// one clock read where the old loop took up to three.
	mark time.Time

	allowance   int64 // ops claimed from the pool, not yet issued
	resLeft     int64 // reserved evidence capacity left (duration phases)
	sinceEvent  int64 // unsampled ops since the last timeline event
	burst       int
	iter        int
	outstanding int
	// Per-kind countdowns to the next latency-sampled op (see due).
	countDue, blockDue, idDue int
}

// begin stamps the phase clocks once the start barrier opens.
func (r *laneRunner) begin(phaseStart time.Time) {
	r.intended = phaseStart
	r.mark = phaseStart
}

// reserve grows the lane's evidence and event logs to absorb n more ops
// without allocating on the per-op path. Called outside the measured
// window at setup, then at pool-claim granularity, so steady state sees
// appends into preexisting capacity only.
func (r *laneRunner) reserve(n int64) {
	ln := &r.ln
	if r.p.Mix > 0 {
		if r.batch > 1 {
			ln.blocks = grow(ln.blocks, int(n)/r.batch+1)
		} else {
			ln.counts = grow(ln.counts, int(n))
		}
	}
	if r.p.Mix < 1 {
		ln.ids = grow(ln.ids, int(n))
		ln.preds = grow(ln.preds, int(n))
	}
	ln.events = grow(ln.events, int(n)/r.sample+2)
}

// claim secures budget for at least one more draw: a chunk from the shared
// op pool, or — on a duration budget — a cheap check of the amortized
// deadline flag plus evidence reservation in opsChunk strides. Returns
// false when the phase's budget is exhausted.
//
//countq:hotpath clocks=0
func (r *laneRunner) claim() bool {
	if r.hasPool {
		if r.allowance == 0 {
			if r.allowance = claimOps(r.pool, r.chunk); r.allowance == 0 {
				return false
			}
			r.reserve(r.allowance)
		}
		return true
	}
	if r.dl.done() {
		return false
	}
	if r.resLeft <= 0 {
		r.reserve(opsChunk)
		r.resLeft = opsChunk
	}
	return true
}

// consume books n granted ops against the claimed allowance.
//
//countq:hotpath clocks=0
func (r *laneRunner) consume(n int64) {
	if r.hasPool {
		r.allowance -= n
	} else {
		r.resLeft -= n
	}
}

// arrive waits out one open-loop think time and advances the intended
// clock. mark is the previous post-op (or post-pause) read, so the span
// added to intended covers the pause but never service time.
//
//countq:hotpath
func (r *laneRunner) arrive() {
	pause(r.p.Arrival, r.rng, &r.burst)
	now := time.Now()
	r.intended = r.intended.Add(now.Sub(r.mark))
	r.mark = now
}

// t0 is the service-time start of a sampled synchronous op. Under an open
// arrival the post-pause read taken moments ago already marks it, so the
// sampled path costs one fresh clock read (t1) instead of three.
//
//countq:hotpath
func (r *laneRunner) t0() time.Time {
	if r.open {
		return r.mark
	}
	return time.Now()
}

// due reports whether the next op of the kind counted down by left is
// latency-sampled: the kind's 0th, sample'th, 2·sample'th … op, exactly
// the ops an index-mod-sample rule picks, without a division per op.
//
//countq:hotpath clocks=0
func (r *laneRunner) due(left *int) bool {
	if *left > 0 {
		*left--
		return false
	}
	*left = r.sample - 1
	return true
}

// observe records one sampled op: histogram plus a timeline event that
// reuses the op's completion timestamp instead of reading the clock again.
//
//countq:hotpath clocks=0
func (r *laneRunner) observe(h *Histogram, totalNs, n int64, at time.Time) {
	h.recordAmortized(totalNs, n)
	r.ln.events = append(r.ln.events, tlEvent{off: at.Sub(r.runStart).Nanoseconds(), ops: r.sinceEvent + n})
	r.sinceEvent = 0
}

// record books a sampled synchronous op that ran from t0 to t1 and
// granted n operations: service time into h and, under an open arrival,
// the corrected response time into corr, with t1 as the new mark.
//
//countq:hotpath clocks=0
func (r *laneRunner) record(h, corr *Histogram, t0, t1 time.Time, n int64) {
	r.observe(h, t1.Sub(t0).Nanoseconds(), n, t1)
	if r.open {
		corr.RecordN(t1.Sub(r.intended).Nanoseconds(), n)
		r.mark = t1
	}
}

// flush emits the trailing unsampled ops as a final timeline event.
//
//countq:hotpath
func (r *laneRunner) flush() {
	if r.sinceEvent > 0 {
		r.ln.events = append(r.ln.events, tlEvent{off: time.Since(r.runStart).Nanoseconds(), ops: r.sinceEvent})
	}
}

// issueSync performs one synchronous draw — the gated zero-allocation hot
// path — and returns how many operations it granted.
//
//countq:hotpath clocks=6
func (r *laneRunner) issueSync() (int64, error) {
	ln := &r.ln
	if r.p.Mix == 1 || (r.p.Mix > 0 && r.rng.Float64() < r.drawMix) {
		if r.batch > 1 {
			n := int64(r.batch)
			if r.hasPool && n > r.allowance {
				n = r.allowance
			}
			if r.due(&r.blockDue) {
				t0 := r.t0()
				first, err := r.bsess.IncN(r.ctx, n)
				t1 := time.Now()
				if err != nil {
					return 0, err
				}
				ln.blocks = append(ln.blocks, CountRange{First: first, N: n})
				r.record(&ln.hists.c, &ln.hists.ccorr, t0, t1, n)
				return n, nil
			}
			first, err := r.bsess.IncN(r.ctx, n)
			if err != nil {
				return 0, err
			}
			ln.blocks = append(ln.blocks, CountRange{First: first, N: n})
			r.sinceEvent += n
			if r.open {
				r.mark = time.Now()
			}
			return n, nil
		}
		if r.due(&r.countDue) {
			t0 := r.t0()
			v, err := r.csess.Inc(r.ctx)
			t1 := time.Now()
			if err != nil {
				return 0, err
			}
			ln.counts = append(ln.counts, v)
			r.record(&ln.hists.c, &ln.hists.ccorr, t0, t1, 1)
			return 1, nil
		}
		v, err := r.csess.Inc(r.ctx)
		if err != nil {
			return 0, err
		}
		ln.counts = append(ln.counts, v)
		r.sinceEvent++
		if r.open {
			r.mark = time.Now()
		}
		return 1, nil
	}
	// 8 bits of phase, 15 of lane, 40 of draw index: distinct non-negative
	// ids across the whole run.
	id := int64(r.pi)<<55 | int64(r.gi)<<40 | int64(r.iter)
	if r.due(&r.idDue) {
		t0 := r.t0()
		pr, err := r.qsess.Enqueue(r.ctx, id)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		ln.ids = append(ln.ids, id)
		ln.preds = append(ln.preds, pr)
		r.record(&ln.hists.q, &ln.hists.qcorr, t0, t1, 1)
		return 1, nil
	}
	pr, err := r.qsess.Enqueue(r.ctx, id)
	if err != nil {
		return 0, err
	}
	ln.ids = append(ln.ids, id)
	ln.preds = append(ln.preds, pr)
	r.sinceEvent++
	if r.open {
		r.mark = time.Now()
	}
	return 1, nil
}

// runSync drives the synchronous loop: one call-and-return per draw. Under
// the fairshare rotation (fair non-nil) each draw waits for this worker's
// turn and passes it on.
//
//countq:hotpath clocks=0
func (r *laneRunner) runSync(fair *fairTurn) {
	for r.iter = 0; ; r.iter++ {
		if !r.claim() {
			break
		}
		if r.open {
			r.arrive()
		}
		if fair != nil {
			fair.acquire(r.gi)
		}
		granted, err := r.issueSync()
		if fair != nil {
			fair.release()
		}
		if err != nil {
			r.ln.err = err
			return
		}
		r.ln.issued += granted
		r.consume(granted)
	}
}

// submitOne issues one draw on the async pipeline; false means the budget
// is exhausted and nothing was submitted. Op values travel by value into
// the session's preallocated rings, so the submit path allocates nothing.
//
//countq:hotpath
func (r *laneRunner) submitOne() (bool, error) {
	if !r.claim() {
		return false, nil
	}
	var now time.Time
	if r.open {
		r.arrive()
		now = r.mark
	} else {
		now = time.Now()
	}
	op := Op{Token: uint64(r.iter), Start: now, Submitted: now}
	if r.open {
		op.Start = r.intended
	}
	n := int64(1)
	if r.p.Mix == 1 || (r.p.Mix > 0 && r.rng.Float64() < r.drawMix) {
		op.Kind, op.N = OpInc, 1
		if r.batch > 1 {
			n = int64(r.batch)
			if r.hasPool && n > r.allowance {
				n = r.allowance
			}
			op.N = n
		}
		if err := r.cas.Submit(r.ctx, op); err != nil {
			return false, err
		}
	} else {
		op.Kind = OpEnqueue
		// 8 bits of phase, 15 of lane, 40 of draw index: distinct
		// non-negative ids across the whole run.
		op.ID = int64(r.pi)<<55 | int64(r.gi)<<40 | int64(r.iter)
		if err := r.qas.Submit(r.ctx, op); err != nil {
			return false, err
		}
	}
	r.iter++
	r.outstanding++
	r.consume(n)
	return true, nil
}

// reap folds one completion into the lane's evidence and histograms.
//
//countq:hotpath
func (r *laneRunner) reap(c Completion) {
	ln := &r.ln
	now := time.Now()
	switch {
	case c.Op.Kind == OpInc && c.Op.N > 1:
		ln.blocks = append(ln.blocks, CountRange{First: c.Value, N: c.Op.N})
		if r.due(&r.blockDue) {
			r.observe(&ln.hists.c, now.Sub(c.Op.Submitted).Nanoseconds(), c.Op.N, now)
			ln.hists.ccorr.RecordN(now.Sub(c.Op.Start).Nanoseconds(), c.Op.N)
		} else {
			r.sinceEvent += c.Op.N
		}
		ln.issued += c.Op.N
	case c.Op.Kind == OpInc:
		ln.counts = append(ln.counts, c.Value)
		if r.due(&r.countDue) {
			r.observe(&ln.hists.c, now.Sub(c.Op.Submitted).Nanoseconds(), 1, now)
			ln.hists.ccorr.Record(now.Sub(c.Op.Start).Nanoseconds())
		} else {
			r.sinceEvent++
		}
		ln.issued++
	default:
		ln.ids = append(ln.ids, c.Op.ID)
		ln.preds = append(ln.preds, c.Value)
		if r.due(&r.idDue) {
			r.observe(&ln.hists.q, now.Sub(c.Op.Submitted).Nanoseconds(), 1, now)
			ln.hists.qcorr.Record(now.Sub(c.Op.Start).Nanoseconds())
		} else {
			r.sinceEvent++
		}
		ln.issued++
	}
	r.outstanding--
}

// runAsync drives the pipelined loop: keep Inflight ops outstanding,
// reaping completions as they arrive.
//
//countq:hotpath clocks=0
func (r *laneRunner) runAsync() {
	budgetDone := false
	for {
		for !budgetDone && r.outstanding < r.p.Inflight {
			ok, err := r.submitOne()
			if err != nil {
				r.ln.err = err
				return
			}
			if !ok {
				budgetDone = true
			}
		}
		if r.outstanding == 0 {
			break // budget exhausted, pipeline drained
		}
		var c Completion
		select {
		case c = <-r.cch:
		case c = <-r.qch:
		}
		if c.Err != nil {
			r.ln.err = c.Err
			return
		}
		r.reap(c)
	}
}

// runPhase spawns the phase's workers against the shared structures and
// folds their lanes into one PhaseMetrics plus the per-kind histograms
// (returned separately so the caller can merge them into the aggregate
// without re-binning); the lanes' validation evidence goes straight into
// the run's buffers, all. Each worker opens one session per structure
// before the start barrier and issues every operation through it —
// synchronously, or as an Inflight-deep pipeline of Submit/Completions
// when the phase asks for one.
func runPhase(cs, qs Structure, base Workload, pi int, p Phase, runStart time.Time, all *laneData) (PhaseMetrics, *phaseHists, error) {
	ph := newPhaseRun(cs, qs, base, pi, p, runStart)
	return ph.fold(ph.run(), all)
}

// phaseRun is one phase's shared state. Workers only read it once the
// start barrier opens, except the op pool and the fairshare rotation,
// which they write by design and which are isolated on lines of their own.
type phaseRun struct {
	cs, qs   Structure
	base     Workload
	p        Phase
	pi       int
	runStart time.Time

	batch   int
	drawMix float64
	chunk   int64
	share   int64 // each lane's initial evidence reservation

	pool isolated[atomic.Int64]
	fair *fairTurn // nil unless the phase's arrival is Fairshare

	ready, wg  sync.WaitGroup
	start      chan struct{}
	phaseStart time.Time
	dl         *phaseDeadline

	// The measured window, stamped by run: its offset and length, the
	// allocation counters bracketing it, the live heap sampled inside it.
	startNs       int64
	elapsed       time.Duration
	allocs, bytes uint64
	mem           []MemWindow
}

func newPhaseRun(cs, qs Structure, base Workload, pi int, p Phase, runStart time.Time) *phaseRun {
	ph := &phaseRun{
		cs: cs, qs: qs, base: base, p: p, pi: pi, runStart: runStart,
		batch: p.Batch, drawMix: p.Mix, chunk: opsChunk, share: opsChunk,
		start: make(chan struct{}),
	}
	if p.Mix == 0 {
		ph.batch = 0
	}
	// Each batched draw grants `batch` counter operations at once, so the
	// per-draw counter probability must shrink for Mix to stay the
	// fraction of *operations* that count: solving
	// p·batch / (p·batch + (1-p)) = mix for p.
	if ph.batch > 1 && p.Mix > 0 && p.Mix < 1 {
		ph.drawMix = p.Mix / (float64(ph.batch)*(1-p.Mix) + p.Mix)
	}
	if int64(ph.batch) > ph.chunk {
		ph.chunk = int64(ph.batch)
	}
	ph.pool.v.Store(int64(p.Ops))
	// Per-lane initial evidence reservation: the balanced share of an ops
	// budget, or one claim stride under a duration budget. Claims during the
	// phase top this up, so steady state appends never allocate.
	if p.Ops > 0 {
		ph.share = int64(p.Ops)/int64(p.Goroutines) + opsChunk
	}
	if p.Arrival == Fairshare {
		ph.fair = &fairTurn{done: make([]isolated[atomic.Bool], p.Goroutines)}
	}
	return ph
}

// newWorker is lane setup: worker gi's laneRunner, lane included, in an
// allocation of its own with the rng and the evidence reservation for its
// share of the budget. Workers call it on their own goroutine, before the
// start barrier.
func (ph *phaseRun) newWorker(gi int) *laneRunner {
	r := &new(isolated[laneRunner]).v
	r.p, r.pi, r.gi = &ph.p, ph.pi, gi
	r.ctx = context.Background()
	r.rng = rand.New(rand.NewSource(ph.base.Seed + int64(ph.pi)*104729 + int64(gi)*7919))
	r.batch, r.drawMix, r.sample, r.chunk = ph.batch, ph.drawMix, ph.p.LatencySample, ph.chunk
	r.open = ph.p.Arrival == Uniform || ph.p.Arrival == Bursty
	r.hasPool, r.pool = ph.p.Ops > 0, &ph.pool.v
	r.runStart = ph.runStart
	r.reserve(ph.share)
	return r
}

// openSessions is session open plus capability assertion: one session per
// structure, and the batch and async views the phase demands of them.
// Their Close (closeSessions) runs before the phase is folded.
func (r *laneRunner) openSessions(cs, qs Structure, base Workload) (err error) {
	if cs != nil {
		if r.csess, err = cs.NewSession(); err != nil {
			return err
		}
	}
	if qs != nil {
		if r.qsess, err = qs.NewSession(); err != nil {
			return err
		}
	}
	p := r.p
	if r.batch > 1 {
		b, ok := r.csess.(BatchSession)
		if !ok {
			return fmt.Errorf("countq: phase %q: counter %q declares CapBatch but its session is not a BatchSession", p.Name, base.Counter)
		}
		r.bsess = b
	}
	if p.Inflight <= 1 {
		return nil
	}
	if r.csess != nil && p.Mix > 0 {
		a, ok := r.csess.(AsyncSession)
		if !ok {
			return fmt.Errorf("countq: phase %q: counter %q declares CapAsync but its session is not an AsyncSession", p.Name, base.Counter)
		}
		r.cas, r.cch = a, a.Completions()
	}
	if r.qsess != nil && p.Mix < 1 {
		a, ok := r.qsess.(AsyncSession)
		if !ok {
			return fmt.Errorf("countq: phase %q: queue %q declares CapAsync but its session is not an AsyncSession", p.Name, base.Queue)
		}
		r.qas, r.qch = a, a.Completions()
	}
	return nil
}

// closeSessions closes the worker's sessions — surrendering leases,
// draining async buffers — keeping the lane's first error.
func (r *laneRunner) closeSessions() {
	for _, s := range []Session{r.csess, r.qsess} {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && r.ln.err == nil {
			r.ln.err = fmt.Errorf("countq: phase %q: session close: %w", r.p.Name, err)
		}
	}
}

// fairTurn is the fairshare rotation: turn hands the grant around
// round-robin, and a worker that finishes (or fails) marks itself done so
// waiters can skip its turns instead of deadlocking.
type fairTurn struct {
	turn isolated[atomic.Int64]
	done []isolated[atomic.Bool]
}

// acquire waits until the rotation reaches worker gi.
func (f *fairTurn) acquire(gi int) {
	g := int64(len(f.done))
	for {
		t := f.turn.v.Load()
		owner := int(t % g)
		if owner == gi {
			return
		}
		if f.done[owner].v.Load() {
			f.turn.v.CompareAndSwap(t, t+1)
			continue
		}
		runtime.Gosched()
	}
}

// release passes the grant to the next worker.
func (f *fairTurn) release() { f.turn.v.Add(1) }

// finish takes worker gi out of the rotation for good.
func (f *fairTurn) finish(gi int) { f.done[gi].v.Store(true) }

// work is one worker's whole phase: lane setup and session open before the
// start barrier, the measured loop after it, then flush and close.
func (ph *phaseRun) work(gi int, out **lane) {
	defer ph.wg.Done()
	if ph.fair != nil {
		defer ph.fair.finish(gi)
	}
	r := ph.newWorker(gi)
	*out = &r.ln
	r.ln.err = r.openSessions(ph.cs, ph.qs, ph.base)
	defer r.closeSessions()
	ph.ready.Done()
	<-ph.start
	if r.ln.err != nil {
		return
	}
	r.dl = ph.dl
	r.begin(ph.phaseStart)
	if ph.p.Inflight > 1 {
		r.runAsync()
	} else {
		r.runSync(ph.fair)
	}
	r.flush()
}

// run is barrier and deadline. Workers rendezvous on a start barrier so
// spawn latency (and session setup, rng construction, evidence
// preallocation) is neither measured nor lets early workers drain the
// shared pool before late ones exist (which would read as unfairness the
// structure didn't cause). The lanes are read only after every worker has
// returned.
func (ph *phaseRun) run() []*lane {
	probe := newMemProbe()
	lanes := make([]*lane, ph.p.Goroutines)
	for gi := range lanes {
		ph.ready.Add(1)
		ph.wg.Add(1)
		go ph.work(gi, &lanes[gi])
	}
	ph.ready.Wait()
	ph.phaseStart = time.Now()
	if ph.p.Duration > 0 {
		ph.dl = startDeadline(ph.p.Duration) // workers observe this via the start barrier
	}
	ph.startNs = ph.phaseStart.Sub(ph.runStart).Nanoseconds()
	// The phase's memory accounting brackets exactly the measured window:
	// the sampler (and its buffers) exist before the baseline read, and
	// worker setup allocations all happened before the barrier.
	sampler := startMemSampler(ph.phaseStart)
	allocs0, bytes0, _ := probe.read()
	close(ph.start)
	ph.wg.Wait()
	ph.elapsed = time.Since(ph.phaseStart)
	allocs1, bytes1, _ := probe.read()
	ph.mem = sampler.stop(ph.startNs, ph.elapsed.Nanoseconds())
	ph.dl.stop()
	ph.allocs, ph.bytes = allocs1-allocs0, bytes1-bytes0
	return lanes
}

// fold merges the phase's lanes into its PhaseMetrics and histograms, and
// their evidence into the run's buffers.
func (ph *phaseRun) fold(lanes []*lane, all *laneData) (PhaseMetrics, *phaseHists, error) {
	p := &ph.p
	var hists phaseHists
	var events []tlEvent
	var counterOps, queueOps int
	workers := make([]int64, len(lanes))
	for gi, ln := range lanes {
		if ln.err != nil {
			return PhaseMetrics{}, nil, fmt.Errorf("countq: phase %q: %w", p.Name, ln.err)
		}
		hists.merge(&ln.hists)
		events = append(events, ln.events...)
		workers[gi] = ln.issued
		counterOps += len(ln.counts)
		for _, b := range ln.blocks {
			counterOps += int(b.N)
		}
		queueOps += len(ln.ids)
	}
	all.fold(lanes)
	var allocsPerOp, allocBytesPerOp float64
	if ops := counterOps + queueOps; ops > 0 {
		allocsPerOp = float64(ph.allocs) / float64(ops)
		allocBytesPerOp = float64(ph.bytes) / float64(ops)
	}
	pm := PhaseMetrics{
		Name:       p.Name,
		Warmup:     p.Warmup,
		Goroutines: p.Goroutines,
		Mix:        p.Mix,
		Arrival:    p.Arrival.String(),
		Batch:      ph.batch,
		Inflight:   p.Inflight,
		StartNs:    ph.startNs,
		Measurement: Measurement{
			Elapsed:         ph.elapsed,
			Ops:             counterOps + queueOps,
			CounterOps:      counterOps,
			QueueOps:        queueOps,
			CounterLat:      hists.c.Stats(),
			QueueLat:        hists.q.Stats(),
			CounterCorr:     hists.ccorr.Stats(),
			QueueCorr:       hists.qcorr.Stats(),
			Timeline:        buildTimeline(events, ph.startNs, ph.elapsed.Nanoseconds()),
			AllocsPerOp:     allocsPerOp,
			AllocBytesPerOp: allocBytesPerOp,
			MemTimeline:     ph.mem,
			LivePeakBytes:   peakMem(ph.mem),
			Fairness:        fairness(workers),
		},
		WorkerOps: workers,
	}
	return pm, &hists, nil
}

// fairness is min/max over per-worker op counts: 1 is perfectly fair, 0
// means some worker was fully starved. A phase where nothing ran at all is
// vacuously fair.
func fairness(workers []int64) float64 {
	if len(workers) == 0 {
		return 1
	}
	min, max := workers[0], workers[0]
	for _, w := range workers[1:] {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return 1
	}
	return float64(min) / float64(max)
}
