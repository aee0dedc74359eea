package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Start and End are nanoseconds since the tracer was
// made; Parent is the ID of the span that caused this one (0 for a root);
// spans of one operation share Op (-1 when the span belongs to no single
// operation, such as set-up).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is owned by
// the driving goroutine and is not safe for concurrent use.
type tracer struct {
	t0    time.Time
	spans []span
	left  int // per-operation spans the current repeat may still record
}

// traceEvery is the share of operations a traced run records spans for, and
// spansPerRepeat caps the per-operation spans of one repeat, so that the
// span file of a fast workload stays a few megabytes: a repeat that runs
// out keeps its set-up, close and validate spans and drops later
// operations'.
const (
	traceEvery     = 64
	spansPerRepeat = 1 << 12
)

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID; 0 from a nil tracer, and for a
// per-operation span (op ≥ 0) once the repeat's cap is spent. A root span
// (parent 0) starts a repeat.
func (t *tracer) begin(parent int32, name string, op int64) int32 {
	if t == nil {
		return 0
	}
	if parent == 0 {
		t.left = spansPerRepeat
	}
	if op >= 0 {
		if t.left == 0 {
			return 0
		}
		t.left--
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0)), Op: op})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of its interval its direct children cover: overlapping children are
// counted once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanMeans returns, per span name, the mean duration and the mean self
// time in nanoseconds, and the number of spans of that name.
func spanMeans(spans []span) map[string]spanMean {
	self := selfTimes(spans)
	sums := make(map[string]spanMean)
	for i, s := range spans {
		m := sums[s.Name]
		m.N++
		m.DurNs += float64(s.End - s.Start)
		m.SelfNs += float64(self[i])
		sums[s.Name] = m
	}
	for name, m := range sums {
		m.DurNs /= float64(m.N)
		m.SelfNs /= float64(m.N)
		sums[name] = m
	}
	return sums
}

type spanMean struct {
	N      int
	DurNs  float64
	SelfNs float64
}
