// Package good holds the transport idioms ringrole must accept: matching
// role annotations on each side, the cross-ring pivot (a consumer-side
// pump calling a producer-annotated settle path), the racy-read Len from
// either side, and the full lossless park shape — Prepare, re-check,
// Unpark on the early exit, then the blocking receive.
package good

import "repro/internal/ring"

type pipe struct {
	q *ring.SPSC[int]
	l *ring.Lanes[int]
}

// produce is the producer side: publish, then wake the sweeper.
//
//countq:role=producer
func produce(p *pipe, v int) bool {
	ok := p.q.Push(v)
	if ok {
		p.l.Wake()
	}
	return ok
}

// sweep is the consumer's batched drain across every lane, skipped when
// no producer posted since the last one.
//
//countq:role=consumer
func sweep(p *pipe, buf []int) []int {
	if !p.l.Claim() {
		return buf
	}
	for _, lane := range p.l.Snapshot() {
		buf = lane.DrainTo(buf)
	}
	return buf
}

// pump parks losslessly: Prepare, re-check the lanes, Unpark on the
// early exit, and only then block on the wake channel.
//
//countq:role=consumer
func pump(p *pipe, buf []int) []int {
	for {
		buf = sweep(p, buf)
		if len(buf) > 0 {
			return buf
		}
		p.l.Prepare()
		buf = sweep(p, buf)
		if len(buf) > 0 {
			p.l.Unpark()
			return buf
		}
		select {
		case <-p.l.WakeChan():
		}
	}
}

// relayAcross pivots between rings: it consumes one ring and hands each
// value to the producer-annotated side of another — the annotated callee
// is a boundary, checked under its own role.
//
//countq:role=consumer
func relayAcross(p, out *pipe) {
	for {
		v, ok := p.q.Pop()
		if !ok {
			return
		}
		produce(out, v)
	}
}

// depth reads the racy length, legal from either side unannotated.
func depth(p *pipe) int { return p.q.Len() }

// orchestrate only calls annotated boundaries, so it needs no role of
// its own.
func orchestrate(p, out *pipe) {
	relayAcross(p, out)
}
