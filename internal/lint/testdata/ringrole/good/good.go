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
	if lanes, _ := p.l.Claim(); !lanes {
		return buf
	}
	for _, lane := range p.l.Snapshot() {
		buf = lane.DrainTo(buf)
	}
	return buf
}

// call is a request/reply round trip over two mailboxes: the client is
// the request's producer (ask) and the reply's consumer (this function),
// and waits for its own sequence with the lossless park shape; Taken is
// legal from either side.
//
//countq:role=consumer
func call(c *client, seq uint64, v int) int {
	for c.req.Taken() < seq-1 {
	}
	ask(c, seq, v)
	for {
		if r, ok := c.reply.Read(seq); ok {
			return r
		}
		c.ev.Prepare()
		if r, ok := c.reply.Read(seq); ok {
			c.ev.Unpark()
			return r
		}
		<-c.ev.WakeChan()
	}
}

type client struct {
	req, reply *ring.Mailbox[int]
	l          *ring.Lanes[int]
	ev         ring.Event
}

// ask posts the request and marks the mailbox set posted.
//
//countq:role=producer
func ask(c *client, seq uint64, v int) {
	c.req.Post(seq, v)
	c.l.WakeMailbox()
}

// serve is the other end: it takes requests from every registered
// mailbox once a Claim reports them, and answers through the
// producer-annotated reply path.
//
//countq:role=consumer
func serve(c *client) {
	if _, boxes := c.l.Claim(); !boxes {
		return
	}
	for _, box := range c.l.Mailboxes() {
		if seq, v, ok := box.Take(); ok {
			answer(c, seq, 2*v)
		}
	}
}

// answer posts a reply and wakes the parked client.
//
//countq:role=producer
func answer(c *client, seq uint64, v int) {
	c.reply.Post(seq, v)
	c.ev.Wake()
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
