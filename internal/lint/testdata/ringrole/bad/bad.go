// Package bad seeds one violation of every rule the ringrole analyzer
// enforces: unannotated reachability (direct, transitive, and through an
// interface call), mixed-role access, annotations contradicted directly
// and transitively, dead and malformed and misplaced directives, and both
// park-discipline violations. Everything typechecks and races only under
// schedules -race may never produce — vet and staticcheck accept all of
// it.
package bad

import "repro/internal/ring"

type queues struct {
	in *ring.SPSC[int]
	l  *ring.Lanes[int]
}

// pushLoose calls a producer-only method with no role declaration.
func pushLoose(q *queues) {
	q.in.Push(1) // want "pushLoose reaches the producer-only ring method ring.SPSC.Push but carries no //countq:role annotation"
}

// pushOuter reaches the same primitive only through an unannotated
// callee; the finding lands on the declaration.
func pushOuter(q *queues) { // want "pushOuter reaches the producer-only ring method ring.SPSC.Push but carries no //countq:role annotation"
	pushLoose(q)
}

// mixed touches both cursors of one ring from a single function.
func mixed(q *queues) { // want "mixed reaches both producer-only \\(ring.SPSC.Push\\) and consumer-only \\(ring.SPSC.Pop\\) ring methods with no //countq:role annotation"
	q.in.Push(1)
	q.in.Pop()
}

// wrongSide declares the consumer side but pushes.
//
//countq:role=consumer
func wrongSide(q *queues) {
	q.in.Pop()
	q.in.Push(9) // want "wrongSide is annotated //countq:role=consumer but calls the producer-only method ring.SPSC.Push"
}

// claimer declares producer but clears the lanes' posted mark, which
// only the one sweeping consumer may do.
//
//countq:role=producer
func claimer(q *queues) bool {
	q.in.Push(1)
	lanes, _ := q.l.Claim() // want "claimer is annotated //countq:role=producer but calls the consumer-only method ring.Lanes.Claim"
	return lanes
}

// replyLoose posts to a mailbox with no role declaration.
func replyLoose(m *ring.Mailbox[int]) {
	m.Post(1, 7) // want "replyLoose reaches the producer-only ring method ring.Mailbox.Post but carries no //countq:role annotation"
}

// echo declares the producer side of a mailbox but takes from it too:
// a second consumer beside the one that owns Take.
//
//countq:role=producer
func echo(m *ring.Mailbox[int], l *ring.Lanes[int]) {
	m.Post(2, 8)
	l.WakeMailbox()
	m.Take() // want "echo is annotated //countq:role=producer but calls the consumer-only method ring.Mailbox.Take"
}

// peekReply reads a reply from the producer side.
//
//countq:role=producer
func peekReply(m *ring.Mailbox[int]) int {
	m.Post(3, 9)
	v, _ := m.Read(3) // want "peekReply is annotated //countq:role=producer but calls the consumer-only method ring.Mailbox.Read"
	return v
}

// relay declares producer but reaches Pop through an unannotated helper.
//
//countq:role=producer
func relay(q *queues) { // want "relay is annotated //countq:role=producer but reaches the consumer-only method ring.SPSC.Pop through unannotated callees"
	popHelper(q)
}

func popHelper(q *queues) {
	q.in.Pop() // want "popHelper reaches the consumer-only ring method ring.SPSC.Pop but carries no //countq:role annotation"
}

// idle carries a role but never touches a ring.
//
//countq:role=producer
func idle() { // want "idle carries //countq:role=producer but reaches no ring producer/consumer method"
}

// confused uses a role the grammar does not know.
//
//countq:role=driver
func confused(q *queues) { // want "confused: unknown //countq:role value \"driver\" \\(want producer or consumer\\)"
	q.in.Push(1)
}

// scratch hides the directive where it binds to nothing.
func scratch() {
	//countq:role=producer want "misplaced //countq:role: the directive must be in a function's doc comment"
}

// feeder erases the concrete producer behind an interface; CHA resolves
// the call back to it.
type feeder interface{ feed(int) }

type ringFeeder struct{ r *ring.SPSC[int] }

func (f *ringFeeder) feed(v int) {
	f.r.Push(v) // want "feed reaches the producer-only ring method ring.SPSC.Push but carries no //countq:role annotation"
}

func drive(fs feeder) { // want "drive reaches the producer-only ring method ring.SPSC.Push but carries no //countq:role annotation"
	fs.feed(1)
}

// parkNoPrepare blocks on the wake channel without ever setting the
// parked flag — Wake's CAS fails and the signal is skipped.
//
//countq:role=consumer
func parkNoPrepare(q *queues) {
	<-q.l.WakeChan() // want "parkNoPrepare parks on WakeChan with no preceding Prepare call"
}

// parkViaBinding does the same through a bound channel variable.
//
//countq:role=consumer
func parkViaBinding(q *queues) {
	ch := q.l.WakeChan()
	<-ch // want "parkViaBinding parks on WakeChan with no preceding Prepare call"
}

// parkNoRecheck sets the flag but skips the mandatory re-check, so work
// published just before Prepare is slept through.
//
//countq:role=consumer
func parkNoRecheck(q *queues) {
	q.l.Prepare()
	<-q.l.WakeChan() // want "parkNoRecheck parks on WakeChan immediately after Prepare with no re-check between"
}
