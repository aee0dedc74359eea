package sim

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// relayProto forwards a single token along a path and records when each node
// receives it, and, when sentRound is set, the round Env.SentAt reports.
type relayProto struct {
	recvRound []int
	sentRound []int
}

func (p *relayProto) Start(env *Env, node int) {
	if node == 0 && env.N() > 1 {
		env.Send(0, 1, Message{Kind: 1})
	}
	p.recvRound[0] = 0
}

func (p *relayProto) Deliver(env *Env, node int, m Message) {
	p.recvRound[node] = env.Round()
	if p.sentRound != nil {
		p.sentRound[node] = env.SentAt(node)
	}
	if node+1 < env.N() {
		env.Send(node, node+1, m)
	}
}

func TestRelaySpeedOneHopPerRound(t *testing.T) {
	n := 10
	p := &relayProto{recvRound: make([]int, n)}
	nw := New(Config{Graph: graph.Path(n)}, p)
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		if p.recvRound[v] != v {
			t.Errorf("node %d received at round %d, want %d", v, p.recvRound[v], v)
		}
	}
	if stats.MessagesSent != n-1 {
		t.Errorf("messages sent = %d, want %d", stats.MessagesSent, n-1)
	}
	if stats.Rounds != n-1 {
		t.Errorf("rounds = %d, want %d", stats.Rounds, n-1)
	}
	if stats.MaxInboxBacklog != 0 || stats.MaxOutboxBacklog != 0 {
		t.Errorf("relay should have no backlog: %+v", stats)
	}
}

// fanInProto has every leaf of a star send one message to the center, which
// records arrival rounds and the rounds Env.SentAt reports.
type fanInProto struct {
	arrivals []int
	sentAt   []int
}

func (p *fanInProto) Start(env *Env, node int) {
	if node != 0 {
		env.Send(node, 0, Message{Kind: 2, A: node})
	}
}

func (p *fanInProto) Deliver(env *Env, node int, m Message) {
	if node == 0 {
		p.arrivals = append(p.arrivals, env.Round())
		p.sentAt = append(p.sentAt, env.SentAt(node))
	}
}

func TestFanInContentionSerializes(t *testing.T) {
	n := 9 // 8 senders
	p := &fanInProto{}
	nw := New(Config{Graph: graph.Star(n)}, p)
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.arrivals) != n-1 {
		t.Fatalf("center received %d messages, want %d", len(p.arrivals), n-1)
	}
	// The receive capacity is 1/round, so the i-th message (1-based) is
	// processed in round i.
	for i, r := range p.arrivals {
		if r != i+1 {
			t.Errorf("message %d processed at round %d, want %d", i, r, i+1)
		}
	}
	if stats.MaxInboxBacklog != n-2 {
		t.Errorf("max inbox backlog = %d, want %d", stats.MaxInboxBacklog, n-2)
	}
}

func TestFanInWithCapacityNoBacklog(t *testing.T) {
	n := 9
	p := &fanInProto{}
	nw := New(Config{Graph: graph.Star(n), Capacity: n - 1}, p)
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.arrivals {
		if r != 1 {
			t.Errorf("with capacity %d all messages should arrive in round 1, got %d", n-1, r)
		}
	}
	if stats.MaxInboxBacklog != 0 {
		t.Errorf("backlog = %d, want 0", stats.MaxInboxBacklog)
	}
}

func TestStrictModeRejectsContention(t *testing.T) {
	p := &fanInProto{}
	nw := New(Config{Graph: graph.Star(4), Strict: true}, p)
	if _, err := nw.Run(); err == nil || !strings.Contains(err.Error(), "strict violation") {
		t.Errorf("strict run error = %v, want strict violation", err)
	}
}

// echoProto: node 0 pings node 1, node 1 replies.
type echoProto struct {
	replyRound int
}

func (p *echoProto) Start(env *Env, node int) {
	if node == 0 {
		env.Send(0, 1, Message{Kind: 1})
	}
}

func (p *echoProto) Deliver(env *Env, node int, m Message) {
	switch node {
	case 1:
		env.Send(1, 0, Message{Kind: 2})
	case 0:
		p.replyRound = env.Round()
	}
}

func TestEchoRoundTrip(t *testing.T) {
	p := &echoProto{}
	nw := New(Config{Graph: graph.Path(2)}, p)
	if _, err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if p.replyRound != 2 {
		t.Errorf("round trip = %d rounds, want 2", p.replyRound)
	}
}

// silentProto sends nothing; the network must be immediately quiescent.
type silentProto struct{}

func (silentProto) Start(*Env, int)            {}
func (silentProto) Deliver(*Env, int, Message) {}

func TestQuiescentImmediately(t *testing.T) {
	nw := New(Config{Graph: graph.Ring(5)}, silentProto{})
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.MessagesSent != 0 {
		t.Errorf("silent run: %+v", stats)
	}
}

// pingPongProto bounces a message forever between nodes 0 and 1.
type pingPongProto struct{}

func (pingPongProto) Start(env *Env, node int) {
	if node == 0 {
		env.Send(0, 1, Message{})
	}
}

func (pingPongProto) Deliver(env *Env, node int, m Message) {
	env.Send(node, m.From, Message{})
}

func TestRoundBound(t *testing.T) {
	nw := New(Config{Graph: graph.Path(2), MaxRounds: 10}, pingPongProto{})
	if _, err := nw.Run(); err == nil || !strings.Contains(err.Error(), "round bound") {
		t.Errorf("error = %v, want round bound", err)
	}
}

func TestSendOverNonEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("send over non-edge did not panic")
		}
	}()
	nw := New(Config{Graph: graph.Path(3)}, silentProto{})
	nw.Env().Send(0, 2, Message{})
}

// tickerProto counts ticks on node 0 while a relay is in flight.
type tickerProto struct {
	relayProto
	ticks int
}

func (p *tickerProto) Tick(env *Env, node int) {
	if node == 0 {
		p.ticks++
	}
}

func TestTickerRunsEveryRound(t *testing.T) {
	n := 6
	p := &tickerProto{relayProto: relayProto{recvRound: make([]int, n)}}
	nw := New(Config{Graph: graph.Path(n)}, p)
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.ticks != stats.Rounds {
		t.Errorf("ticks = %d, rounds = %d", p.ticks, stats.Rounds)
	}
}

// outboxProto sends many messages from one node in a single round.
type outboxProto struct {
	sent int
}

func (p *outboxProto) Start(env *Env, node int) {
	if node == 0 {
		for _, w := range env.Graph().Neighbors(0) {
			env.Send(0, w, Message{})
		}
	}
}

func (p *outboxProto) Deliver(env *Env, node int, m Message) { p.sent++ }

func TestOutboxSerializes(t *testing.T) {
	// Node 0 of a star enqueues 7 sends at once; with capacity 1 they
	// trickle out one per round.
	p := &outboxProto{}
	nw := New(Config{Graph: graph.Star(8)}, p)
	stats, err := nw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.sent != 7 {
		t.Errorf("delivered %d, want 7", p.sent)
	}
	if stats.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", stats.Rounds)
	}
	if stats.MaxOutboxBacklog != 6 {
		t.Errorf("max outbox backlog = %d, want 6", stats.MaxOutboxBacklog)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]int, Stats) {
		p := &fanInProto{}
		nw := New(Config{Graph: graph.Star(12)}, p)
		stats, err := nw.Run()
		if err != nil {
			t.Fatal(err)
		}
		return p.arrivals, stats
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1.Rounds != s2.Rounds || s1.MessagesSent != s2.MessagesSent ||
		s1.MaxInboxBacklog != s2.MaxInboxBacklog || s1.MaxOutboxBacklog != s2.MaxOutboxBacklog {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival orders differ at %d", i)
		}
	}
}

func TestMessageSentAt(t *testing.T) {
	// Unit delay, fan-in: the hub takes one message a round, so it sees them
	// in rounds 1, 2, 3, … — every one of them sent in round 0.
	const leaves = 8
	fan := &fanInProto{}
	if _, err := New(Config{Graph: graph.Star(leaves + 1)}, fan).Run(); err != nil {
		t.Fatal(err)
	}
	if len(fan.arrivals) != leaves {
		t.Fatalf("hub received %d messages, want %d", len(fan.arrivals), leaves)
	}
	for i, r := range fan.arrivals {
		if r != i+1 || fan.sentAt[i] != 0 {
			t.Errorf("hub delivery %d: round %d, sent in %d; want round %d, sent in 0", i, r, fan.sentAt[i], i+1)
		}
	}

	// Jitter: one message relayed up a path, so the k-th send crosses link
	// (k, k+1) with sequence number k and nothing to clamp it. It was sent
	// when node k received it, and its flight is exactly the model's delay.
	const n = 12
	jitter := JitterDelay{Seed: 3, Max: 4}
	relay := &relayProto{recvRound: make([]int, n), sentRound: make([]int, n)}
	if _, err := New(Config{Graph: graph.Path(n), Delay: jitter}, relay).Run(); err != nil {
		t.Fatal(err)
	}
	late := 0
	for v := 1; v < n; v++ {
		arrived, sent := relay.recvRound[v], relay.sentRound[v]
		wantSent := relay.recvRound[v-1] // 0 for node 0, which sends at Start
		if sent != wantSent {
			t.Errorf("node %d: sent in round %d, want %d (when node %d received it)", v, sent, wantSent, v-1)
		}
		if d := jitter.Delay(v-1, v, v-1); arrived-sent != d {
			t.Errorf("node %d: arrived %d, sent %d; want a flight of %d rounds", v, arrived, sent, d)
		}
		if arrived-sent > 1 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("every flight took one round: the jitter case checks nothing a unit delay would not")
	}
}
