package sim_test

import (
	"context"
	"testing"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// grantAtIssue grants every operation inside Issue and routes no message,
// so a round trip through it is the bridge transport alone.
type grantAtIssue struct {
	grants sim.Grants
	next   int64
}

func (p *grantAtIssue) Start(*sim.Env, int)                {}
func (p *grantAtIssue) Deliver(*sim.Env, int, sim.Message) {}
func (p *grantAtIssue) Issue(env *sim.Env, node, token int, op countq.Op) {
	p.next++
	p.grants.Grant(token, p.next)
}

func newGrantAtIssue(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	return &grantAtIssue{grants: grants}, nil
}

// BenchmarkSyncRoundTrip prices one synchronous Inc from one session on a
// free-running 9-node star with the benchmark's pipeline depth:
// grant-at-issue is the transport alone (request mailbox, pump sweep,
// reply mailbox, spin), central adds the paper's two rounds and two
// messages per operation.
func BenchmarkSyncRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name  string
		proto sim.ProtoMaker
	}{
		{"grant-at-issue", newGrantAtIssue},
		{"central", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			br, err := sim.NewBridge(sim.BridgeConfig{Topo: "star", Nodes: 9, Pipeline: 16, Proto: bc.proto})
			if err != nil {
				b.Fatal(err)
			}
			defer br.Close()
			sess, err := br.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			for i := 0; i < 1000; i++ {
				if _, err := sess.Inc(ctx); err != nil {
					b.Fatal(err)
				}
			}
			r0, m0 := br.SimStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Inc(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			r1, m1 := br.SimStats()
			b.ReportMetric(float64(r1-r0)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(m1-m0)/float64(b.N), "msgs/op")
		})
	}
}
