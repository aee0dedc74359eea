package counting

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// BenchmarkOneShot prices the round engine per message on two one-shot legs
// of the benchmark's offline pass (bench/offline.go): central counting on a
// 256-node list, where every grant hop is a Router.NextHop and the root's
// receive capacity serializes the run, and the combining tree on a 16×16
// mesh. Each iteration builds the protocol on a BFS tree from node 0 and
// runs it to quiescence with every node requesting, as the leg does; ns/msg
// divides the time by the messages sent, so two builds of the engine can be
// compared in seconds:
//
//	go test -run '^$' -bench OneShot -count 6 ./internal/counting
func BenchmarkOneShot(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.Graph
		mk   func(*tree.Tree, []bool) (Protocol, error)
	}{
		{"central-list256", graph.Path(256), func(t *tree.Tree, req []bool) (Protocol, error) { return NewCentral(t, req) }},
		{"treecount-mesh16x16", graph.Mesh(16, 16), func(t *tree.Tree, req []bool) (Protocol, error) { return NewTreeCount(t, req) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			t, err := tree.BFSTree(bc.g, 0)
			if err != nil {
				b.Fatal(err)
			}
			req := reqAll(bc.g.N())
			msgs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := bc.mk(t, req)
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(bc.g, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.MessagesSent
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
		})
	}
}
