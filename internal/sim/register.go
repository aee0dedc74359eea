package sim

import (
	"time"

	"repro/countq"
)

// The bridge structures register with the public countq registry v3, so
// the message-passing protocols run under the same scenario engine,
// validation pass and campaign comparisons as the shared-memory zoo:
//
//	countq compare "sharded?shards=8,sim-counter?hoplat=1us" -scenario "ramp?gmax=8"
//
// Their coordination round is a routed message round trip, not a
// synchronous call, so they have no direct-call Counter/Queuer view and
// are driven exclusively through sessions (which is the point: this
// backend is expressible only in the session API).
//
// This file registers the central-protocol bridges; the distributed
// protocols register their own specs (sim-arrow-queue in internal/arrow,
// sim-tree-counter in internal/counting) through RegisterBridge.
func init() {
	RegisterBridge("sim-counter",
		"central counting over the simulated message-passing network (requests route to the root, grants route back; hop latency and root capacity are the coordination cost)",
		countq.KindCounter, countq.CapBatch|countq.CapAsync, nil)
	RegisterBridge("sim-queue",
		"central queuing over the simulated message-passing network (the root remembers the tail and hands each request its predecessor)",
		countq.KindQueue, countq.CapAsync, nil)
}

// RegisterBridge registers a sim-* structure: a bridge of the given kind
// routing the protocol proto builds (nil selects the central protocol),
// under the option vocabulary every bridge shares so `countq ls` reads
// uniformly.
func RegisterBridge(name, summary string, kinds countq.Kind, caps countq.Caps, proto ProtoMaker) {
	countq.RegisterStructure(countq.StructureInfo{
		Name:         name,
		Summary:      summary,
		Kinds:        kinds,
		Linearizable: true,
		Params: []countq.ParamInfo{
			{Name: "hoplat", Default: "1us", Doc: "wall-clock cost of one simulated round (one message hop); 0 = free-running"},
			{Name: "nodes", Default: "9", Doc: "network size (root + leaves; sessions pin round-robin to non-root nodes)"},
			{Name: "topo", Default: "star", Doc: "topology: star (hub contention) | list (diameter) | mesh2d"},
			{Name: "cap", Default: "1", Doc: "per-node per-round send/receive capacity — the paper's c"},
			{Name: "jitter", Default: "0", Doc: "max per-message link delay in rounds (0 = deterministic unit delay)"},
			{Name: "seed", Default: "1", Doc: "seed for the jitter delay model (ignored when jitter=0)"},
			{Name: "pipeline", Default: "1024", Doc: "per-session transport depth: submit-lane capacity, completion buffer and outstanding-operation bound"},
		},
		Caps: caps,
		New: func(o countq.Options) (countq.Structure, error) {
			cfg := BridgeConfig{
				Topo:     o.String("topo", "star"),
				Nodes:    o.Int("nodes", 0),
				HopLat:   o.Duration("hoplat", time.Microsecond),
				Capacity: o.Int("cap", 0),
				Pipeline: o.Int("pipeline", 0),
				Queue:    kinds == countq.KindQueue,
				Proto:    proto,
			}
			seed := o.Int("seed", 1)
			if jitter := o.Int("jitter", 0); jitter > 0 {
				cfg.Delay = JitterDelay{Seed: int64(seed), Max: jitter}
			}
			if err := o.Err(); err != nil {
				return nil, err
			}
			return NewBridge(cfg)
		},
	})
}
