package counting

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tree"
)

// CountNet embeds a bitonic counting network on the communication graph:
// each balancer is hosted by a node, tokens travel hop-by-hop over a
// spanning tree between consecutive balancer hosts, and the host of each
// final-layer balancer assigns counts for its output wires using the
// standard rule count = logical-output-index + width·(tokens already out).
//
// A requester injects a token on input wire (origin mod width) — a locally
// computable assignment — and its delay is the round in which the grant
// carrying its count arrives back.
type CountNet struct {
	tree      *tree.Tree
	router    *tree.Router
	net       *BalancerNetwork
	requests  []bool
	shortcuts bool

	hosts      [][]int // hosts[layer][balancer index in layer]
	balAtWire  [][]int // balAtWire[layer][wire] = balancer index in layer
	toggle     [][]bool
	exitHostOf []int // per physical wire
	exited     []int // per physical wire, tokens already counted out
	logical    []int // physical wire → logical output index

	count []int
	delay []int
}

// HostFn assigns a host node to the balancer at (layer, index). The global
// sequence number g counts balancers in construction order.
type HostFn func(layer, index, global, n int) int

// RoundRobinHosts spreads balancers over nodes in construction order — the
// default embedding.
func RoundRobinHosts(layer, index, global, n int) int { return global % n }

// WithShortcuts makes tokens and grants take a direct graph edge to their
// destination whenever one exists, falling back to spanning-tree routing
// otherwise. On the complete graph this gives the counting network its
// fairest treatment (every hop is one round, as in the Wattenhofer–
// Widmayer setting, reference [11]); on sparse graphs it is a no-op for
// most hops.
func (cn *CountNet) WithShortcuts() *CountNet {
	cn.shortcuts = true
	return cn
}

// hop returns the next node on the way from node to target.
func (cn *CountNet) hop(env *sim.Env, node, target int) int {
	if cn.shortcuts && env.Graph().HasEdge(node, target) {
		return target
	}
	return cn.router.NextHop(node, target)
}

// NewCountNet prepares a bitonic counting-network run of the given width on
// spanning tree t. Width must be a power of two; hosts may be nil for the
// round-robin default. Width 1 degenerates to a central counter at the
// tree root.
func NewCountNet(t *tree.Tree, requests []bool, width int, hosts HostFn) (*CountNet, error) {
	net, err := Bitonic(width)
	if err != nil {
		return nil, err
	}
	return NewCountNetFrom(t, requests, net, hosts)
}

// NewCountNetFrom embeds an arbitrary balancer network (bitonic, periodic,
// or custom) on spanning tree t. The network must satisfy the step property
// for the run to validate.
func NewCountNetFrom(t *tree.Tree, requests []bool, net *BalancerNetwork, hosts HostFn) (*CountNet, error) {
	n := t.N()
	width := net.Width
	if len(requests) != n {
		return nil, fmt.Errorf("counting: request vector has %d entries, want %d", len(requests), n)
	}
	if hosts == nil {
		hosts = RoundRobinHosts
	}
	cn := &CountNet{
		tree:       t,
		router:     t.Router(),
		net:        net,
		requests:   append([]bool(nil), requests...),
		hosts:      make([][]int, net.Depth()),
		balAtWire:  make([][]int, net.Depth()),
		toggle:     make([][]bool, net.Depth()),
		exitHostOf: make([]int, width),
		exited:     make([]int, width),
		logical:    make([]int, width),
		count:      make([]int, n),
		delay:      make([]int, n),
	}
	for i := range cn.delay {
		cn.delay[i] = -1
	}
	global := 0
	for li, layer := range net.Layers {
		cn.hosts[li] = make([]int, len(layer))
		cn.toggle[li] = make([]bool, len(layer))
		cn.balAtWire[li] = make([]int, width)
		for w := range cn.balAtWire[li] {
			cn.balAtWire[li][w] = -1
		}
		for bi, b := range layer {
			h := hosts(li, bi, global, n)
			if h < 0 || h >= n {
				return nil, fmt.Errorf("counting: host %d out of range", h)
			}
			cn.hosts[li][bi] = h
			cn.balAtWire[li][b.Top] = bi
			cn.balAtWire[li][b.Bottom] = bi
			global++
		}
	}
	for w := 0; w < width; w++ {
		cn.exitHostOf[w] = t.Root() // default (width 1, or untouched wire)
		for li := net.Depth() - 1; li >= 0; li-- {
			if bi := cn.balAtWire[li][w]; bi >= 0 {
				cn.exitHostOf[w] = cn.hosts[li][bi]
				break
			}
		}
	}
	for li, w := range net.OutPerm {
		cn.logical[w] = li
	}
	return cn, nil
}

// Width reports the network width.
func (cn *CountNet) Width() int { return cn.net.Width }

// Depth reports the number of balancer layers.
func (cn *CountNet) Depth() int { return cn.net.Depth() }

// Start injects node's token on its input wire.
func (cn *CountNet) Start(env *sim.Env, node int) {
	if !cn.requests[node] {
		return
	}
	cn.advance(env, node, node, 0, node%cn.net.Width)
}

// advance pushes origin's token through balancers hosted at node until it
// either completes or must travel to another host.
func (cn *CountNet) advance(env *sim.Env, node, origin, layer, wire int) {
	for {
		if layer == cn.net.Depth() {
			h := cn.exitHostOf[wire]
			if node != h {
				cn.forwardToken(env, node, origin, layer, wire, h)
				return
			}
			cn.exited[wire]++
			count := cn.logical[wire] + cn.net.Width*(cn.exited[wire]-1) + 1
			if origin == node {
				cn.count[origin] = count
				cn.delay[origin] = env.Round()
				return
			}
			env.Send(node, cn.hop(env, node, origin), sim.Message{Kind: kindGrant, A: origin, B: count})
			return
		}
		bi := cn.balAtWire[layer][wire]
		if bi < 0 {
			layer++ // wire untouched in this layer
			continue
		}
		h := cn.hosts[layer][bi]
		if node != h {
			cn.forwardToken(env, node, origin, layer, wire, h)
			return
		}
		b := cn.net.Layers[layer][bi]
		if !cn.toggle[layer][bi] {
			wire = b.Top
		} else {
			wire = b.Bottom
		}
		cn.toggle[layer][bi] = !cn.toggle[layer][bi]
		layer++
	}
}

// forwardToken sends the token one hop toward its next host.
func (cn *CountNet) forwardToken(env *sim.Env, node, origin, layer, wire, host int) {
	env.Send(node, cn.hop(env, node, host), sim.Message{Kind: kindToken, A: origin, B: layer, C: wire})
}

// Deliver routes tokens between hosts and grants back to origins.
func (cn *CountNet) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindToken:
		layer, wire := m.B, m.C
		var target int
		if layer == cn.net.Depth() {
			target = cn.exitHostOf[wire]
		} else {
			target = cn.hosts[layer][cn.balAtWire[layer][wire]]
		}
		if node != target {
			cn.forwardToken(env, node, m.A, layer, wire, target)
			return
		}
		cn.advance(env, node, m.A, layer, wire)
	case kindGrant:
		if node != m.A {
			env.Send(node, cn.hop(env, node, m.A), m)
			return
		}
		cn.count[node] = m.B
		cn.delay[node] = env.Round()
	default:
		env.Fail(fmt.Errorf("counting: network got unexpected kind %d", m.Kind))
	}
}

// Count implements Results.
func (cn *CountNet) Count(v int) int { return cn.count[v] }

// Delay implements Results.
func (cn *CountNet) Delay(v int) int { return cn.delay[v] }

// Requests implements Results.
func (cn *CountNet) Requests() []bool { return cn.requests }
