package main

import "fmt"

// perLayer is the ungated per-layer metric set of a traced run; bench_test.go
// holds BENCHMARK.json to this table. Units are fixed here so that set()
// cannot emit a metric the manifest does not know.
var perLayer = []metricDef{
	// internal/ring
	{Name: "ring.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.xfer_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.drain8_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "ring.park_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.lanes_snapshot64_ns", Unit: "ns", Better: "lower"},
	// internal/sim, the round engine
	{Name: "sim.step_star9_dense_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.step_star9_sparse_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.step_star33_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sim.step_list64_sparse_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.step_list64_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.step_jitter3_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.new_begin_list64_us", Unit: "us", Better: "lower"},
	// internal/sim, the bridge
	{Name: "bridge.transport_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.transport_inflight8_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.open_close_us", Unit: "us", Better: "lower"},
	{Name: "bridge.inc_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.wait_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.op_inflight_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.round_ns", Unit: "ns", Better: "lower"},
	{Name: "bridge.ops_per_round", Unit: "ops/round", Better: "higher"},
	// the protocols: one-shot cost per simulated message, live cost per op
	{Name: "arrow.oneshot_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "counting.treecount_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "counting.central_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "counting.countnet_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "live.star9_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "live.list64_counter_ns", Unit: "ns", Better: "lower"},
	{Name: "live.list64_queue_ns", Unit: "ns", Better: "lower"},
	{Name: "live.list64_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.central_live_self_ns", Unit: "ns", Better: "lower"},
	{Name: "arrow.live_self_ns", Unit: "ns", Better: "lower"},
	{Name: "counting.tree_live_self_ns", Unit: "ns", Better: "lower"},
	// internal/shm, called directly, no runner
	{Name: "shm.atomic_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.swap_enq_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.sharded_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.funnel_solo_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.funnel_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.diffracting_solo_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.diffracting_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.combining_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.async_funnel_inflight8_ns", Unit: "ns", Better: "lower"},
	{Name: "shm.elim_inflight8_ns", Unit: "ns", Better: "lower"},
	// countq: sessions, runner, validation, campaign
	{Name: "countq.session_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.session_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.runner_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.run_fixed_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "countq.validate_counts_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "countq.validate_order_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "countq.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.runner_over_bridge_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.campaign3_s", Unit: "s", Better: "lower"},
	{Name: "countq.expand_ns", Unit: "ns", Better: "lower"},
	{Name: "countq.run_ms", Unit: "ms", Better: "lower"},
	// the offline harness
	{Name: "core.quick_all_s", Unit: "s", Better: "lower"},
	{Name: "graph.build_mesh256_us", Unit: "us", Better: "lower"},
	{Name: "tree.bfs_mesh256_us", Unit: "us", Better: "lower"},
	{Name: "nntsp.greedy_list1024_us", Unit: "us", Better: "lower"},
	{Name: "offline.pass_us", Unit: "us", Better: "lower"},
	{Name: "offline.leg_us", Unit: "us", Better: "lower"},
	// cross-checks
	{Name: "paper.sep_rounds_list64", Unit: "x", Better: "higher"},
	{Name: "paper.sep_ns_list64", Unit: "x", Better: "higher"},
	{Name: "paper.sep_delay_list256", Unit: "x", Better: "higher"},
	{Name: "paper.sep_delay_star64", Unit: "x", Better: "higher"},
	{Name: "ladder.star9_sync_residual_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "host.spin_score", Unit: "Miter/s", Better: "higher"},
	// the traced workload's own set-up and tail
	{Name: "span.setup_us", Unit: "us", Better: "lower"},
	{Name: "span.new_structure_us", Unit: "us", Better: "lower"},
	{Name: "span.new_sessions_us", Unit: "us", Better: "lower"},
	{Name: "span.warmup_us", Unit: "us", Better: "lower"},
	{Name: "span.close_us", Unit: "us", Better: "lower"},
	{Name: "span.validate_us", Unit: "us", Better: "lower"},
	{Name: "tail.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "tail.samples", Unit: "count", Better: "higher"},
}

func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: per-layer metric " + name + " is not in the perLayer table")
}

// checkLayers reports a per-layer metric a traced run failed to produce.
func checkLayers(got map[string]metricValue) error {
	for _, d := range perLayer {
		if _, ok := got[d.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return nil
}

// layerMetrics is the per-layer set of one traced workload run: the
// ladder's readings, plus what the spans of the traced repeats and the pair
// of runs say about this workload. A span the workload never opens reads 0:
// it spends no time in that layer.
func layerMetrics(ladder map[string]metricValue, plain, traced result, spans []span) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for k, v := range ladder {
		out[k] = v
	}
	set := func(name string, v float64) { out[name] = metricValue{Value: v, Unit: layerUnit(name)} }
	means := spanMeans(spans)
	for metric, s := range map[string]struct {
		span  string
		scale float64
	}{
		"span.setup_us":         {"setup", 1e3},
		"span.new_structure_us": {"new_structure", 1e3},
		"span.new_sessions_us":  {"new_sessions", 1e3},
		"span.warmup_us":        {"warmup", 1e3},
		"span.close_us":         {"close", 1e3},
		"span.validate_us":      {"validate", 1e3},
		"bridge.inc_ns":         {"inc", 1},
		"bridge.submit_ns":      {"submit", 1},
		"bridge.wait_ns":        {"wait", 1},
		"countq.run_ms":         {"countq.Run", 1e6},
		"offline.pass_us":       {"pass", 1e3},
		"offline.leg_us":        {"leg", 1e3},
	} {
		set(metric, means[s.span].DurNs/s.scale)
	}
	set("bridge.op_inflight_ns", means["op"].SelfNs)
	ops, rounds := plain.Metrics["ops_per_s"].Value, plain.Metrics["rounds_per_op"].Value
	if bridged := means["inc"].N+means["op"].N > 0; bridged && ops > 0 && rounds > 0 {
		set("bridge.round_ns", 1e9/(ops*rounds))
		set("bridge.ops_per_round", 1/rounds)
	} else {
		set("bridge.round_ns", 0)
		set("bridge.ops_per_round", 0)
	}
	if t := traced.Metrics["ops_per_s"].Value; t > 0 {
		set("trace.overhead_frac", ops/t-1)
	} else {
		set("trace.overhead_frac", 0)
	}
	set("trace.spans", float64(len(spans)))
	for name, v := range plain.Tail {
		set(name, v.Value)
	}
	return out
}
