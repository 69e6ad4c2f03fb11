package main

// layerMetric is one per-layer metric of the traced run. A layer that a
// workload does not exercise reports 0 there (no calls, no time).
type layerMetric struct {
	name, unit string
}

// perLayer lists the traced run's metrics in BENCHMARK.json order. The
// comment on each group names the end-to-end metric it should move.
var perLayer = []layerMetric{
	// runner (batch pool) -> wall_s on sim-*
	{"runner.busy_frac", "frac"},
	{"runner.longest_job_s", "s"},
	// sim (engine) -> wall_s on sim-sweep; sim.refs is a sanity count
	{"sim.refs", "count"},
	{"sim.self_ns_per_ref", "ns"},
	// workload (generators) -> wall_s on sim-*
	{"workload.next_ns", "ns"},
	{"workload.next_calls", "count"},
	// hierarchy (L1/L2/L3, cache, acfv, presence index) -> wall_s on
	// sim-sweep; the served shares are a check a speed-only change must
	// not move
	{"hierarchy.access_ns", "ns"},
	{"hierarchy.served_l1_frac", "frac"},
	{"hierarchy.served_l2_frac", "frac"},
	{"hierarchy.served_l3_frac", "frac"},
	{"hierarchy.served_c2c_frac", "frac"},
	{"hierarchy.served_mem_frac", "frac"},
	// core (controller) -> wall_s on sim-sweep
	{"core.end_epoch_us", "us"},
	{"core.reconfigs", "count"},
	// baselines -> wall_s on sim-sweep
	{"baselines.pipp_access_ns", "ns"},
	{"baselines.dsr_access_ns", "ns"},
	// sampled -> wall_s and accuracy on sim-windowed
	{"sampled.simulated_epoch_frac", "frac"},
	{"sampled.phases", "count"},
	{"sampled.err_pct", "%"},
	// bandit -> wall_s on sim-windowed
	{"bandit.windows", "count"},
	{"bandit.switches", "count"},
	// HTTP layer -> op_p50_us, op_p90_us and wall_s on serve-*
	{"http.handler_us_p50", "us"},
	{"http.handler_us_p99", "us"},
	{"http.outside_us_p50", "us"},
	{"http.allocs_per_req", "count"},
	// serve (cache library) -> op_p50_us on serve-*
	{"serve.get_ns", "ns"},
	{"serve.set_ns", "ns"},
	{"serve.delete_ns", "ns"},
	{"serve.end_epoch_quiet_us", "us"},
	{"serve.end_epoch_reconfig_ms", "ms"},
	{"serve.repartitions", "count"},
	{"serve.evictions", "count"},
	{"serve.collisions", "count"},
	{"serve.hit_ratio", "frac"},
	// wal -> op_p50_us and op_p90_us on serve-write
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.segments", "count"},
	// traced wall_s / untraced wall_s of the same workload
	{"trace.wall_ratio", "ratio"},
}

var perLayerNames = func() []string {
	out := make([]string, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.name
	}
	return out
}()

// zeroLayers returns a per-layer map with every metric at 0, for a
// repetition to fill in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}
