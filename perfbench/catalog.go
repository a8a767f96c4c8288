package main

// metricDef is one catalogued metric. Names are stable: later changes cite
// them, so a metric is never renamed, only added.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, per operation:
// one simulation, or one job on jobs-daemon. Printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"hops_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs", "count", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
}

// perLayer are the traced run's metrics, named <layer>.<metric>. Printed
// with --trace 1.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.events_per_hop", "ratio", "lower"},
	{"sim.heap_depth_mean", "count", "lower"},
	{"sim.heap_depth_max", "count", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.cpu_frac", "ratio", "lower"},
	{"sim.shard_event_skew", "ratio", "lower"},
	{"sim.shard_parallelism", "ratio", "higher"},
	{"fabric.hops", "count", "higher"},
	{"fabric.inflight_mean", "count", "lower"},
	{"fabric.inflight_max", "count", "lower"},
	{"fabric.leaked", "count", "lower"},
	{"fabric.drops", "count", "lower"},
	{"fabric.marks", "count", "lower"},
	{"fabric.cpu_frac", "ratio", "lower"},
	{"core.trims", "count", "lower"},
	{"core.bounces", "count", "lower"},
	{"core.trims_per_hop", "ratio", "lower"},
	{"core.cpu_frac", "ratio", "lower"},
	{"tcp.cpu_frac", "ratio", "lower"},
	{"topo.build_s", "s", "lower"},
	{"topo.cpu_frac", "ratio", "lower"},
	{"harness.start_flow_us", "us", "lower"},
	{"harness.start_flows", "count", "higher"},
	{"harness.close_s", "s", "lower"},
	{"workload.flows_launched", "count", "higher"},
	{"workload.flows_completed", "count", "higher"},
	{"workload.completion_ratio", "ratio", "higher"},
	{"scenario.build_s", "s", "lower"},
	{"scenario.merge_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.cpu_frac", "ratio", "lower"},
	{"simd.submit_ms", "ms", "lower"},
	{"simd.queue_wait_ms", "ms", "lower"},
	{"simd.run_ms", "ms", "lower"},
	{"simd.deliver_ms", "ms", "lower"},
	{"simd.cache_hit_ratio", "ratio", "higher"},
	{"simd.cache_hit_ms", "ms", "lower"},
	{"simd.refused", "count", "lower"},
	{"simd.heap_per_job_kb", "KB", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.cpu_samples", "count", "higher"},
	{"trace.unattributed_frac", "ratio", "lower"},
}
