package main

// metricDef declares one metric: its name, unit, which direction is
// better and — for end-to-end metrics — the share of the parent's
// median by which it may worsen before a change counts as a
// regression. BENCHMARK.json repeats these (a test keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics every workload reports from its untraced
// run. README.md says what each means on each workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "decisions_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "place_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "place_p95_us", unit: "us", better: "lower", bound: 0.25},
	{name: "task_s", unit: "s", better: "lower", bound: 0.25},
	{name: "active_pms", unit: "count", better: "lower", bound: 0.05},
	{name: "energy_kwh", unit: "kWh", better: "lower", bound: 0.05},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
}

// perLayer lists the metrics every workload reports from its traced
// run; a layer a workload does not touch reports 0.
var perLayer = []metricDef{
	{name: "resource.fits_ns", unit: "ns", better: "lower"},

	{name: "lattice.build_ms", unit: "ms", better: "lower"},
	{name: "lattice.nodes", unit: "count", better: "lower"},
	{name: "lattice.edges", unit: "count", better: "lower"},

	{name: "pagerank.absorb_ms", unit: "ms", better: "lower"},
	{name: "pagerank.ranks_ms", unit: "ms", better: "lower"},
	{name: "pagerank.iterations", unit: "count", better: "lower"},

	{name: "ranktable.build_ms", unit: "ms", better: "lower"},
	{name: "ranktable.self_ms", unit: "ms", better: "lower"},
	{name: "ranktable.cache_hit_ns", unit: "ns", better: "lower"},
	{name: "ranktable.cache_misses", unit: "count", better: "lower"},
	{name: "ranktable.lookup_ns", unit: "ns", better: "lower"},
	{name: "ranktable.table_mb", unit: "MB", better: "lower"},

	{name: "placement.place_us", unit: "us", better: "lower"},
	{name: "placement.place_p99_us", unit: "us", better: "lower"},
	{name: "placement.used_pms", unit: "count", better: "lower"},
	{name: "placement.ns_per_used_pm", unit: "ns", better: "lower"},
	{name: "placement.pms_scanned_per_place", unit: "count", better: "lower"},
	{name: "placement.ties_per_place", unit: "count", better: "lower"},
	{name: "placement.host_ns", unit: "ns", better: "lower"},
	{name: "placement.release_ns", unit: "ns", better: "lower"},
	{name: "placement.score_on_ns", unit: "ns", better: "lower"},
	{name: "placement.no_capacity", unit: "count", better: "lower"},

	{name: "deschedule.round_ms", unit: "ms", better: "lower"},
	{name: "deschedule.rounds", unit: "count", better: "lower"},
	{name: "deschedule.moves", unit: "count", better: "lower"},
	{name: "deschedule.scanned_per_move", unit: "count", better: "lower"},
	{name: "deschedule.pms_freed", unit: "count", better: "higher"},

	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.place_s", unit: "s", better: "lower"},
	{name: "sim.evict_s", unit: "s", better: "lower"},
	{name: "sim.self_s", unit: "s", better: "lower"},
	{name: "sim.placements", unit: "count", better: "lower"},
	{name: "sim.migrations", unit: "count", better: "lower"},
	{name: "sim.slo_violation_pct", unit: "%", better: "lower"},
	{name: "sim.vm_steps_per_s", unit: "1/s", better: "higher"},
	{name: "experiments.gen_workloads_ms", unit: "ms", better: "lower"},

	{name: "record.op_ns", unit: "ns", better: "lower"},
	{name: "record.flush_us", unit: "us", better: "lower"},
	{name: "record.sync_us", unit: "us", better: "lower"},
	{name: "record.bytes_per_op", unit: "B", better: "lower"},
	{name: "record.read_ops_per_s", unit: "1/s", better: "higher"},

	{name: "serve.handler_place_us", unit: "us", better: "lower"},
	{name: "serve.handler_release_us", unit: "us", better: "lower"},
	{name: "serve.nowal_place_us", unit: "us", better: "lower"},
	{name: "serve.wal_us", unit: "us", better: "lower"},
	{name: "serve.loopback_place_us", unit: "us", better: "lower"},
	{name: "serve.http_us", unit: "us", better: "lower"},
	{name: "serve.unattributed_us", unit: "us", better: "lower"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher"},
	{name: "serve.forwards", unit: "count", better: "lower"},
	{name: "serve.used_pms_per_shard", unit: "count", better: "lower"},
	{name: "serve.cluster_get_ms", unit: "ms", better: "lower"},
	{name: "serve.place_p99_us", unit: "us", better: "lower"},
	{name: "serve.release_p50_us", unit: "us", better: "lower"},
	{name: "serve.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "serve.snapshot_ms", unit: "ms", better: "lower"},
	{name: "serve.snapshots", unit: "count", better: "lower"},
	{name: "serve.recover_snapshot_ms", unit: "ms", better: "lower"},
	{name: "serve.replay_ops_per_s", unit: "1/s", better: "higher"},

	{name: "loadgen.client_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
