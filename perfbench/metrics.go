package main

// metricDecl is one metric the benchmark reports, as BENCHMARK.json
// declares it (a test keeps the two in step).
type metricDecl struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening as a share of the base median
	// batch marks a layer metric of the research batch path; the others
	// belong to the served path. A traced run measures only the layers
	// of its own workload's path and reports the rest as 0.
	batch bool
}

// endToEndMetrics are measured with tracing off. Every workload reports
// all of them; what "one operation" is depends on the workload (README).
var endToEndMetrics = []metricDecl{
	{"latency_p50_ref_ms", "ref_ms", "lower", 0.25, false},
	{"latency_tail_ref_ms", "ref_ms", "lower", 0.25, false},
	{"throughput_per_ref_s", "1/ref_s", "higher", 0.25, false},
	{"peak_rss_mb", "MiB", "lower", 0.25, false},
	{"setup_s", "s", "lower", 0.25, false},
}

// layerMetrics come from the traced run. A layer that the workload's
// path never calls reads 0: paper-batch runs no server, and the served
// path runs no simulator or experiments fan-out.
var layerMetrics = []metricDecl{
	{"trace.decode_ns_per_record", "ns", "lower", 0, false},
	{"core.observe_ns_per_record", "ns", "lower", 0, false},
	{"core.evict_ns_per_window", "ns", "lower", 0, false},
	{"core.eval_ns_per_window", "ns", "lower", 0, false},
	{"core.dag_step_ns_per_window", "ns", "lower", 0, false},
	{"core.dag_finish_us_per_session", "us", "lower", 0, false},
	{"stream.push_ns_per_record", "ns", "lower", 0, false},
	{"rcastore.insert_us", "us", "lower", 0, false},
	{"rcastore.journal_append_us", "us", "lower", 0, false},
	{"rcastore.journal_fsync_us", "us", "lower", 0, false},
	{"rcastore.fsyncs_per_report", "ratio", "lower", 0, false},
	{"rcastore.query_ms.records", "ms", "lower", 0, false},
	{"rcastore.query_ms.top_chains", "ms", "lower", 0, false},
	{"rcastore.query_ms.cause_rates", "ms", "lower", 0, false},
	{"rcastore.query_ms.similar", "ms", "lower", 0, false},
	{"rcastore.recover_s", "s", "lower", 0, false},
	{"balancer.hop_ms", "ms", "lower", 0, false},
	{"balancer.fanout_ms", "ms", "lower", 0, false},
	{"balancer.peak_rss_mb", "MiB", "lower", 0, false},
	{"dominod.peak_rss_mb", "MiB", "lower", 0, false},
	{"balancer.cpu_ms_per_session", "ms", "lower", 0, false},
	{"dominod.cpu_ms_per_session", "ms", "lower", 0, false},
	{"dominod.idle_direct_ms", "ms", "lower", 0, false},
	{"dominod.unaccounted_ms", "ms", "lower", 0, false},
	{"dominod.queue_wait_ms", "ms", "lower", 0, false},
	{"dominod.rejected", "count", "lower", 0, false},
	{"ingest.shed_retries", "count", "lower", 0, false},
	{"ingest.attempts_per_session", "ratio", "lower", 0, false},
	{"sim.ns_per_record", "ns", "lower", 0, true},
	{"core.analyze_ms_per_session", "ms", "lower", 0, true},
	{"experiments.parallel_efficiency", "ratio", "higher", 0, true},
	{"experiments.slowest_artifact_s", "s", "lower", 0, true},
	{"loadgen.lag_ms", "ms", "lower", 0, false},
	{"trace.overhead_pct", "%", "lower", 0, false},
}
