//! The benchmark's metric catalogue: every name it can print, with its
//! unit. `BENCHMARK.json` lists the same names (the self-tests compare
//! the two), and the final report always carries the whole list for its
//! mode, so the set of keys never depends on the workload.

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_p999_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("interactive_sla_met", "ratio"),
    ("sla_met", "ratio"),
];

/// Fan-out levels of the `fanout` workload (fig 5's sweep, extended).
pub const FANOUTS: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Names of the spans the benchmark records; each gets a
/// `self_ms.<span>` per-layer metric.
pub const SPANS: [&str; 16] = [
    "setup.deployment",
    "setup.tables",
    "setup.experiment",
    "run",
    "arrival",
    "driver.run_query",
    "sm.tick",
    "sm.collect_metrics",
    "sm.balance",
    "hotness.decay",
    "hotness.monitor",
    "store.ingest",
    "fault",
    "engine.probe",
    "experiment.run",
    "calib",
];

const ADMISSION_COUNTERS: [&str; 7] = [
    "offered",
    "admitted",
    "queued",
    "shed",
    "queue_timeouts",
    "partials",
    "failed",
];
const CLASSES: [&str; 3] = ["interactive", "best_effort", "batch"];

const FIXED_PER_LAYER: [(&str, &str); 51] = [
    ("driver.query_us_p50", "us"),
    ("driver.query_us_p99", "us"),
    ("driver.subquery_ns", "ns"),
    ("driver.queries", "count"),
    ("driver.subqueries", "count"),
    ("driver.attempts_per_query", "ratio"),
    ("driver.stale_route", "count"),
    ("driver.unavailable", "count"),
    ("driver.all_replicas_unavailable", "count"),
    ("proxy.retries", "count"),
    ("proxy.region_failovers", "count"),
    ("proxy.hosts_blacklisted", "count"),
    ("proxy.cache_hit_ratio", "ratio"),
    ("proxy.cache_lookups", "count"),
    ("event.pop_ns", "ns"),
    ("engine.scan_ns_per_brick", "ns"),
    ("engine.probe_bricks", "count"),
    ("store.bricks_scanned", "count"),
    ("store.bricks_pruned", "count"),
    ("store.bricks_per_query", "ratio"),
    ("store.transient_decompressions", "count"),
    ("store.ingest_ns_per_row", "ns"),
    ("store.rows_ingested", "count"),
    ("hotness.maintenance_ms", "ms"),
    ("hotness.hot_bricks", "count"),
    ("hotness.compressed_bricks", "count"),
    ("hotness.ssd_bricks", "count"),
    ("hotness.host_budget_bytes", "B"),
    ("hotness.host_data_bytes", "B"),
    ("sm.tick_us", "us"),
    ("sm.ticks", "count"),
    ("sm.balance_ms", "ms"),
    ("sm.migrations", "count"),
    ("sm.failover_migrations", "count"),
    ("zk.failovers", "count"),
    ("zk.session_moves", "count"),
    ("setup.deployment_s", "s"),
    ("setup.tables_s", "s"),
    ("experiment.run_s", "s"),
    ("sim.queries", "count"),
    ("sim.samples", "count"),
    ("sim.p999_beyond", "count"),
    ("sim.fault_windows", "count"),
    ("trace.host_qps_untraced", "1/s"),
    ("trace.host_qps_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.rounds", "count"),
    ("host.qps_wall", "1/s"),
    ("host.setup_wall_s", "s"),
    ("host.calib_us", "us"),
];

/// Per-layer metrics, printed by traced runs. A metric a workload does
/// not exercise is printed as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for f in FANOUTS {
        out.push((format!("coordinator.p99_ms.f{f}"), "ms"));
    }
    for counter in ADMISSION_COUNTERS {
        for class in CLASSES {
            out.push((format!("admission.{counter}.{class}"), "count"));
        }
    }
    for span in SPANS {
        out.push((format!("self_ms.{span}"), "ms"));
    }
    out
}
