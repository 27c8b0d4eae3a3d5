//! Bookkeeping for workloads that call `run_query` themselves (`fanout`
//! and `scan`): one compact record per query outcome, and the
//! end-to-end and `driver.*`/`proxy.*` metrics derived from them.

use std::collections::BTreeMap;

use cubrick::admission::QosClass;
use cubrick::error::CubrickError;
use cubrick::proxy::CubrickProxy;
use scalewall_cluster::driver::QueryOutcome;
use scalewall_cluster::Deployment;
use scalewall_shard_manager::{MigrationKind, MigrationPhase};
use scalewall_sim::{SimDuration, SimTime};

use crate::stats::{quantile, ratio, sorted, Digest};
use crate::trace::{durations_ns, layer_times, Span};
use crate::{Layers, SimOutcome};

/// Why a query failed, as far as the per-layer counters care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    None,
    /// The resolved host no longer owns the shard, or is still loading it.
    StaleRoute,
    /// The owner was down or failed the request.
    Unavailable,
    /// Every candidate replica was blacklisted at the proxy.
    AllReplicasUnavailable,
    Other,
}

impl FailKind {
    fn of(error: Option<&CubrickError>) -> FailKind {
        match error {
            None => FailKind::None,
            Some(CubrickError::ShardNotOwned { .. } | CubrickError::ShardLoading { .. }) => {
                FailKind::StaleRoute
            }
            Some(CubrickError::PartitionUnavailable { .. }) => FailKind::Unavailable,
            Some(CubrickError::AllReplicasUnavailable { .. }) => FailKind::AllReplicasUnavailable,
            Some(_) => FailKind::Other,
        }
    }
}

/// What the benchmark keeps of one `QueryOutcome`.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    pub class: QosClass,
    pub success: bool,
    pub latency: SimDuration,
    pub attempts: u32,
    pub fan_out: u32,
    pub answered: u32,
    pub fail: FailKind,
}

impl QueryRecord {
    pub fn new(class: QosClass, outcome: &QueryOutcome) -> Self {
        QueryRecord {
            class,
            success: outcome.success,
            latency: outcome.latency,
            attempts: outcome.attempts,
            fan_out: outcome.fan_out as u32,
            answered: outcome.partitions_answered as u32,
            fail: FailKind::of(outcome.error.as_ref()),
        }
    }

    pub fn latency_ms(&self) -> f64 {
        self.latency.as_millis_f64()
    }

    pub fn digest(&self, d: &mut Digest) {
        d.u64(self.class.index() as u64);
        d.u64(u64::from(self.success));
        d.u64(self.latency.as_nanos());
        d.u64(u64::from(self.attempts));
        d.u64(u64::from(self.fan_out));
        d.u64(u64::from(self.answered));
        d.u64(self.fail as u64);
    }
}

/// Every successful query must have answered all of its partitions.
pub fn check_complete(records: &[QueryRecord]) -> Result<(), String> {
    for (i, r) in records.iter().enumerate() {
        if r.success && (r.answered != r.fan_out || r.fan_out == 0) {
            return Err(format!(
                "query {i} succeeded with {} of {} partitions answered",
                r.answered, r.fan_out
            ));
        }
        if !r.success && r.fail == FailKind::None {
            return Err(format!("query {i} failed without an error"));
        }
    }
    Ok(())
}

/// Latency SLA of each QoS class (the serving contract `QosConfig`
/// ships with), applied to every workload.
pub fn sla(class: QosClass) -> SimDuration {
    scalewall_cluster::QosConfig::default().sla[class.index()]
}

/// End-to-end sim view of a list of outcomes.
pub fn sim_outcome(records: &[QueryRecord]) -> SimOutcome {
    let latencies = sorted(
        records
            .iter()
            .filter(|r| r.success)
            .map(QueryRecord::latency_ms)
            .collect(),
    );
    let met = |r: &QueryRecord| r.success && r.latency <= sla(r.class);
    let interactive: Vec<&QueryRecord> = records
        .iter()
        .filter(|r| r.class == QosClass::Interactive)
        .collect();
    SimOutcome {
        p50: quantile(&latencies, 0.5),
        p99: quantile(&latencies, 0.99),
        p999: quantile(&latencies, 0.999),
        offered: records.len() as u64,
        failed: records.iter().filter(|r| !r.success).count() as u64,
        interactive_offered: interactive.len() as u64,
        interactive_met: interactive.iter().filter(|r| met(r)).count() as u64,
        sla_met: records.iter().filter(|r| met(r)).count() as u64,
    }
}

/// Counters read from the outcomes and from the proxy's public stats.
pub fn counters(records: &[QueryRecord], proxy: &CubrickProxy, layers: &mut Layers) {
    let n = records.len() as u64;
    let count = |kind: FailKind| records.iter().filter(|r| r.fail == kind).count() as f64;
    let subqueries: u64 = records
        .iter()
        .map(|r| u64::from(r.fan_out) * u64::from(r.attempts))
        .sum();
    let attempts: u64 = records.iter().map(|r| u64::from(r.attempts)).sum();
    layers.set("driver.queries", n as f64);
    layers.set("driver.subqueries", subqueries as f64);
    layers.set("driver.attempts_per_query", ratio(attempts, n));
    layers.set("driver.stale_route", count(FailKind::StaleRoute));
    layers.set("driver.unavailable", count(FailKind::Unavailable));
    layers.set(
        "driver.all_replicas_unavailable",
        count(FailKind::AllReplicasUnavailable),
    );
    let s = &proxy.stats;
    layers.set("proxy.retries", s.retries as f64);
    layers.set("proxy.region_failovers", s.region_failovers as f64);
    layers.set("proxy.hosts_blacklisted", s.hosts_blacklisted as f64);
    let lookups = s.cache_hits + s.cache_misses;
    layers.set("proxy.cache_hit_ratio", ratio(s.cache_hits, lookups));
    layers.set("proxy.cache_lookups", lookups as f64);
}

/// Shard-manager and coordination counters of a deployment.
pub fn sm_counters(dep: &Deployment, layers: &mut Layers) {
    let history = dep.regions.iter().flat_map(|r| r.sm.migration_history());
    let failovers = history
        .filter(|m| m.kind == MigrationKind::Failover && m.phase == MigrationPhase::Done)
        .count();
    layers.set("sm.migrations", dep.total_migrations() as f64);
    layers.set("sm.failover_migrations", failovers as f64);
    layers.set("zk.failovers", dep.zk_failovers() as f64);
    layers.set("zk.session_moves", dep.zk_session_moves() as f64);
}

/// Host-time metrics of the query path, from a traced round's spans.
pub fn traced_times(spans: &[Span], subqueries: f64, layers: &mut Layers) {
    let per_query = sorted(
        durations_ns(spans, "driver.run_query")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect(),
    );
    if let (Some(p50), Some(p99)) = (quantile(&per_query, 0.5), quantile(&per_query, 0.99)) {
        layers.set("driver.query_us_p50", p50.value);
        layers.set("driver.query_us_p99", p99.value);
    }
    let times = layer_times(spans);
    if let Some(t) = times.get("driver.run_query") {
        if subqueries > 0.0 {
            layers.set("driver.subquery_ns", t.total_ns as f64 / subqueries);
        }
    }
}

/// Mean cost of one pop from the benchmark's arrival queue: the round's
/// arrival schedule replayed through a fresh `EventQueue` and drained
/// as one timed batch (one clock read per batch, not per pop).
pub fn event_pop_ns(arrivals: &[SimTime]) -> f64 {
    let mut queue: scalewall_sim::EventQueue<u32> = scalewall_sim::EventQueue::new();
    for (i, &at) in arrivals.iter().enumerate() {
        queue.schedule_at(at, i as u32);
    }
    let start = std::time::Instant::now();
    let mut popped = 0u64;
    while let Some(ev) = queue.pop() {
        std::hint::black_box(ev.payload);
        popped += 1;
    }
    start.elapsed().as_nanos() as f64 / popped.max(1) as f64
}

/// Exact p99 per key of successful queries.
pub fn p99_by<K: Ord + Copy>(records: &[(K, QueryRecord)]) -> BTreeMap<K, f64> {
    let mut by: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (k, r) in records.iter().filter(|(_, r)| r.success) {
        by.entry(*k).or_default().push(r.latency_ms());
    }
    by.into_iter()
        .filter_map(|(k, v)| quantile(&sorted(v), 0.99).map(|q| (k, q.value)))
        .collect()
}
