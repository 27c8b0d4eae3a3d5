//! The discrete-event operational experiment engine.
//!
//! Runs a deployment for simulated days-to-weeks under a full operational
//! envelope — skewed query traffic, periodic metric collection and
//! load-balancing runs, hotness decay and memory-monitor passes,
//! Poisson permanent host failures with automated repair, and planned
//! drains — and collects the counters behind the paper's operational
//! figures (4d migrations/day, 4e hot/cold bricks, 4f repairs/day).

use std::collections::BTreeMap;

use cubrick::admission::{AdmissionDecision, QosClass, Ticket, CLASS_COUNT};
use cubrick::catalog::RowMapping;
use cubrick::proxy::{CoordinatorStrategy, CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_shard_manager::{HostId, Rack, Region};
use scalewall_sim::{
    DailyCounter, EventQueue, Exponential, FaultTimeline, Histogram, SimDuration, SimRng, SimTime,
};

use crate::deployment::{Deployment, DeploymentConfig};
use crate::driver::{run_query, QueryOptions};
use crate::fault::{FaultKind, FaultScript};
use crate::net::{NetModel, NetModelConfig};
use crate::traffic::{QosConfig, QosStats, TrafficModel};
use crate::workload::{gen_query, gen_query_for_class, gen_rows, TablePopulation, WorkloadConfig};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub deployment: DeploymentConfig,
    pub workload: WorkloadConfig,
    pub net: NetModelConfig,
    pub duration: SimDuration,
    /// Mean queries per second (Poisson arrivals).
    pub query_rate: f64,
    /// Rows loaded per table at start (scaled by table size rank).
    pub rows_per_table: usize,
    pub metrics_interval: SimDuration,
    pub load_balance_interval: SimDuration,
    pub decay_interval: SimDuration,
    pub memory_monitor_interval: SimDuration,
    /// Mean time between permanent failures *per host*.
    pub host_mtbf: SimDuration,
    /// Time from failure to the host being repaired/replaced.
    pub repair_delay: SimDuration,
    /// Mean planned drains per day (maintenance events).
    pub drains_per_day: f64,
    /// How long a drained host stays in maintenance.
    pub maintenance_duration: SimDuration,
    /// Scripted correlated faults injected mid-run (empty = healthy run).
    /// Victim selection draws from a dedicated forked stream, so adding
    /// or removing a script never perturbs the population or workload
    /// streams of the same seed.
    pub faults: FaultScript,
    /// QoS serving mode: replace the constant-rate Poisson query loop
    /// with the production traffic model (diurnal arrivals, per-tenant
    /// QoS classes, weighted admission with queueing/shedding, degraded
    /// partial results). `None` keeps the legacy query loop —
    /// byte-identical to pre-QoS runs of the same seed.
    pub qos: Option<QosConfig>,
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            deployment: DeploymentConfig::default(),
            workload: WorkloadConfig {
                tables: 50,
                ..Default::default()
            },
            net: NetModelConfig::default(),
            duration: SimDuration::from_days(7),
            query_rate: 0.5,
            rows_per_table: 2_000,
            metrics_interval: SimDuration::from_mins(5),
            load_balance_interval: SimDuration::from_mins(10),
            decay_interval: SimDuration::from_mins(30),
            memory_monitor_interval: SimDuration::from_mins(15),
            host_mtbf: SimDuration::from_days(120),
            repair_delay: SimDuration::from_hours(6),
            drains_per_day: 2.0,
            maintenance_duration: SimDuration::from_hours(2),
            faults: FaultScript::new(),
            qos: None,
            seed: 0xE49,
        }
    }
}

/// Collected outputs.
#[derive(Debug)]
pub struct ExperimentStats {
    pub queries_ok: u64,
    pub queries_failed: u64,
    pub latency: Histogram,
    /// Completed shard migrations per simulated day, all regions (Fig 4d).
    pub migrations_per_day: Vec<u64>,
    /// Permanent host failures handed to repair per day (Fig 4f).
    pub repairs_per_day: Vec<u64>,
    pub drains_requested: u64,
    pub drains_denied: u64,
    /// Hotness counters of every brick at experiment end (Fig 4e):
    /// counter values, one per brick, across all regions' owned shards.
    pub final_hotness: Vec<u32>,
    pub hot_threshold: u32,
    /// Scripted fault windows that opened / closed during the run.
    pub fault_injections: u64,
    pub fault_repairs: u64,
    /// Completed failover migrations across all regions.
    pub failover_migrations: u64,
    /// Queries the proxy re-routed to another region (§IV-D failover).
    pub region_failovers: u64,
    /// Hosts owning >1 shard of the same table at experiment end — the
    /// §IV-A anti-collision invariant, measured post-recovery.
    pub same_table_collisions: u64,
    /// Order-sensitive digest of the generated table population (names,
    /// sizes, partition counts). Two runs whose fingerprints match drew
    /// identical population streams — the fork-stability check used by
    /// the fault-replay tests.
    pub population_fingerprint: u64,
    /// Coordination-leader failovers across all regional zk ensembles
    /// (0 when the deployment runs the single in-process store).
    pub zk_failovers: u64,
    /// `SessionMoved` reconnect handshakes absorbed by SM's zk clients.
    pub zk_session_moves: u64,
    /// Per-class QoS serving counters (all-zero outside QoS mode).
    pub qos: QosStats,
}

impl ExperimentStats {
    pub fn success_ratio(&self) -> f64 {
        let total = self.queries_ok + self.queries_failed;
        if total == 0 {
            1.0
        } else {
            self.queries_ok as f64 / total as f64
        }
    }

    /// Hot/cold split of the final brick census.
    pub fn hot_cold_counts(&self) -> (usize, usize) {
        let hot = self
            .final_hotness
            .iter()
            .filter(|&&h| h >= self.hot_threshold)
            .count();
        (hot, self.final_hotness.len() - hot)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Query,
    CollectMetrics,
    LoadBalance,
    DecayPass,
    MemoryMonitor,
    PermanentFailure,
    Repair { region: usize, host: HostId },
    Decommission { region: usize, host: HostId },
    Drain,
    Undrain { region: usize, host: HostId },
    /// Open scripted fault window `window` (index into the fault script).
    FaultInject { window: usize },
    /// Close scripted fault window `window`.
    FaultRepair { window: usize },
    /// Retry an in-place restore that found the host not yet restorable.
    Restore { region: usize, host: HostId },
    /// One query arrival from the production traffic model (QoS mode).
    Arrival,
    /// An in-flight QoS query finished; release its slot and pump the
    /// admission queues.
    QueryDone { id: u64 },
}

/// A query parked in an admission queue, waiting for a slot.
struct PendingQuery {
    class: QosClass,
    query: Query,
    client_region: Region,
}

/// Bookkeeping for an in-flight QoS query, keyed by its `QueryDone` id.
struct DoneRecord {
    class: QosClass,
    region: Option<Region>,
    table: String,
    coordinator: Option<u32>,
}

/// The QoS scalars the hot path needs, copied out of the config so the
/// event handlers don't fight the borrow checker over `self.config`.
#[derive(Debug, Clone, Copy)]
struct QosParams {
    sla: [SimDuration; CLASS_COUNT],
    shard_timeout: SimDuration,
    min_coverage: f64,
    degraded: bool,
}

/// The engine.
pub struct Experiment {
    config: ExperimentConfig,
    dep: Deployment,
    population: TablePopulation,
    proxy: CubrickProxy,
    net: NetModel,
    rng: SimRng,
    queue: EventQueue<Event>,
    automation: scalewall_shard_manager::AutomationEngine,
    stats_latency: Histogram,
    queries_ok: u64,
    queries_failed: u64,
    repairs: DailyCounter,
    drains_requested: u64,
    drains_denied: u64,
    /// Current data horizon in days (grows with simulated time).
    day_horizon: i64,
    /// Dedicated stream for fault victim selection (`rng.fork(3)`), so
    /// fault scripts never perturb the shared in-run stream ordering
    /// between a healthy and a faulted run of the same seed.
    fault_rng: SimRng,
    faults: FaultTimeline<FaultKind>,
    /// Hosts crashed by each still-open fault window, to restore in place
    /// at repair time.
    fault_crashed: BTreeMap<usize, Vec<(usize, HostId)>>,
    fault_injections: u64,
    fault_repairs: u64,
    population_fingerprint: u64,
    /// Production traffic model (`Some` iff QoS mode is on).
    traffic: Option<TrafficModel>,
    /// Dedicated stream for the arrival process and tenant → class
    /// assignment (`rng.fork(4)`), forked unconditionally so QoS and
    /// legacy runs of one seed agree on every other stream.
    qos_rng: SimRng,
    qos_params: Option<QosParams>,
    qos_stats: QosStats,
    /// Queries parked in the admission queues, by ticket.
    pending: BTreeMap<Ticket, PendingQuery>,
    /// In-flight QoS queries awaiting their `QueryDone`.
    done: BTreeMap<u64, DoneRecord>,
    next_query_id: u64,
    /// Configured admission slots (capacity-coupling baseline).
    base_slots: usize,
    due_scratch: Vec<(Ticket, QosClass, SimTime)>,
}

/// FNV-1a over the population's observable shape (satellite of the
/// fault-replay tests: proves two runs drew the same population stream).
fn population_fingerprint(population: &TablePopulation) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, byte: u64| {
        *h ^= byte;
        *h = h.wrapping_mul(PRIME);
    };
    for spec in &population.tables {
        for b in spec.name.as_bytes() {
            mix(&mut h, *b as u64);
        }
        mix(&mut h, spec.target_bytes);
        mix(&mut h, spec.partitions as u64);
    }
    h
}

impl Experiment {
    /// Build the deployment, create and load every table.
    pub fn new(config: ExperimentConfig) -> Self {
        let mut rng = SimRng::new(config.seed);
        let mut dep = Deployment::new(config.deployment.clone());
        let population = TablePopulation::generate(&config.workload, &mut rng.fork(1));
        let mut load_rng = rng.fork(2);
        for spec in &population.tables {
            // A malformed spec degrades to an absent (or empty) table —
            // queries against it fail and are counted — instead of
            // killing the whole run during setup. The RNG draws happen
            // unconditionally either way, so degraded and healthy runs
            // keep every other stream position identical.
            let created = dep.create_table(
                &spec.name,
                spec.schema.clone(),
                spec.partitions,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            );
            let rows = gen_rows(
                spec,
                config.rows_per_table,
                config.workload.ds_range,
                &mut load_rng,
            );
            if created.is_ok() {
                let _ = dep.ingest(&spec.name, &rows);
            }
        }
        // Fork the fault stream *unconditionally*: a healthy run and a
        // faulted run of the same seed must leave every other stream at
        // the same position (fork-stability, see `scalewall_sim::rng`).
        let fault_rng = rng.fork(3);
        // Same discipline for the traffic stream (stream 4).
        let mut qos_rng = rng.fork(4);
        let traffic = config
            .qos
            .as_ref()
            .map(|q| TrafficModel::new(q.traffic.clone(), population.tables.len(), &mut qos_rng));
        let qos_params = config.qos.as_ref().map(|q| QosParams {
            sla: q.sla,
            shard_timeout: q.shard_timeout,
            min_coverage: q.min_coverage,
            degraded: q.degraded,
        });
        let base_slots = config.qos.as_ref().map_or(0, |q| q.admission.total_slots);
        let proxy = match &config.qos {
            Some(q) => CubrickProxy::new(ProxyConfig {
                admission: q.admission,
                ..Default::default()
            }),
            None => CubrickProxy::new(ProxyConfig::default()),
        };
        let net = NetModel::new(config.net);
        Experiment {
            proxy,
            net,
            rng,
            queue: EventQueue::new(),
            automation: scalewall_shard_manager::AutomationEngine::default(),
            stats_latency: Histogram::latency_ms(),
            queries_ok: 0,
            queries_failed: 0,
            repairs: DailyCounter::new(),
            drains_requested: 0,
            drains_denied: 0,
            day_horizon: config.workload.ds_range,
            fault_rng,
            faults: config.faults.timeline(),
            fault_crashed: BTreeMap::new(),
            fault_injections: 0,
            fault_repairs: 0,
            population_fingerprint: population_fingerprint(&population),
            traffic,
            qos_rng,
            qos_params,
            qos_stats: QosStats::default(),
            pending: BTreeMap::new(),
            done: BTreeMap::new(),
            next_query_id: 0,
            base_slots,
            due_scratch: Vec::new(),
            config,
            dep,
            population,
        }
    }

    fn schedule_initial(&mut self) {
        if self.traffic.is_some() {
            self.schedule_next_arrival(SimTime::ZERO);
        } else {
            self.queue.schedule_at(SimTime::from_secs(1), Event::Query);
        }
        self.queue
            .schedule_after(self.config.metrics_interval, Event::CollectMetrics);
        self.queue
            .schedule_after(self.config.load_balance_interval, Event::LoadBalance);
        self.queue
            .schedule_after(self.config.decay_interval, Event::DecayPass);
        self.queue
            .schedule_after(self.config.memory_monitor_interval, Event::MemoryMonitor);
        let failure_gap = self.next_failure_gap();
        self.queue
            .schedule_after(failure_gap, Event::PermanentFailure);
        if self.config.drains_per_day > 0.0 {
            let gap = self.next_drain_gap();
            self.queue.schedule_after(gap, Event::Drain);
        }
        for (i, w) in self.faults.windows().iter().enumerate() {
            self.queue.schedule_at(w.onset, Event::FaultInject { window: i });
            self.queue
                .schedule_at(w.repair_at(), Event::FaultRepair { window: i });
        }
    }

    /// Hosts in `region_idx` that are up: process running, SM state Alive.
    fn alive_hosts(&self, region_idx: usize) -> Vec<HostId> {
        let region = &self.dep.regions[region_idx];
        region
            .nodes
            .hosts()
            .filter(|&h| !region.nodes.is_down(h))
            .filter(|&h| {
                region.sm.host_state(h) == Some(scalewall_shard_manager::HostState::Alive)
            })
            .collect()
    }

    /// Fault scripts may name regions the (smaller) deployment under test
    /// does not have; clamp instead of panicking so one script can drive
    /// a sweep over deployment sizes.
    fn clamp_region(&self, region: u32) -> usize {
        (region as usize).min(self.dep.regions.len() - 1)
    }

    fn next_failure_gap(&mut self) -> SimDuration {
        // Fleet-wide failure rate: hosts / MTBF.
        let hosts =
            (self.config.deployment.regions * self.config.deployment.hosts_per_region) as f64;
        let rate_per_sec = hosts / self.config.host_mtbf.as_secs_f64();
        SimDuration::from_secs_f64(Exponential::from_rate(rate_per_sec).sample(&mut self.rng))
    }

    fn next_drain_gap(&mut self) -> SimDuration {
        let rate_per_sec = self.config.drains_per_day / 86_400.0;
        SimDuration::from_secs_f64(Exponential::from_rate(rate_per_sec).sample(&mut self.rng))
    }

    fn next_query_gap(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(
            Exponential::from_rate(self.config.query_rate).sample(&mut self.rng),
        )
    }

    /// Run to the configured horizon and return the collected stats.
    pub fn run(mut self) -> ExperimentStats {
        self.schedule_initial();
        let horizon = SimTime::ZERO + self.config.duration;
        // Batched dispatch: pop one whole timestamp per kernel call. The
        // handlers still run in contract (seq) order, and `dep.tick` runs
        // per event — so histories are bit-identical to serial pops while
        // the kernel amortises its bookkeeping across the batch.
        let mut batch = Vec::new();
        while let Some(time) = self.queue.peek_time() {
            if time > horizon {
                break;
            }
            let popped = self.queue.pop_tick(&mut batch);
            debug_assert_eq!(popped, Some(time));
            for ev in batch.drain(..) {
                let now = ev.time;
                // Time advanced: let SM machinery observe it.
                self.dep.tick(now);
                self.handle(ev.payload, now);
            }
        }
        self.finish(horizon)
    }

    fn handle(&mut self, event: Event, now: SimTime) {
        match event {
            Event::Query => {
                let spec = {
                    let mut pick_rng = self.rng.fork(now.as_nanos());
                    self.population.pick_table(&mut pick_rng).clone()
                };
                let horizon = self.day_horizon.min(self.config.workload.ds_range);
                let query = gen_query(&spec, horizon, &mut self.rng);
                let client_region = Region(self.rng.below(self.dep.regions.len() as u64) as u32);
                let opts = QueryOptions {
                    execute_data: true,
                    client_region,
                    ..Default::default()
                };
                let outcome = run_query(
                    &mut self.dep,
                    &mut self.proxy,
                    &self.net,
                    &query,
                    &opts,
                    now,
                    &mut self.rng,
                );
                if outcome.success {
                    self.queries_ok += 1;
                    self.stats_latency.record_duration(outcome.latency);
                } else {
                    self.queries_failed += 1;
                }
                let gap = self.next_query_gap();
                self.queue.schedule_after(gap, Event::Query);
            }
            Event::CollectMetrics => {
                self.dep.collect_metrics();
                self.queue
                    .schedule_after(self.config.metrics_interval, Event::CollectMetrics);
            }
            Event::LoadBalance => {
                self.dep.run_load_balancers(now);
                self.queue
                    .schedule_after(self.config.load_balance_interval, Event::LoadBalance);
            }
            Event::DecayPass => {
                for region in &mut self.dep.regions {
                    let hosts: Vec<HostId> = region.nodes.hosts().collect();
                    for host in hosts {
                        if let Some(node) = region.nodes.node_mut(host) {
                            node.decay_pass();
                        }
                    }
                }
                self.queue
                    .schedule_after(self.config.decay_interval, Event::DecayPass);
            }
            Event::MemoryMonitor => {
                for region in &mut self.dep.regions {
                    let hosts: Vec<HostId> = region.nodes.hosts().collect();
                    for host in hosts {
                        if let Some(node) = region.nodes.node_mut(host) {
                            node.run_memory_monitor();
                        }
                    }
                }
                self.queue
                    .schedule_after(self.config.memory_monitor_interval, Event::MemoryMonitor);
            }
            Event::PermanentFailure => {
                // Pick a random alive host anywhere in the fleet.
                let region_idx = self.rng.below(self.dep.regions.len() as u64) as usize;
                let candidates: Vec<HostId> = {
                    let region = &self.dep.regions[region_idx];
                    region
                        .nodes
                        .hosts()
                        .filter(|&h| !region.nodes.is_down(h))
                        .filter(|&h| {
                            region.sm.host_state(h)
                                == Some(scalewall_shard_manager::HostState::Alive)
                        })
                        .collect()
                };
                if !candidates.is_empty() {
                    let host = *self.rng.pick(&candidates);
                    self.dep.fail_host(region_idx, host, now);
                    self.repairs.incr(now);
                    self.queue.schedule_after(
                        self.config.repair_delay,
                        Event::Repair {
                            region: region_idx,
                            host,
                        },
                    );
                }
                let gap = self.next_failure_gap();
                self.queue.schedule_after(gap, Event::PermanentFailure);
            }
            Event::Repair { region, host } => {
                self.dep.replace_host(region, host, now);
                if self.dep.regions[region].sm.host_state(host).is_some() {
                    // Assignments still draining off the dead host;
                    // decommission once they have.
                    self.queue.schedule_after(
                        SimDuration::from_hours(1),
                        Event::Decommission { region, host },
                    );
                }
            }
            Event::Decommission { region, host } => {
                if !self.dep.decommission_if_drained(region, host) {
                    self.queue.schedule_after(
                        SimDuration::from_hours(1),
                        Event::Decommission { region, host },
                    );
                }
            }
            Event::Drain => {
                self.drains_requested += 1;
                let region_idx = self.rng.below(self.dep.regions.len() as u64) as usize;
                let candidates: Vec<HostId> = {
                    let region = &self.dep.regions[region_idx];
                    region
                        .nodes
                        .hosts()
                        .filter(|&h| {
                            region.sm.host_state(h)
                                == Some(scalewall_shard_manager::HostState::Alive)
                        })
                        .collect()
                };
                if !candidates.is_empty() {
                    let host = *self.rng.pick(&candidates);
                    let request = scalewall_shard_manager::MaintenanceRequest {
                        hosts: vec![host],
                        reason: "scheduled maintenance".to_string(),
                    };
                    let region = &mut self.dep.regions[region_idx];
                    match self
                        .automation
                        .submit(&mut region.sm, &request, now, &mut region.nodes)
                    {
                        Ok(scalewall_shard_manager::MaintenanceVerdict::Approved { .. }) => {
                            self.queue.schedule_after(
                                self.config.maintenance_duration,
                                Event::Undrain {
                                    region: region_idx,
                                    host,
                                },
                            );
                        }
                        _ => self.drains_denied += 1,
                    }
                }
                let gap = self.next_drain_gap();
                self.queue.schedule_after(gap, Event::Drain);
            }
            Event::Undrain { region, host } => {
                let _ = self.dep.regions[region].sm.reactivate_host(host, now);
            }
            Event::FaultInject { window } => {
                self.faults.advance(now);
                self.fault_injections += 1;
                let kind = self.faults.windows()[window].kind;
                match kind {
                    FaultKind::HostCrash { region } => {
                        let region_idx = self.clamp_region(region);
                        let candidates = self.alive_hosts(region_idx);
                        if !candidates.is_empty() {
                            let host = *self.fault_rng.pick(&candidates);
                            self.dep.fail_host(region_idx, host, now);
                            self.fault_crashed
                                .entry(window)
                                .or_default()
                                .push((region_idx, host));
                        }
                    }
                    FaultKind::RackOutage { region, rack } => {
                        let region_idx = self.clamp_region(region);
                        let alive = self.alive_hosts(region_idx);
                        for host in self.dep.hosts_in_rack(region_idx, Rack(rack)) {
                            if alive.contains(&host) {
                                self.dep.fail_host(region_idx, host, now);
                                self.fault_crashed
                                    .entry(window)
                                    .or_default()
                                    .push((region_idx, host));
                            }
                        }
                    }
                    FaultKind::RegionOutage { region } => {
                        let region_idx = self.clamp_region(region);
                        self.dep.regions[region_idx].available = false;
                        // Coordination replicas homed in the dead region
                        // die with it — including ensemble leaders, which
                        // forces lease-driven failover in every ensemble
                        // that leased a leader there.
                        self.dep.zk_crash_region(region_idx as u32);
                        self.recouple_capacity(now);
                    }
                    FaultKind::RegionPartition { a, b } => {
                        self.net.cut(a, b);
                        // The coordination plane rides the same links.
                        self.dep.zk_partition(a, b);
                    }
                    FaultKind::ZkNodeCrash { region } => {
                        let region_idx = self.clamp_region(region);
                        self.dep.zk_crash_region(region_idx as u32);
                    }
                    FaultKind::DrainStorm { region, drains } => {
                        let region_idx = self.clamp_region(region);
                        let mut candidates = self.alive_hosts(region_idx);
                        self.fault_rng.shuffle(&mut candidates);
                        let repair_at = self.faults.windows()[window].repair_at();
                        for host in candidates.into_iter().take(drains as usize) {
                            self.drains_requested += 1;
                            let request = scalewall_shard_manager::MaintenanceRequest {
                                hosts: vec![host],
                                reason: "drain storm".to_string(),
                            };
                            let region = &mut self.dep.regions[region_idx];
                            match self.automation.submit(
                                &mut region.sm,
                                &request,
                                now,
                                &mut region.nodes,
                            ) {
                                Ok(scalewall_shard_manager::MaintenanceVerdict::Approved {
                                    ..
                                }) => {
                                    self.queue.schedule_at(
                                        repair_at,
                                        Event::Undrain {
                                            region: region_idx,
                                            host,
                                        },
                                    );
                                }
                                _ => self.drains_denied += 1,
                            }
                        }
                    }
                }
            }
            Event::FaultRepair { window } => {
                self.faults.advance(now);
                self.fault_repairs += 1;
                match self.faults.windows()[window].kind {
                    FaultKind::HostCrash { .. } | FaultKind::RackOutage { .. } => {
                        let crashed = self.fault_crashed.remove(&window).unwrap_or_default();
                        for (region_idx, host) in crashed {
                            self.try_restore(region_idx, host, now);
                        }
                    }
                    FaultKind::RegionOutage { region } => {
                        let region_idx = self.clamp_region(region);
                        self.dep.regions[region_idx].available = true;
                        self.dep.zk_restore_region(region_idx as u32);
                        self.recouple_capacity(now);
                    }
                    FaultKind::RegionPartition { a, b } => {
                        self.net.heal(a, b);
                        self.dep.zk_heal(a, b);
                    }
                    FaultKind::ZkNodeCrash { region } => {
                        let region_idx = self.clamp_region(region);
                        self.dep.zk_restore_region(region_idx as u32);
                    }
                    // Storm drains undrain on their own schedule.
                    FaultKind::DrainStorm { .. } => {}
                }
            }
            Event::Restore { region, host } => {
                self.try_restore(region, host, now);
            }
            Event::Arrival => {
                self.schedule_next_arrival(now);
                self.handle_arrival(now);
            }
            Event::QueryDone { id } => {
                self.handle_query_done(id, now);
            }
        }
    }

    fn schedule_next_arrival(&mut self, now: SimTime) {
        let Some(model) = &self.traffic else { return };
        let gap = model.next_arrival(now, &mut self.qos_rng);
        self.queue.schedule_at(now + gap, Event::Arrival);
    }

    /// One production-traffic arrival: pick the tenant (class is sticky
    /// per tenant), generate the class-shaped query, and run it through
    /// the admission controller — admit, queue, or shed.
    fn handle_arrival(&mut self, now: SimTime) {
        // Time out overdue queue entries before any decision at this
        // instant, so the admission state the decision sees is current.
        self.pump_admission(now);
        let (class, spec) = {
            let Some(model) = &self.traffic else { return };
            let mut pick_rng = self.rng.fork(now.as_nanos());
            let (idx, spec) = self.population.pick_table_index(&mut pick_rng);
            (model.class_of(idx), spec.clone())
        };
        let horizon = self.day_horizon.min(self.config.workload.ds_range);
        let query = gen_query_for_class(&spec, class, horizon, &mut self.rng);
        let client_region = Region(self.rng.below(self.dep.regions.len() as u64) as u32);
        self.qos_stats.class_mut(class).offered += 1;
        match self.proxy.admission_mut().offer(class, now) {
            AdmissionDecision::Admit => {
                self.qos_stats.class_mut(class).admitted += 1;
                self.start_qos_query(class, &query, client_region, SimDuration::ZERO, now);
            }
            AdmissionDecision::Queued { ticket, .. } => {
                self.qos_stats.class_mut(class).queued += 1;
                self.pending.insert(
                    ticket,
                    PendingQuery {
                        class,
                        query,
                        client_region,
                    },
                );
            }
            AdmissionDecision::Shed => {
                self.qos_stats.class_mut(class).shed += 1;
            }
        }
    }

    /// Run an admitted QoS query (the admission slot is already held)
    /// and schedule its completion. SLA accounting happens here: the
    /// query met its class SLA iff it completed with acceptable
    /// coverage within the class latency bound, queue wait included.
    fn start_qos_query(
        &mut self,
        class: QosClass,
        query: &Query,
        client_region: Region,
        queue_wait: SimDuration,
        now: SimTime,
    ) {
        let Some(p) = self.qos_params else {
            // Not in QoS mode (unreachable from the event loop): return
            // the slot rather than leak it.
            self.proxy.admission_mut().complete(class);
            return;
        };
        let opts = QueryOptions {
            strategy: CoordinatorStrategy::QueueAwareTwoChoice,
            execute_data: false,
            client_region,
            qos: class,
            partial_results: p.degraded,
            shard_timeout: Some(p.shard_timeout),
            admission_held: true,
        };
        let outcome = run_query(
            &mut self.dep,
            &mut self.proxy,
            &self.net,
            query,
            &opts,
            now,
            &mut self.rng,
        );
        let id = self.next_query_id;
        self.next_query_id += 1;
        if outcome.success {
            self.queries_ok += 1;
            self.stats_latency.record_duration(outcome.latency);
            // Only a degraded answer can miss shards, and it must still
            // cover enough of the table to be useful.
            let missing = outcome.coverage.as_ref().filter(|c| !c.complete());
            let coverage_ok = missing.is_none_or(|c| c.fraction() >= p.min_coverage);
            let sla = p.sla[class.index()];
            let counters = self.qos_stats.class_mut(class);
            if coverage_ok {
                counters.completed += 1;
                if missing.is_some() {
                    counters.partials += 1;
                }
                if sla == SimDuration::ZERO || queue_wait + outcome.latency <= sla {
                    counters.sla_met += 1;
                }
            } else {
                // Too little coverage to be useful: a typed failure,
                // not a silent bad answer.
                counters.failed += 1;
            }
            // Queue-depth bookkeeping: the query occupies its region
            // and coordinator until `QueryDone`.
            if let Some(r) = outcome.served_region {
                self.proxy.note_region_start(r);
            }
            if let Some(cp) = outcome.coordinator_partition {
                self.proxy.note_coordinator_start(&query.table, cp);
            }
            self.done.insert(
                id,
                DoneRecord {
                    class,
                    region: outcome.served_region,
                    table: query.table.clone(),
                    coordinator: outcome.coordinator_partition,
                },
            );
        } else {
            self.queries_failed += 1;
            self.qos_stats.class_mut(class).failed += 1;
            self.done.insert(
                id,
                DoneRecord {
                    class,
                    region: None,
                    table: query.table.clone(),
                    coordinator: None,
                },
            );
        }
        // The slot stays held for the query's full latency (failed
        // attempts occupied capacity too).
        self.queue
            .schedule_at(now + outcome.latency, Event::QueryDone { id });
    }

    fn handle_query_done(&mut self, id: u64, now: SimTime) {
        let Some(rec) = self.done.remove(&id) else { return };
        self.proxy.admission_mut().complete(rec.class);
        if let Some(r) = rec.region {
            self.proxy.note_region_done(r);
        }
        if let Some(cp) = rec.coordinator {
            self.proxy.note_coordinator_done(&rec.table, cp);
        }
        self.pump_admission(now);
    }

    /// Admission-queue maintenance: expire overdue tickets, then drain
    /// runnable ones (priority order) into the freed slots.
    fn pump_admission(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.due_scratch);
        self.proxy.admission_mut().expire_due(now, &mut due);
        for (ticket, class, _) in due.drain(..) {
            if self.pending.remove(&ticket).is_some() {
                self.qos_stats.class_mut(class).queue_timeouts += 1;
            }
        }
        self.due_scratch = due;
        while let Some((ticket, class, enqueued_at)) = self.proxy.admission_mut().next_runnable(now)
        {
            let Some(pending) = self.pending.remove(&ticket) else {
                // Bookkeeping mismatch (should not happen): return the
                // slot the controller just handed out.
                self.proxy.admission_mut().complete(class);
                continue;
            };
            self.qos_stats.class_mut(class).admitted += 1;
            let wait = now.since(enqueued_at);
            let PendingQuery {
                class,
                query,
                client_region,
            } = pending;
            self.start_qos_query(class, &query, client_region, wait, now);
        }
    }

    /// Capacity coupling: a region outage withdraws that region's share
    /// of admission slots; its repair returns them (QoS mode only).
    fn recouple_capacity(&mut self, now: SimTime) {
        if self.qos_params.is_none() {
            return;
        }
        let regions = self.dep.regions.len().max(1);
        let dead = self.dep.regions.iter().filter(|r| !r.available).count();
        // Round up: losing any region must withdraw at least one slot,
        // or small slot counts would never feel an outage.
        let offline = (self.base_slots * dead).div_ceil(regions);
        self.proxy.admission_mut().set_slots_offline(offline);
        self.pump_admission(now);
    }

    /// Restore a fault-crashed host in place, retrying hourly while it is
    /// still dead (a host that was replaced or decommissioned in the
    /// meantime is someone else's responsibility — drop the retry).
    fn try_restore(&mut self, region: usize, host: HostId, now: SimTime) {
        if self.dep.restore_host(region, host, now) {
            return;
        }
        let still_dead = self.dep.regions[region].sm.host_state(host)
            == Some(scalewall_shard_manager::HostState::Dead);
        if still_dead {
            self.queue
                .schedule_after(SimDuration::from_hours(1), Event::Restore { region, host });
        }
    }

    fn finish(mut self, horizon: SimTime) -> ExperimentStats {
        // Let in-flight migrations settle for accounting.
        self.dep.tick(horizon);

        // Fig 4d: bucket completed migrations by finish day.
        let mut migrations = DailyCounter::new();
        let mut failover_migrations = 0u64;
        for region in &self.dep.regions {
            for m in region.sm.migration_history() {
                if m.phase == scalewall_shard_manager::MigrationPhase::Done {
                    if let Some(t) = m.finished_at {
                        migrations.incr(t);
                    }
                    if m.kind == scalewall_shard_manager::MigrationKind::Failover {
                        failover_migrations += 1;
                    }
                }
            }
        }
        let days = (self.config.duration.as_secs_f64() / 86_400.0).ceil() as usize;
        let mut migrations_per_day = migrations.per_day().to_vec();
        migrations_per_day.resize(days.max(migrations_per_day.len()), 0);
        let mut repairs_per_day = self.repairs.per_day().to_vec();
        repairs_per_day.resize(days.max(repairs_per_day.len()), 0);

        // Fig 4e: final hotness census over region 0 (all regions are
        // statistically identical).
        let mut final_hotness = Vec::new();
        let hot_threshold = {
            let mut threshold = 4;
            if let Some(region) = self.dep.regions.first() {
                let hosts: Vec<HostId> = region.nodes.hosts().collect();
                for host in hosts {
                    if let Some(node) = region.nodes.node(host) {
                        threshold = node.config().hot_threshold;
                        for (_, _, _, counter) in node.hotness_snapshot() {
                            final_hotness.push(counter);
                        }
                    }
                }
            }
            threshold
        };

        ExperimentStats {
            queries_ok: self.queries_ok,
            queries_failed: self.queries_failed,
            latency: self.stats_latency,
            migrations_per_day,
            repairs_per_day,
            drains_requested: self.drains_requested,
            drains_denied: self.drains_denied,
            final_hotness,
            hot_threshold,
            fault_injections: self.fault_injections,
            fault_repairs: self.fault_repairs,
            failover_migrations,
            region_failovers: self.proxy.stats.region_failovers,
            same_table_collisions: self.dep.same_table_collisions() as u64,
            population_fingerprint: self.population_fingerprint,
            zk_failovers: self.dep.zk_failovers(),
            zk_session_moves: self.dep.zk_session_moves(),
            qos: self.qos_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same configuration must produce byte-identical stats on every
    /// run — the determinism the whole experiment suite depends on.
    #[test]
    fn experiment_is_deterministic() {
        let config = || ExperimentConfig {
            deployment: DeploymentConfig {
                regions: 2,
                hosts_per_region: 5,
                max_shards: 5_000,
                ..Default::default()
            },
            workload: WorkloadConfig {
                tables: 6,
                ..Default::default()
            },
            duration: SimDuration::from_hours(12),
            query_rate: 0.02,
            rows_per_table: 150,
            host_mtbf: SimDuration::from_days(5),
            drains_per_day: 6.0,
            ..Default::default()
        };
        let a = Experiment::new(config()).run();
        let b = Experiment::new(config()).run();
        assert_eq!(a.queries_ok, b.queries_ok);
        assert_eq!(a.queries_failed, b.queries_failed);
        assert_eq!(a.migrations_per_day, b.migrations_per_day);
        assert_eq!(a.repairs_per_day, b.repairs_per_day);
        assert_eq!(a.drains_requested, b.drains_requested);
        assert_eq!(a.final_hotness, b.final_hotness);
        assert_eq!(a.latency.summary(), b.latency.summary());
    }

    fn qos_overload_config(offered_load: f64) -> ExperimentConfig {
        use cubrick::admission::AdmissionConfig;
        use crate::traffic::TrafficConfig;
        // Slow service (≈400 ms) so 2 admission slots sustain ≈5 qps:
        // `offered_load` is then a true multiple of serving capacity.
        ExperimentConfig {
            deployment: DeploymentConfig {
                regions: 3,
                hosts_per_region: 4,
                max_shards: 5_000,
                ..Default::default()
            },
            workload: WorkloadConfig {
                tables: 8,
                ..Default::default()
            },
            net: NetModelConfig {
                median_service_ms: 400.0,
                ..Default::default()
            },
            duration: SimDuration::from_mins(30),
            rows_per_table: 100,
            host_mtbf: SimDuration::from_days(3_650),
            drains_per_day: 0.0,
            qos: Some(QosConfig {
                traffic: TrafficConfig {
                    capacity_qps: 4.8,
                    offered_load,
                    diurnal_amplitude: 0.4,
                    diurnal_period: SimDuration::from_mins(20),
                    // Interactive offered load (0.2 × 2× = 0.4× capacity)
                    // fits inside its 0.5 weight reservation, so shedding
                    // lands on best-effort/batch by design.
                    class_mix: [0.2, 0.4, 0.4],
                    ..Default::default()
                },
                admission: AdmissionConfig::qos(2),
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn qos_mode_protects_interactive_under_overload() {
        let stats = Experiment::new(qos_overload_config(2.0)).run();
        let q = &stats.qos;
        let offered: u64 = q.classes.iter().map(|c| c.offered).sum();
        assert!(offered > 2_000, "2× overload for 30 min: {offered} arrivals");
        for c in &q.classes {
            assert!(c.offered > 0, "every class sees traffic: {q:?}");
        }
        // Accounting closes: `admitted` counts direct admits plus queue
        // promotions, so admitted + shed + timeouts can exceed offered
        // only by double-counting — and falls short only by entries
        // still pending when the run ends.
        for c in &q.classes {
            assert!(
                c.admitted + c.shed + c.queue_timeouts <= c.offered,
                "overcounted class: {c:?}"
            );
            assert!(
                c.completed + c.failed <= c.admitted,
                "finished more than admitted: {c:?}"
            );
        }
        let interactive = q.sla_met_ratio(QosClass::Interactive);
        let batch = q.sla_met_ratio(QosClass::Batch);
        assert!(
            interactive > batch,
            "priority inversion: interactive {interactive} vs batch {batch}"
        );
        assert!(
            q.class(QosClass::Batch).shed > 0,
            "overload sheds batch: {q:?}"
        );
        assert!(
            interactive > 0.9,
            "interactive protected at 2× overload: {interactive}"
        );
    }

    #[test]
    fn qos_mode_is_deterministic() {
        let a = Experiment::new(qos_overload_config(1.5)).run();
        let b = Experiment::new(qos_overload_config(1.5)).run();
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.queries_ok, b.queries_ok);
        assert_eq!(a.queries_failed, b.queries_failed);
        assert_eq!(a.latency.summary(), b.latency.summary());
    }

    #[test]
    fn region_outage_withdraws_admission_capacity() {
        use crate::fault::FaultKind;
        let config = || {
            let mut c = qos_overload_config(1.0);
            c.faults = FaultScript::new().with(
                FaultKind::RegionOutage { region: 0 },
                SimTime::ZERO + SimDuration::from_mins(10),
                SimDuration::from_mins(10),
            );
            c
        };
        let faulted = Experiment::new(config()).run();
        let healthy = Experiment::new(qos_overload_config(1.0)).run();
        assert_eq!(faulted.fault_injections, 1);
        assert_eq!(faulted.fault_repairs, 1);
        // Withdrawn capacity under the same offered load must shed or
        // time out more than the healthy run.
        let pressure = |s: &ExperimentStats| {
            s.qos
                .classes
                .iter()
                .map(|c| c.shed + c.queue_timeouts)
                .sum::<u64>()
        };
        assert!(
            pressure(&faulted) > pressure(&healthy),
            "outage creates admission pressure: faulted {} vs healthy {}",
            pressure(&faulted),
            pressure(&healthy)
        );
        // Replays bit-identically.
        let again = Experiment::new(config()).run();
        assert_eq!(faulted.qos, again.qos);
    }

    /// A small but complete end-to-end run: every event type fires, the
    /// system stays consistent, and the operational counters populate.
    #[test]
    fn two_day_operational_run() {
        let config = ExperimentConfig {
            deployment: DeploymentConfig {
                regions: 3,
                hosts_per_region: 6,
                max_shards: 10_000,
                ..Default::default()
            },
            workload: WorkloadConfig {
                tables: 10,
                ..Default::default()
            },
            duration: SimDuration::from_days(2),
            query_rate: 0.02,
            rows_per_table: 200,
            // Aggressive failure/drain rates so a 2-day window sees them.
            host_mtbf: SimDuration::from_days(10),
            drains_per_day: 4.0,
            repair_delay: SimDuration::from_hours(2),
            ..Default::default()
        };
        let stats = Experiment::new(config).run();
        let total = stats.queries_ok + stats.queries_failed;
        assert!(total > 1_000, "queries ran: {total}");
        assert!(
            stats.success_ratio() > 0.95,
            "retried success ratio {} (ok {}, failed {})",
            stats.success_ratio(),
            stats.queries_ok,
            stats.queries_failed
        );
        assert_eq!(stats.migrations_per_day.len(), 2);
        assert_eq!(stats.repairs_per_day.len(), 2);
        // 18 hosts / 10-day MTBF ⇒ ~1.8 failures/day expected; at least
        // one over two days with overwhelming probability... but keep the
        // assertion lenient to stay seed-robust.
        let repairs: u64 = stats.repairs_per_day.iter().sum();
        let migrations: u64 = stats.migrations_per_day.iter().sum();
        assert!(repairs + migrations > 0, "some operational churn happened");
        assert!(!stats.final_hotness.is_empty());
        let (hot, cold) = stats.hot_cold_counts();
        assert_eq!(hot + cold, stats.final_hotness.len());
    }
}
