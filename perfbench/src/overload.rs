//! `overload`: QoS serving through `Experiment::run`.
//!
//! The `fig_qos_sla` cell at 2× offered capacity with classful
//! shedding, degraded partial results and the replicated 3-node
//! coordination plane, plus a region outage centred on the diurnal
//! peak, an evening flash crowd and a drain storm. Admission, traffic
//! and the degraded merge decide the sim metrics; the replicated plane
//! dominates host time. Unlike `fanout`, this workload writes the
//! SM/zk/discovery state (failovers, session moves, migrations).
//!
//! The experiment owns its deployment, so set-up is one timed call
//! (`Experiment::new`: deployment, tables and bulk ingest) and the run
//! phase one more (`Experiment::run`); host time is not split further.

use cubrick::admission::{AdmissionConfig, QosClass};
use scalewall_cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall_cluster::traffic::ClassCounters;
use scalewall_cluster::workload::WorkloadConfig;
use scalewall_cluster::{
    Deployment, DeploymentConfig, FaultKind, FaultScript, FlashCrowd, NetModelConfig, QosConfig,
    TrafficConfig,
};
use scalewall_sim::{SimDuration, SimTime};
use scalewall_zk::ZkReplicationConfig;
use std::time::Instant;

use crate::stats::{Digest, Quantile};
use crate::trace::{Tracer, NO_QUERY};
use crate::{secs, self_times, timed, Layers, Round, SimOutcome, Size, Timings, Workload};

/// Sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSize {
    pub hosts_per_region: u32,
    pub tables: usize,
    pub rows_per_table: usize,
    pub slots: usize,
    pub duration: SimDuration,
}

impl OverloadSize {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => OverloadSize {
                hosts_per_region: 4,
                tables: 1_000,
                rows_per_table: 20,
                slots: 3,
                duration: SimDuration::from_mins(60),
            },
            Size::Smoke => OverloadSize {
                hosts_per_region: 3,
                tables: 8,
                rows_per_table: 20,
                slots: 2,
                duration: SimDuration::from_mins(4),
            },
        }
    }
}

/// Offered load as a multiple of serving capacity.
pub const OFFERED_LOAD: f64 = 2.0;
/// Zipf exponent of tenant popularity. QoS classes are sticky per
/// tenant, so with few tenants or a steep skew the class mix of the
/// traffic — and every SLA figure — would hinge on the class the seed
/// happens to give the hottest tenant. Many tenants under a mild skew
/// keep the traffic's class mix near `class_mix` for every seed.
pub const POPULARITY_S: f64 = 0.3;

/// The experiment behind one round: `fig_qos_sla`'s 2× shedding cell
/// with the replicated plane and a drain storm added.
pub fn config(seed: u64, size: OverloadSize) -> ExperimentConfig {
    let duration = size.duration;
    let frac = |num: u64, den: u64| SimDuration::from_nanos(duration.as_nanos() / den * num);
    let outage = frac(1, 12);
    let outage_onset = SimTime::from_nanos((duration.as_nanos() - outage.as_nanos()) / 2);
    let faults = FaultScript::new()
        .with(FaultKind::RegionOutage { region: 0 }, outage_onset, outage)
        .with(
            FaultKind::DrainStorm {
                region: 1,
                drains: 2,
            },
            SimTime::ZERO + frac(1, 4),
            frac(1, 12),
        );
    let mut deployment = DeploymentConfig {
        regions: 3,
        hosts_per_region: size.hosts_per_region,
        max_shards: 5_000,
        seed,
        ..Default::default()
    };
    deployment.sm.replication = Some(ZkReplicationConfig {
        replicas: 3,
        ..Default::default()
    });
    ExperimentConfig {
        deployment,
        workload: WorkloadConfig {
            tables: size.tables,
            table_popularity_s: POPULARITY_S,
            ..Default::default()
        },
        net: NetModelConfig {
            median_service_ms: 400.0,
            ..Default::default()
        },
        duration,
        rows_per_table: size.rows_per_table,
        host_mtbf: SimDuration::from_days(3_650),
        drains_per_day: 0.0,
        faults,
        seed,
        qos: Some(QosConfig {
            traffic: TrafficConfig {
                capacity_qps: size.slots as f64 * 0.8,
                offered_load: OFFERED_LOAD,
                diurnal_amplitude: 0.5,
                diurnal_period: duration,
                flash_crowds: vec![FlashCrowd {
                    at: SimTime::ZERO + frac(3, 4),
                    duration: frac(1, 24),
                    multiplier: 2.0,
                }],
                class_mix: [0.2, 0.4, 0.4],
            },
            admission: AdmissionConfig::qos(size.slots),
            degraded: true,
            ..Default::default()
        }),
        ..Default::default()
    }
}

pub struct Overload {
    config: ExperimentConfig,
}

impl Overload {
    pub fn new(seed: u64, size: Size) -> Self {
        Overload {
            config: config(seed, OverloadSize::of(size)),
        }
    }
}

/// `completed + failed == admitted` and `admitted + shed +
/// queue_timeouts <= offered` per class; every fault window opened and
/// closed.
pub fn check(stats: &ExperimentStats, windows: u64) -> Result<(), String> {
    for class in QosClass::ALL {
        let c = stats.qos.class(class);
        if c.completed + c.failed != c.admitted {
            return Err(format!(
                "{}: completed {} + failed {} != admitted {}",
                class.name(),
                c.completed,
                c.failed,
                c.admitted
            ));
        }
        if c.admitted + c.shed + c.queue_timeouts > c.offered {
            return Err(format!(
                "{}: admitted {} + shed {} + queue timeouts {} > offered {}",
                class.name(),
                c.admitted,
                c.shed,
                c.queue_timeouts,
                c.offered
            ));
        }
    }
    if stats.fault_injections != windows || stats.fault_repairs != windows {
        return Err(format!(
            "{} fault windows scripted, {} opened, {} closed",
            windows, stats.fault_injections, stats.fault_repairs
        ));
    }
    Ok(())
}

fn digest(stats: &ExperimentStats) -> u64 {
    let mut d = Digest::default();
    for v in [
        stats.queries_ok,
        stats.queries_failed,
        stats.drains_requested,
        stats.drains_denied,
        stats.fault_injections,
        stats.fault_repairs,
        stats.failover_migrations,
        stats.region_failovers,
        stats.same_table_collisions,
        stats.population_fingerprint,
        stats.zk_failovers,
        stats.zk_session_moves,
        stats.latency.count(),
    ] {
        d.u64(v);
    }
    for v in stats
        .migrations_per_day
        .iter()
        .chain(&stats.repairs_per_day)
    {
        d.u64(*v);
    }
    let s = stats.latency.summary();
    for v in [s.p50, s.p90, s.p99, s.p999, s.max, stats.latency.mean()] {
        d.f64(v);
    }
    for c in &stats.qos.classes {
        for v in counters(c)
            .map(|(_, v)| v)
            .into_iter()
            .chain([c.completed, c.sla_met])
        {
            d.u64(v);
        }
    }
    d.value()
}

fn counters(c: &ClassCounters) -> [(&'static str, u64); 7] {
    [
        ("offered", c.offered),
        ("admitted", c.admitted),
        ("queued", c.queued),
        ("shed", c.shed),
        ("queue_timeouts", c.queue_timeouts),
        ("partials", c.partials),
        ("failed", c.failed),
    ]
}

/// Growth factor of `Histogram::latency_ms` buckets.
const BUCKET_GROWTH: f64 = 1.05;

/// Percentile of the experiment's 5 %-bucket latency histogram, with
/// the number of successful queries beyond its rank. The histogram
/// reports a bucket's upper edge, which is the same for every seed
/// whenever the percentile moves by less than a bucket; the value is
/// therefore interpolated linearly within the bucket, from the ranks at
/// which the reported edge starts and stops (read back through
/// `Histogram::quantile`).
fn hist_quantile(stats: &ExperimentStats, q: f64) -> Option<Quantile> {
    let hist = &stats.latency;
    let n = hist.count() as usize;
    if n == 0 {
        return None;
    }
    // The reported value of the sample at 1-based rank `k`.
    let at = |k: usize| hist.quantile((k as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let upper = at(rank);
    // First and last rank whose sample falls in the same bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let lower = upper / BUCKET_GROWTH;
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    Some(Quantile {
        value: lower + (upper - lower) * share,
        samples: n,
        beyond: n - rank,
    })
}

fn sim_outcome(stats: &ExperimentStats) -> SimOutcome {
    let classes = &stats.qos.classes;
    let sum = |f: fn(&ClassCounters) -> u64| classes.iter().map(f).sum::<u64>();
    let interactive = stats.qos.class(QosClass::Interactive);
    SimOutcome {
        p50: hist_quantile(stats, 0.5),
        p99: hist_quantile(stats, 0.99),
        p999: hist_quantile(stats, 0.999),
        offered: sum(|c| c.offered),
        failed: sum(|c| c.failed + c.shed + c.queue_timeouts),
        interactive_offered: interactive.offered,
        interactive_met: interactive.sla_met,
        sla_met: sum(|c| c.sla_met),
    }
}

impl Workload for Overload {
    fn round(&mut self, tracer: &mut Tracer, check_outputs: bool) -> Result<Round, String> {
        let mut timings = Timings::default();
        if tracer.enabled() {
            // The experiment builds its deployment inside `new`; a
            // stand-alone build of the same deployment splits set-up.
            let t = Instant::now();
            let span = tracer.enter("setup.deployment", NO_QUERY);
            let probe = Deployment::new(self.config.deployment.clone());
            tracer.exit(span);
            timings.deployment_s = secs(t);
            drop(probe);
        }
        let (experiment, setup) = timed(tracer, "setup.experiment", || {
            Experiment::new(self.config.clone())
        });
        timings.setup_laps = vec![setup];
        timings.tables_s = (setup.secs - timings.deployment_s).max(0.0);

        let (stats, run) = timed(tracer, "experiment.run", || experiment.run());
        timings.run_laps = vec![run];

        let windows = self.config.faults.windows().len() as u64;
        if check_outputs {
            check(&stats, windows)?;
        }
        let mut layers = Layers::default();
        for class in QosClass::ALL {
            for (counter, v) in counters(stats.qos.class(class)) {
                layers.set(&format!("admission.{counter}.{}", class.name()), v as f64);
            }
        }
        let migrations: u64 = stats.migrations_per_day.iter().sum();
        layers.set("sm.migrations", migrations as f64);
        layers.set("sm.failover_migrations", stats.failover_migrations as f64);
        layers.set("zk.failovers", stats.zk_failovers as f64);
        layers.set("zk.session_moves", stats.zk_session_moves as f64);
        layers.set("proxy.region_failovers", stats.region_failovers as f64);
        layers.set("sim.fault_windows", windows as f64);
        layers.set(
            "driver.queries",
            (stats.queries_ok + stats.queries_failed) as f64,
        );
        if tracer.enabled() {
            layers.set("experiment.run_s", timings.run_s());
            self_times(tracer.spans(), &mut layers);
        }
        Ok(Round {
            digest: digest(&stats),
            sim: sim_outcome(&stats),
            timings,
            layers,
        })
    }
}
