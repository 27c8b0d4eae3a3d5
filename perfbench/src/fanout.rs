//! `fanout`: the fig 5 sweep at fleet scale.
//!
//! One table per fan-out level (1 … 1,024 partitions) on a fleet of
//! thousands of simulated hosts across 3 regions. Each table is queried
//! every 500 ms (open loop; the tables' schedules are staggered so one
//! arrival stream interleaves them), through `run_query` with data
//! execution off and no shard-manager ticking. Nearly all host work is
//! the per-sub-query path — proxy, discovery resolve, node probe,
//! `NetModel` draw and coordinator merge — while the engine, SM/zk and
//! admission stay idle. Servers fail a request with probability 0.2 %,
//! so high fan-outs exercise the proxy's cross-region retries and some
//! queries fail after every region was tried.

use cubrick::admission::QosClass;
use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::workload::standard_schema;
use scalewall_cluster::{Deployment, DeploymentConfig, NetModel, NetModelConfig};
use scalewall_shard_manager::Region;
use scalewall_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::driver::{self, QueryRecord};
use crate::metrics::FANOUTS;
use crate::stats::Digest;
use crate::trace::{Tracer, NO_QUERY};
use crate::{self_times, timed, LapTimer, Layers, Round, Size, Timings, Workload};

/// Sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct FanoutSize {
    pub hosts_per_region: u32,
    /// Fan-out levels used (a prefix of [`FANOUTS`]).
    pub levels: usize,
    /// Queries per level: `subqueries_per_level / fanout`, clamped to
    /// `[min_queries, max_queries]` — fig 5's full-profile budget shape,
    /// so the widest fan-outs do not dominate host time.
    pub subqueries_per_level: u64,
    pub min_queries: u64,
    pub max_queries: u64,
}

impl FanoutSize {
    pub fn of(size: Size) -> Self {
        match size {
            // 3 × 1,040 hosts: every partition of the 1,024-way table
            // gets a host of its own in each region.
            Size::Full => FanoutSize {
                hosts_per_region: 1_040,
                levels: FANOUTS.len(),
                subqueries_per_level: 512_000,
                min_queries: 1_000,
                max_queries: 64_000,
            },
            Size::Smoke => FanoutSize {
                hosts_per_region: 40,
                levels: 5,
                subqueries_per_level: 400,
                min_queries: 20,
                max_queries: 100,
            },
        }
    }

    pub fn queries(&self, fanout: u32) -> u64 {
        (self.subqueries_per_level / u64::from(fanout)).clamp(self.min_queries, self.max_queries)
    }
}

/// Per-table query interval (fig 5's "every 500 ms").
const INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Queries start an hour in, after discovery has propagated.
const START: SimTime = SimTime::from_secs(3_600);
/// Per-request server failure probability: twenty times the paper's
/// 0.01 %, so that enough queries fail in every region the proxy tries
/// (about a thousand per round, mostly at the widest fan-outs) for
/// `fail_ratio` to be steady across seeds.
const SERVER_FAILURE_P: f64 = 2e-3;

#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    level: usize,
    client: u32,
}

pub struct Fanout {
    seed: u64,
    size: FanoutSize,
    queries: Vec<Query>,
    arrivals: Vec<Arrival>,
}

impl Fanout {
    pub fn new(seed: u64, size: Size) -> Self {
        let size = FanoutSize::of(size);
        let mut rng = SimRng::new(seed).fork(1);
        // Each table is queried every `INTERVAL` until its budget is
        // spent; table `l`'s schedule is offset by `l / levels` of an
        // interval so the streams interleave.
        let levels = size.levels as u64;
        let mut arrivals = Vec::new();
        for (level, &f) in FANOUTS[..size.levels].iter().enumerate() {
            let offset = INTERVAL.as_nanos() / levels * level as u64;
            for k in 0..size.queries(f) {
                arrivals.push(Arrival {
                    at: SimTime::from_nanos(START.as_nanos() + offset + k * INTERVAL.as_nanos()),
                    level,
                    client: rng.below(3) as u32,
                });
            }
        }
        let queries = FANOUTS[..size.levels]
            .iter()
            .map(|f| Query::count_star(table(*f)))
            .collect();
        Fanout {
            seed,
            size,
            queries,
            arrivals,
        }
    }
}

fn table(fanout: u32) -> String {
    format!("fanout_{fanout}")
}

impl Workload for Fanout {
    fn round(&mut self, tracer: &mut Tracer, check: bool) -> Result<Round, String> {
        let mut timings = Timings::default();
        let (mut dep, deployment) = timed(tracer, "setup.deployment", || {
            Deployment::new(DeploymentConfig {
                regions: 3,
                hosts_per_region: self.size.hosts_per_region,
                racks_per_region: 8,
                max_shards: 100_000,
                // Rack-aware spread placement costs about 4 s of the 4.5 s
                // set-up at this fleet size. This workload injects no rack
                // faults and its simulated outputs are the same either way;
                // with it, a round took so long that a run held only three
                // and `host_qps` swung with the machine's noise.
                rack_spread: false,
                seed: self.seed,
                ..Default::default()
            })
        });
        timings.deployment_s = deployment.secs;
        let span = tracer.enter("setup.tables", NO_QUERY);
        let mut laps = LapTimer::start(self.size.levels, tracer);
        for &f in &FANOUTS[..self.size.levels] {
            dep.create_table(
                &table(f),
                standard_schema(365),
                f,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            )
            .map_err(|e| format!("creating {}: {e}", table(f)))?;
            laps.step(tracer);
        }
        tracer.exit(span);
        let table_laps = laps.finish(tracer);
        timings.tables_s = table_laps.iter().map(|l| l.secs).sum();
        timings.setup_laps = [vec![deployment], table_laps].concat();

        let net = NetModel::new(NetModelConfig {
            server_failure_probability: SERVER_FAILURE_P,
            ..Default::default()
        });
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut rng = SimRng::new(self.seed).fork(2);
        let mut records: Vec<(usize, QueryRecord)> = Vec::with_capacity(self.arrivals.len());

        let mut laps = LapTimer::start(self.arrivals.len(), tracer);
        let run = tracer.enter("run", NO_QUERY);
        let mut queue: EventQueue<u32> = EventQueue::new();
        for (i, a) in self.arrivals.iter().enumerate() {
            queue.schedule_at(a.at, i as u32);
        }
        while let Some(ev) = queue.pop() {
            let id = u64::from(ev.payload);
            let a = self.arrivals[ev.payload as usize];
            let arrival = tracer.enter("arrival", id);
            let opts = QueryOptions {
                execute_data: false,
                client_region: Region(a.client),
                ..Default::default()
            };
            let call = tracer.enter("driver.run_query", id);
            let outcome = run_query(
                &mut dep,
                &mut proxy,
                &net,
                &self.queries[a.level],
                &opts,
                ev.time,
                &mut rng,
            );
            tracer.exit(call);
            records.push((a.level, QueryRecord::new(QosClass::Interactive, &outcome)));
            tracer.exit(arrival);
            laps.step(tracer);
        }
        tracer.exit(run);
        timings.run_laps = laps.finish(tracer);

        let plain: Vec<QueryRecord> = records.iter().map(|(_, r)| *r).collect();
        if check {
            driver::check_complete(&plain)?;
            for (i, (level, r)) in records.iter().enumerate() {
                if r.success && r.fan_out != FANOUTS[*level] {
                    return Err(format!(
                        "query {i} on the {}-way table fanned out to {}",
                        FANOUTS[*level], r.fan_out
                    ));
                }
            }
        }
        let mut digest = Digest::default();
        for r in &plain {
            r.digest(&mut digest);
        }

        let mut layers = Layers::default();
        driver::counters(&plain, &proxy, &mut layers);
        driver::sm_counters(&dep, &mut layers);
        for (level, p99) in driver::p99_by(&records) {
            layers.set(&format!("coordinator.p99_ms.f{}", FANOUTS[level]), p99);
        }
        if tracer.enabled() {
            let subqueries = layers.get("driver.subqueries").unwrap_or(0.0);
            driver::traced_times(tracer.spans(), subqueries, &mut layers);
            self_times(tracer.spans(), &mut layers);
            let at: Vec<SimTime> = self.arrivals.iter().map(|a| a.at).collect();
            layers.set("event.pop_ns", driver::event_pop_ns(&at));
        }
        Ok(Round {
            digest: digest.value(),
            sim: driver::sim_outcome(&plain),
            timings,
            layers,
        })
    }
}
