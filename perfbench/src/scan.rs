//! `scan`: multi-tenant analytic traffic with real data execution.
//!
//! A `TablePopulation` (log-normal sizes → partition counts, Zipf
//! popularity) is bulk-loaded into a 3-region deployment on the single
//! coordination store. Queries from `gen_query` (a recent `ds` range,
//! `group by ds` on half of them) arrive at a constant rate (open loop)
//! and run through `run_query` with data execution on, so the engine —
//! brick pruning, scans, transient decompressions — does most of the
//! host work. Beside them run the background passes of the experiment
//! engine (`Deployment::tick` on every event, periodic
//! `collect_metrics`, `run_load_balancers`, `decay_pass` and
//! `run_memory_monitor`), a trickle of `Deployment::ingest` appends for
//! the newest `ds`, and one host crash per region (crash, SM failover,
//! restore). Clients are pinned to their own region (the proxy makes no
//! cross-region retry), so region-local faults reach the user.
//!
//! Each host's memory budget is set below the decompressed bytes it
//! serves, so the memory monitor keeps a compressed cold tier while the
//! recent, Zipf-hot bricks stay uncompressed.

use std::collections::BTreeMap;
use std::time::Instant;

use cubrick::admission::QosClass;
use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::result::QueryOutput;
use cubrick::query::{execute_partition, PredOp, Query};
use cubrick::sharding::ShardMapping;
use cubrick::value::{Row, Value};
use scalewall_cluster::deployment::REGION_HOST_STRIDE;
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::workload::{gen_query, gen_rows};
use scalewall_cluster::{
    Deployment, DeploymentConfig, NetModel, NetModelConfig, TablePopulation, TrafficConfig,
    TrafficModel, WorkloadConfig,
};
use scalewall_shard_manager::{HostId, Region};
use scalewall_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::driver::{self, QueryRecord};
use crate::stats::Digest;
use crate::trace::{Tracer, NO_QUERY};
use crate::{self_times, timed, Lap, LapTimer, Layers, Round, Size, Timings, Workload};

/// Sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct ScanSize {
    pub hosts_per_region: u32,
    pub tables: usize,
    pub rows_per_table: usize,
    pub queries: usize,
    /// Simulated arrival rate (queries per sim second).
    pub rate_qps: f64,
    /// One trickle batch of `trickle_rows` rows every `trickle_every`.
    pub trickle_every: SimDuration,
    pub trickle_rows: usize,
    /// Share of a host's decompressed brick bytes its memory budget
    /// leaves room for (dictionaries always fit).
    pub memory_share: f64,
    /// (query, partition) pairs the engine probe times per traced round.
    pub probe_pairs: usize,
}

impl ScanSize {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => ScanSize {
                hosts_per_region: 8,
                tables: 32,
                rows_per_table: 4_000,
                queries: 15_000,
                rate_qps: 2.0,
                trickle_every: SimDuration::from_secs(60),
                trickle_rows: 20,
                memory_share: 0.5,
                probe_pairs: 2_000,
            },
            Size::Smoke => ScanSize {
                hosts_per_region: 4,
                tables: 6,
                rows_per_table: 200,
                queries: 200,
                rate_qps: 0.1,
                trickle_every: SimDuration::from_secs(120),
                trickle_rows: 5,
                memory_share: 0.5,
                probe_pairs: 20,
            },
        }
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.queries as f64 / self.rate_qps)
    }
}

/// Days of `ds` in every table.
const DS_RANGE: i64 = 365;
/// Queries start an hour in, after discovery has propagated.
const START: SimTime = SimTime::from_secs(3_600);
/// Per-request probability of a heavy-tail service time. Kept well below
/// one per thousand queries, so the percentiles measure the body of the
/// service-time distribution under max-of-fan-out (`fanout` measures
/// fig 5's tail).
const TAIL_P: f64 = 1e-5;
/// Each region loses one host for this share of the run.
const CRASH_SHARE: u64 = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Query(u32),
    /// Append trickle batch `i`.
    Ingest(u32),
    CollectMetrics,
    LoadBalance,
    Decay,
    MemoryMonitor,
    Crash(u32),
    Restore(u32),
}

struct Arrival {
    table: usize,
    class: QosClass,
    query: Query,
    client: u32,
}

struct Trickle {
    at: SimTime,
    table: usize,
    rows: Vec<Row>,
}

pub struct Scan {
    seed: u64,
    size: ScanSize,
    population: TablePopulation,
    bulk: Vec<Vec<Row>>,
    arrivals: Vec<Arrival>,
    trickles: Vec<Trickle>,
    /// Crash victim per region (host index within the region).
    victims: Vec<u32>,
    schedule: Vec<(SimTime, Event)>,
    /// Per-host memory budget, below the bytes a host serves.
    host_memory_bytes: u64,
    /// Mean decompressed brick bytes per host after the bulk load.
    host_data_bytes: u64,
}

impl Scan {
    pub fn new(seed: u64, size: Size) -> Self {
        let size = ScanSize::of(size);
        let mut rng = SimRng::new(seed);
        let config = WorkloadConfig {
            tables: size.tables,
            ds_range: DS_RANGE,
            ..Default::default()
        };
        let population = TablePopulation::generate(&config, &mut rng.fork(1));
        let mut load_rng = rng.fork(2);
        let bulk = population
            .tables
            .iter()
            .map(|spec| gen_rows(spec, size.rows_per_table, DS_RANGE, &mut load_rng))
            .collect();
        let traffic = TrafficModel::new(TrafficConfig::default(), size.tables, &mut rng.fork(3));
        let mut query_rng = rng.fork(4);
        let interval = SimDuration::from_secs_f64(1.0 / size.rate_qps);
        let mut schedule = Vec::new();
        let arrivals = (0..size.queries)
            .map(|k| {
                schedule.push((START + interval.mul(k as u64), Event::Query(k as u32)));
                let (table, spec) = population.pick_table_index(&mut query_rng);
                Arrival {
                    table,
                    class: traffic.class_of(table),
                    query: gen_query(spec, DS_RANGE, &mut query_rng),
                    client: query_rng.below(3) as u32,
                }
            })
            .collect();
        let end = START + size.duration();
        let mut trickle_rng = rng.fork(5);
        let mut trickles = Vec::new();
        let mut at = START + size.trickle_every;
        while at < end {
            let (table, spec) = population.pick_table_index(&mut trickle_rng);
            let mut rows = gen_rows(spec, size.trickle_rows, DS_RANGE, &mut trickle_rng);
            for row in &mut rows {
                row.dims[0] = Value::Int(DS_RANGE - 1);
            }
            schedule.push((at, Event::Ingest(trickles.len() as u32)));
            trickles.push(Trickle { at, table, rows });
            at += size.trickle_every;
        }
        for (every, event) in [
            (SimDuration::from_mins(5), Event::CollectMetrics),
            (SimDuration::from_mins(10), Event::LoadBalance),
            (SimDuration::from_mins(30), Event::Decay),
            (SimDuration::from_mins(15), Event::MemoryMonitor),
        ] {
            let mut at = START + every;
            while at < end {
                schedule.push((at, event));
                at += every;
            }
        }
        // One crash per region, at a quarter, half and three quarters of
        // the run; each host comes back `1 / CRASH_SHARE` of the run later.
        let span = size.duration().as_nanos();
        let mut fault_rng = rng.fork(6);
        let victims = (0..3u32)
            .map(|r| {
                let crash = START + SimDuration::from_nanos(span / 4 * (u64::from(r) + 1));
                schedule.push((crash, Event::Crash(r)));
                let back = crash + SimDuration::from_nanos(span / CRASH_SHARE);
                schedule.push((back, Event::Restore(r)));
                fault_rng.below(u64::from(size.hosts_per_region)) as u32
            })
            .collect();
        let mut scan = Scan {
            seed,
            size,
            population,
            bulk,
            arrivals,
            trickles,
            victims,
            schedule,
            host_memory_bytes: u64::MAX / 4,
            host_data_bytes: 0,
        };
        scan.size_memory_budget();
        scan
    }

    fn deployment(&self) -> Deployment {
        Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: self.size.hosts_per_region,
            racks_per_region: 4,
            max_shards: 10_000,
            host_memory_bytes: self.host_memory_bytes,
            seed: self.seed,
            ..Default::default()
        })
    }

    /// Create and bulk-load every table, one lap per table.
    fn load(&self, dep: &mut Deployment, tracer: &mut Tracer) -> Result<Vec<Lap>, String> {
        let mut laps = LapTimer::start(self.population.tables.len(), tracer);
        for (i, spec) in self.population.tables.iter().enumerate() {
            dep.create_table(
                &spec.name,
                spec.schema.clone(),
                spec.partitions,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            )
            .map_err(|e| format!("creating {}: {e}", spec.name))?;
            let ingest = tracer.enter("store.ingest", NO_QUERY);
            dep.ingest(&spec.name, &self.bulk[i])
                .map_err(|e| format!("loading {}: {e}", spec.name))?;
            tracer.exit(ingest);
            laps.step(tracer);
        }
        Ok(laps.finish(tracer))
    }

    /// Load the tables once, before any clock starts, with an unbounded
    /// budget, and measure what region 0's hosts hold: the budget is then
    /// every host's mean dictionary bytes plus `memory_share` of its mean
    /// decompressed brick bytes, so a compressed cold tier must exist.
    fn size_memory_budget(&mut self) {
        let mut dep = self.deployment();
        if self.load(&mut dep, &mut Tracer::new(false)).is_err() {
            // The timed rounds report the same error.
            return;
        }
        let region = &dep.regions[0];
        let store = region.store.read();
        let (mut footprint, mut data, mut hosts) = (0u64, 0u64, 0u64);
        for host in region.nodes.hosts() {
            let Some(node) = region.nodes.node(host) else {
                continue;
            };
            for (table, p) in node.owned_partition_keys() {
                if let Some(d) = store.partition(&table, p) {
                    footprint += d.memory_footprint();
                    data += d.decompressed_bytes();
                }
            }
            hosts += 1;
        }
        let hosts = hosts.max(1);
        self.host_data_bytes = data / hosts;
        self.host_memory_bytes =
            (footprint - data) / hosts + (self.size.memory_share * (data / hosts) as f64) as u64;
    }

    fn table_name(&self, table: usize) -> &str {
        &self.population.tables[table].name
    }
}

/// A query answer reduced to `group key → (sum(clicks), count(*))`.
type Answer = BTreeMap<Option<i64>, (f64, f64)>;

fn answer_of(output: &QueryOutput) -> Result<Answer, String> {
    let mut out = Answer::new();
    for row in &output.rows {
        let key = match row.key.as_slice() {
            [] => None,
            [Value::Int(ds)] => Some(*ds),
            other => return Err(format!("unexpected group key {other:?}")),
        };
        let [sum, count] = row.aggs[..] else {
            return Err(format!("expected 2 aggregates, got {}", row.aggs.len()));
        };
        out.insert(key, (sum, count));
    }
    Ok(out)
}

/// The answer computed directly from the rows the benchmark ingested.
fn naive_answer(query: &Query, rows: &[Row]) -> Answer {
    let (lo, hi) = ds_bounds(query);
    let grouped = !query.group_by.is_empty();
    let mut out = Answer::new();
    for row in rows {
        let Value::Int(ds) = row.dims[0] else {
            continue;
        };
        if ds < lo || ds > hi {
            continue;
        }
        let e = out.entry(grouped.then_some(ds)).or_insert((0.0, 0.0));
        e.0 += row.metrics[0];
        e.1 += 1.0;
    }
    out
}

/// The `ds BETWEEN lo AND hi` bounds `gen_query` puts on every query.
fn ds_bounds(query: &Query) -> (i64, i64) {
    for p in &query.predicates {
        if let (true, PredOp::Between(lo, hi)) = (p.dim == "ds", &p.op) {
            return (*lo, *hi);
        }
    }
    (i64::MIN, i64::MAX)
}

fn digest_output(d: &mut Digest, output: &QueryOutput) {
    d.u64(output.rows.len() as u64);
    d.u64(output.rows_scanned);
    for row in &output.rows {
        for k in &row.key {
            if let Value::Int(v) = k {
                d.u64(*v as u64);
            }
        }
        for a in &row.aggs {
            d.f64(*a);
        }
    }
}

impl Workload for Scan {
    fn round(&mut self, tracer: &mut Tracer, check: bool) -> Result<Round, String> {
        let mut timings = Timings::default();
        let (mut dep, deployment) = timed(tracer, "setup.deployment", || self.deployment());
        timings.deployment_s = deployment.secs;
        let span = tracer.enter("setup.tables", NO_QUERY);
        let table_laps = self.load(&mut dep, tracer)?;
        tracer.exit(span);
        timings.tables_s = table_laps.iter().map(|l| l.secs).sum();
        timings.setup_laps = [vec![deployment], table_laps].concat();

        let net = NetModel::new(NetModelConfig {
            tail_probability: TAIL_P,
            ..Default::default()
        });
        let mut proxy = CubrickProxy::new(ProxyConfig {
            max_retries: 0,
            ..Default::default()
        });
        let mut rng = SimRng::new(self.seed).fork(7);
        let mut records: Vec<QueryRecord> = Vec::with_capacity(self.arrivals.len());
        let mut digest = Digest::default();
        // Rows of each table visible so far (bulk, then trickle batches
        // in order), and per checked query its (arrival, visible rows,
        // answer).
        let mut visible: Vec<Vec<usize>> = vec![Vec::new(); self.bulk.len()];
        let mut answers: Vec<(usize, usize, QueryOutput)> = Vec::new();
        let mut crashed: Vec<Option<HostId>> = vec![None; 3];

        let mut laps = LapTimer::start(self.schedule.len(), tracer);
        let run = tracer.enter("run", NO_QUERY);
        let mut queue: EventQueue<Event> = EventQueue::new();
        for &(at, ev) in &self.schedule {
            queue.schedule_at(at, ev);
        }
        while let Some(ev) = queue.pop() {
            let now = ev.time;
            let id = match ev.payload {
                Event::Query(k) => u64::from(k),
                _ => NO_QUERY,
            };
            let outer = tracer.enter(
                match ev.payload {
                    Event::Query(_) => "arrival",
                    Event::Ingest(_) => "store.ingest",
                    Event::CollectMetrics => "sm.collect_metrics",
                    Event::LoadBalance => "sm.balance",
                    Event::Decay => "hotness.decay",
                    Event::MemoryMonitor => "hotness.monitor",
                    Event::Crash(_) | Event::Restore(_) => "fault",
                },
                id,
            );
            let tick = tracer.enter("sm.tick", id);
            dep.tick(now);
            tracer.exit(tick);
            match ev.payload {
                Event::Query(k) => {
                    let a = &self.arrivals[k as usize];
                    let opts = QueryOptions {
                        execute_data: true,
                        client_region: Region(a.client),
                        qos: a.class,
                        ..Default::default()
                    };
                    let call = tracer.enter("driver.run_query", id);
                    let outcome =
                        run_query(&mut dep, &mut proxy, &net, &a.query, &opts, now, &mut rng);
                    tracer.exit(call);
                    let record = QueryRecord::new(a.class, &outcome);
                    record.digest(&mut digest);
                    if let Some(output) = &outcome.output {
                        digest_output(&mut digest, output);
                        if check {
                            let rows =
                                self.size.rows_per_table + visible[a.table].iter().sum::<usize>();
                            answers.push((k as usize, rows, output.clone()));
                        }
                    }
                    records.push(record);
                }
                Event::Ingest(i) => {
                    let batch = &self.trickles[i as usize];
                    dep.ingest(self.table_name(batch.table), &batch.rows)
                        .map_err(|e| format!("trickle ingest at {:?}: {e}", batch.at))?;
                    visible[batch.table].push(batch.rows.len());
                }
                Event::CollectMetrics => dep.collect_metrics(),
                Event::LoadBalance => {
                    dep.run_load_balancers(now);
                }
                Event::Decay => {
                    for region in &mut dep.regions {
                        let hosts: Vec<HostId> = region.nodes.hosts().collect();
                        for host in hosts {
                            if let Some(node) = region.nodes.node_mut(host) {
                                node.decay_pass();
                            }
                        }
                    }
                }
                Event::MemoryMonitor => {
                    for region in &mut dep.regions {
                        let hosts: Vec<HostId> = region.nodes.hosts().collect();
                        for host in hosts {
                            if let Some(node) = region.nodes.node_mut(host) {
                                node.run_memory_monitor();
                            }
                        }
                    }
                }
                Event::Crash(r) => {
                    let host = HostId(
                        u64::from(r) * REGION_HOST_STRIDE + u64::from(self.victims[r as usize]),
                    );
                    dep.fail_host(r as usize, host, now);
                    crashed[r as usize] = Some(host);
                }
                Event::Restore(r) => {
                    if let Some(host) = crashed[r as usize].take() {
                        if !dep.restore_host(r as usize, host, now) {
                            return Err(format!("host {host:?} could not be restored"));
                        }
                    }
                }
            }
            tracer.exit(outer);
            laps.step(tracer);
        }
        tracer.exit(run);
        timings.run_laps = laps.finish(tracer);

        if check {
            driver::check_complete(&records)?;
            let mut all_rows: Vec<Vec<Row>> = self.bulk.clone();
            for trickle in &self.trickles {
                all_rows[trickle.table].extend(trickle.rows.iter().cloned());
            }
            for (k, rows, output) in &answers {
                let a = &self.arrivals[*k];
                let want = naive_answer(&a.query, &all_rows[a.table][..*rows]);
                let got = answer_of(output)?;
                if got != want {
                    return Err(format!(
                        "query {k} on {} answered {got:?}, naive evaluation gives {want:?}",
                        self.table_name(a.table)
                    ));
                }
            }
            if answers.is_empty() {
                return Err("no query answered".into());
            }
        }

        let mut layers = Layers::default();
        driver::counters(&records, &proxy, &mut layers);
        driver::sm_counters(&dep, &mut layers);
        self.store_counters(&dep, &records, &mut layers);
        if tracer.enabled() {
            let subqueries = layers.get("driver.subqueries").unwrap_or(0.0);
            driver::traced_times(tracer.spans(), subqueries, &mut layers);
            self.traced_times(tracer, &dep, &mut layers);
        }
        Ok(Round {
            digest: digest.value(),
            sim: driver::sim_outcome(&records),
            timings,
            layers,
        })
    }
}

impl Scan {
    /// Store and hotness counters, summed over every region's store.
    fn store_counters(&self, dep: &Deployment, records: &[QueryRecord], layers: &mut Layers) {
        let (mut scanned, mut pruned, mut transient, mut ingested) = (0u64, 0u64, 0u64, 0u64);
        let (mut hot, mut cold, mut ssd) = (0usize, 0usize, 0usize);
        for region in &dep.regions {
            let store = region.store.read();
            for (table, p) in store.keys() {
                let Some(data) = store.partition(&table, p) else {
                    continue;
                };
                let s = data.stats();
                scanned += s.bricks_scanned;
                pruned += s.bricks_pruned;
                transient += s.transient_decompressions;
                ingested += s.rows_ingested;
                let (h, c, e) = data.state_counts();
                hot += h;
                cold += c;
                ssd += e;
            }
        }
        layers.set("store.bricks_scanned", scanned as f64);
        layers.set("store.bricks_pruned", pruned as f64);
        layers.set(
            "store.bricks_per_query",
            crate::stats::ratio(scanned, records.len() as u64),
        );
        layers.set("store.transient_decompressions", transient as f64);
        layers.set("store.rows_ingested", ingested as f64);
        layers.set("hotness.hot_bricks", hot as f64);
        layers.set("hotness.compressed_bricks", cold as f64);
        layers.set("hotness.ssd_bricks", ssd as f64);
        layers.set("hotness.host_budget_bytes", self.host_memory_bytes as f64);
        layers.set("hotness.host_data_bytes", self.host_data_bytes as f64);
    }

    /// Host-time metrics of a traced round, plus the engine probe.
    fn traced_times(&self, tracer: &mut Tracer, dep: &Deployment, layers: &mut Layers) {
        let probe = tracer.enter("engine.probe", NO_QUERY);
        let (ns, bricks) = self.engine_probe(dep);
        tracer.exit(probe);
        layers.set("engine.scan_ns_per_brick", ns / bricks.max(1) as f64);
        layers.set("engine.probe_bricks", bricks as f64);

        let spans = tracer.spans();
        let times = crate::trace::layer_times(spans);
        let total = |name: &str| times.get(name).map_or(0, |t| t.total_ns);
        let count = |name: &str| times.get(name).map_or(0, |t| t.count);
        let rows = layers.get("store.rows_ingested").unwrap_or(0.0);
        if rows > 0.0 {
            layers.set(
                "store.ingest_ns_per_row",
                total("store.ingest") as f64 / rows,
            );
        }
        layers.set(
            "hotness.maintenance_ms",
            (total("hotness.decay") + total("hotness.monitor")) as f64 / 1e6,
        );
        layers.set(
            "sm.tick_us",
            total("sm.tick") as f64 / 1e3 / count("sm.tick").max(1) as f64,
        );
        layers.set("sm.ticks", count("sm.tick") as f64);
        layers.set("sm.balance_ms", total("sm.balance") as f64 / 1e6);
        self_times(spans, layers);
        let at: Vec<SimTime> = self.schedule.iter().map(|(at, _)| *at).collect();
        layers.set("event.pop_ns", driver::event_pop_ns(&at));
    }

    /// Time cubrick's scan entry (`execute_partition`) on the round's own
    /// (query, partition) pairs, against copies of region 0's partitions
    /// taken after the run, so the simulated state is never touched.
    /// Returns (nanoseconds, bricks scanned).
    fn engine_probe(&self, dep: &Deployment) -> (f64, u64) {
        let step = (self.arrivals.len() / self.size.probe_pairs.max(1)).max(1);
        let store = dep.regions[0].store.read();
        let mut ns = 0.0;
        let mut bricks = 0u64;
        for (k, a) in self.arrivals.iter().enumerate().step_by(step) {
            let spec = &self.population.tables[a.table];
            let p = (k as u32) % spec.partitions;
            let Some(data) = store.partition(&spec.name, p) else {
                continue;
            };
            let mut copy = data.clone();
            let before = copy.stats().bricks_scanned;
            let t = Instant::now();
            let result = execute_partition(&mut copy, &a.query, spec.partitions);
            ns += t.elapsed().as_nanos() as f64;
            std::hint::black_box(result.ok());
            bricks += copy.stats().bricks_scanned - before;
        }
        (ns, bricks)
    }
}
