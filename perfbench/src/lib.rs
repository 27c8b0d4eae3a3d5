//! End-to-end benchmark of the scalewall reproduction, on two clocks.
//!
//! * **host** metrics: the wall time the simulator spends (set-up,
//!   queries per host-second, peak memory);
//! * **sim** metrics: what the modelled DBMS delivers (latency
//!   percentiles, failures, SLA attainment).
//!
//! One process runs one workload for one seed. Inputs are generated
//! from the seed before any clock starts; then *rounds* run back to
//! back until `--seconds` have passed. A round builds the deployment
//! from scratch (timed as set-up) and drives the whole workload through
//! it (timed as the run phase). Every round of a seed must produce the
//! same simulated outputs — the benchmark checks a digest of them — so
//! the sim metrics are those of the first round. Each phase is timed in
//! laps that end at fixed points of its work, and a host metric sums
//! each lap's fastest time over the rounds (see [`fastest`]), divided
//! by how much slower than uncontended a calibration kernel timed
//! around the laps ran (see [`calib`] and [`slowdown`]).
//!
//! `--trace 1` alternates traced and untraced rounds: traced rounds
//! record spans around every call the benchmark makes into a layer and
//! yield the per-layer metrics; the untraced ones give the tracing
//! overhead. See `README.md` for the workloads, sizes and metric map.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub mod calib;
pub mod driver;
pub mod fanout;
pub mod metrics;
pub mod overload;
pub mod scan;
pub mod stats;
pub mod trace;

use stats::{median, Quantile};
use trace::{layer_times, Span, Tracer, NO_QUERY};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    Fanout,
    Scan,
    Overload,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Fanout,
        WorkloadName::Scan,
        WorkloadName::Overload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Fanout => "fanout",
            WorkloadName::Scan => "scan",
            WorkloadName::Overload => "overload",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload scale. `Full` is what `BENCHMARK.json` measures; `Smoke`
/// is a tiny version of every workload for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its spans (`None`: keep them in memory
    /// only).
    pub trace_dir: Option<PathBuf>,
}

/// Default seed, and the held-out seed used to confirm that a result
/// does not depend on the seed it was tuned on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7_777;

pub const USAGE: &str = "usage: perfbench --workload <fanout|scan|overload> [--seed N] \
[--seconds S] [--trace 0|1] [--size full|smoke] [--trace-dir DIR]";

pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: WorkloadName::Fanout,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_dir: Some(PathBuf::from(".bench_trace")),
    };
    let mut workload = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadName::parse(&value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                parsed.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => parsed.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    parsed.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(parsed)
}

/// End-to-end sim view of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    pub p50: Option<Quantile>,
    pub p99: Option<Quantile>,
    pub p999: Option<Quantile>,
    pub offered: u64,
    /// Failed, shed or timed out in a queue.
    pub failed: u64,
    pub interactive_offered: u64,
    pub interactive_met: u64,
    pub sla_met: u64,
}

/// Per-layer values one round measured, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One timed piece of work, with the machine's speed around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall seconds the work took.
    pub secs: f64,
    /// Mean time of the calibration kernel run right before and right
    /// after the work (see [`calib`]).
    pub calib: f64,
}

/// Host clock readings of one round.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Set-up, split into its phases (deployment build, then tables —
    /// or a single phase where a workload cannot split it).
    pub setup_laps: Vec<Lap>,
    /// The run phase, split at fixed points of its work ([`LapTimer`]).
    pub run_laps: Vec<Lap>,
    /// Per-layer split of set-up, in wall seconds.
    pub deployment_s: f64,
    pub tables_s: f64,
}

impl Timings {
    /// Wall seconds of the run phase.
    pub fn run_s(&self) -> f64 {
        self.run_laps.iter().map(|l| l.secs).sum()
    }
}

/// Laps a timed phase is split into (at most).
const LAPS: usize = 32;

/// Times a phase in laps that end at fixed points of its work, so every
/// round of a seed splits the same way and the same lap of two rounds
/// did the same work. The calibration kernel runs at the start and at
/// every lap's end, outside the laps, in `calib` spans of its own.
pub struct LapTimer {
    last: Instant,
    calib: f64,
    every: usize,
    done: usize,
    laps: Vec<Lap>,
}

fn calibrate(tracer: &mut Tracer) -> f64 {
    let span = tracer.enter("calib", NO_QUERY);
    let t = calib::sample();
    tracer.exit(span);
    t
}

impl LapTimer {
    /// Start timing a phase of `work` units.
    pub fn start(work: usize, tracer: &mut Tracer) -> Self {
        let calib = calibrate(tracer);
        LapTimer {
            last: Instant::now(),
            calib,
            every: work.div_ceil(LAPS).max(1),
            done: 0,
            laps: Vec::with_capacity(LAPS + 1),
        }
    }

    /// One unit of work done.
    pub fn step(&mut self, tracer: &mut Tracer) {
        self.done += 1;
        if self.done.is_multiple_of(self.every) {
            self.close(tracer);
        }
    }

    fn close(&mut self, tracer: &mut Tracer) {
        let secs = secs(self.last);
        let calib = calibrate(tracer);
        self.laps.push(Lap {
            secs,
            calib: (self.calib + calib) / 2.0,
        });
        self.calib = calib;
        self.last = Instant::now();
    }

    pub fn finish(mut self, tracer: &mut Tracer) -> Vec<Lap> {
        if self.laps.is_empty() || !self.done.is_multiple_of(self.every) {
            self.close(tracer);
        }
        self.laps
    }
}

/// Time `work` as a single lap, inside a span named `span`.
pub fn timed<T>(tracer: &mut Tracer, span: &'static str, work: impl FnOnce() -> T) -> (T, Lap) {
    let laps = LapTimer::start(1, tracer);
    let id = tracer.enter(span, NO_QUERY);
    let out = work();
    tracer.exit(id);
    let lap = laps.finish(tracer)[0];
    (out, lap)
}

/// Wall time of a phase measured over several rounds: each lap's
/// fastest time, summed. Other tenants of the machine only ever slow
/// the program down, for seconds at a time, so the fastest time of each
/// piece of work is the steadiest estimate of its own cost.
fn fastest<'a>(phases: impl Iterator<Item = &'a [Lap]>) -> Result<f64, String> {
    let mut best: Vec<f64> = Vec::new();
    for laps in phases {
        if best.is_empty() {
            best = laps.iter().map(|l| l.secs).collect();
        } else if laps.len() != best.len() {
            return Err(format!(
                "rounds split into {} and {} laps",
                laps.len(),
                best.len()
            ));
        } else {
            for (b, lap) in best.iter_mut().zip(laps) {
                *b = b.min(lap.secs);
            }
        }
    }
    Ok(best.iter().sum())
}

/// Median time of the calibration kernel around the laps of some rounds.
fn calib_median<'a>(rounds: impl Iterator<Item = &'a Timings>) -> f64 {
    let calib: Vec<f64> = rounds
        .flat_map(|t| t.setup_laps.iter().chain(&t.run_laps))
        .map(|l| l.calib)
        .collect();
    median(&calib)
}

/// How much slower than uncontended the machine ran over some rounds.
/// Slow spells last a minute or more, longer than a run, so they move
/// the fastest laps too; dividing a phase's time by this factor takes
/// them out.
fn slowdown<'a>(rounds: impl Iterator<Item = &'a Timings>) -> f64 {
    calib_median(rounds) / calib::NOMINAL_S
}

/// Everything one round reports.
#[derive(Debug, Clone)]
pub struct Round {
    pub digest: u64,
    pub sim: SimOutcome,
    pub timings: Timings,
    pub layers: Layers,
}

/// One workload with its inputs already generated.
pub trait Workload {
    /// Run one round. `check` asks for the full correctness check of
    /// the outputs (made on the first round; later rounds are held to
    /// its digest).
    fn round(&mut self, tracer: &mut Tracer, check: bool) -> Result<Round, String>;
}

pub fn workload(name: WorkloadName, seed: u64, size: Size) -> Box<dyn Workload> {
    match name {
        WorkloadName::Fanout => Box::new(fanout::Fanout::new(seed, size)),
        WorkloadName::Scan => Box::new(scan::Scan::new(seed, size)),
        WorkloadName::Overload => Box::new(overload::Overload::new(seed, size)),
    }
}

/// The final result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub digest: u64,
    /// `(name, value, unit, measured)`; `measured` is false for a
    /// per-layer metric the workload does not exercise (printed as 0).
    pub metrics: Vec<(String, f64, &'static str, bool)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        )
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Rounds a run makes at least; a traced run needs two traced and two
/// untraced rounds.
fn min_rounds(trace: bool) -> usize {
    if trace {
        4
    } else {
        3
    }
}

/// Run one workload for one seed and build its report. Any failed
/// correctness check is an `Err`, and the caller prints no result.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut wl = workload(args.workload, args.seed, args.size);
    calib::prepare();
    let start = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    let mut first_spans: Option<Vec<Span>> = None;
    // Start another round only while it is expected to end within
    // `--seconds`, so a run does not overshoot by a whole round.
    let more = |done: usize| {
        let elapsed = secs(start);
        done < min_rounds(args.trace) || elapsed + elapsed / done as f64 <= args.seconds
    };
    while more(rounds.len()) {
        // A traced run alternates untraced and traced rounds.
        let traced = args.trace && rounds.len() % 2 == 1;
        let mut tracer = Tracer::new(traced);
        let round = wl.round(&mut tracer, rounds.is_empty())?;
        if let Some((first, _)) = rounds.first() {
            if round.digest != first.digest {
                return Err(format!(
                    "round {} simulated different outputs (digest {:016x}, first round {:016x})",
                    rounds.len(),
                    round.digest,
                    first.digest
                ));
            }
        }
        if traced && first_spans.is_none() {
            first_spans = Some(tracer.take());
        }
        rounds.push((round, traced));
    }

    let (first, _) = &rounds[0];
    let picked = |pick: fn(bool) -> bool| {
        rounds
            .iter()
            .filter(move |(_, t)| pick(*t))
            .map(|(r, _)| &r.timings)
    };
    let phase = |f: fn(&Timings) -> &[Lap], pick: fn(bool) -> bool| fastest(picked(pick).map(f));
    // Host seconds on an uncontended machine.
    let scaled = |f: fn(&Timings) -> &[Lap], pick: fn(bool) -> bool| -> Result<f64, String> {
        Ok(phase(f, pick)? / slowdown(picked(pick)))
    };
    let qps = |pick: fn(bool) -> bool| -> Result<f64, String> {
        Ok(first.sim.offered as f64 / scaled(|t| &t.run_laps, pick)?)
    };
    let min_of = |f: fn(&Timings) -> f64| {
        rounds
            .iter()
            .filter(|(_, t)| *t)
            .map(|(r, _)| f(&r.timings))
            .fold(f64::INFINITY, f64::min)
    };
    let attempted: u64 = rounds.iter().map(|(r, _)| r.sim.offered).sum();
    let mut notes = vec![format!(
        "workload {} seed {} size {:?}: {} rounds ({} traced), sim digest {:016x}",
        args.workload.name(),
        args.seed,
        args.size,
        rounds.len(),
        rounds.iter().filter(|(_, t)| *t).count(),
        first.digest
    )];
    let sim = first.sim;
    for (label, q) in [("p50", sim.p50), ("p99", sim.p99), ("p99.9", sim.p999)] {
        if let Some(q) = q {
            notes.push(format!(
                "sim {label} = {:.3} ms over {} successful queries, {} beyond",
                q.value, q.samples, q.beyond
            ));
        }
    }
    let mut metrics = Vec::new();
    if !args.trace {
        let p999 = sim.p999.ok_or("no successful query")?;
        if p999.beyond < 10 && args.size == Size::Full {
            return Err(format!(
                "p99.9 needs at least ten samples beyond it, got {}",
                p999.beyond
            ));
        }
        notes.push(format!(
            "host wall clock: {:.1} queries/s, set-up {:.4} s; calibration kernel {:.1} us ({:.3}x uncontended)",
            first.sim.offered as f64 / phase(|t| &t.run_laps, |_| true)?,
            phase(|t| &t.setup_laps, |_| true)?,
            calib_median(picked(|_| true)) * 1e6,
            slowdown(picked(|_| true)),
        ));
        let values = [
            scaled(|t| &t.setup_laps, |_| true)?,
            qps(|_| true)?,
            peak_rss_mb()?,
            sim.p50.map_or(0.0, |q| q.value),
            sim.p99.map_or(0.0, |q| q.value),
            p999.value,
            stats::ratio(sim.failed, sim.offered),
            stats::ratio(sim.interactive_met, sim.interactive_offered),
            stats::ratio(sim.sla_met, sim.offered),
        ];
        for ((name, unit), value) in metrics::END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, *unit, true));
        }
    } else {
        let traced_qps = qps(|t| t)?;
        let untraced_qps = qps(|t| !t)?;
        let mut layers = Layers::default();
        let run_wall_s = phase(|t| &t.run_laps, |t| !t)?;
        layers.set("host.qps_wall", first.sim.offered as f64 / run_wall_s);
        layers.set("host.setup_wall_s", phase(|t| &t.setup_laps, |t| !t)?);
        layers.set("host.calib_us", calib_median(picked(|t| !t)) * 1e6);
        layers.set("setup.deployment_s", min_of(|t| t.deployment_s));
        layers.set("setup.tables_s", min_of(|t| t.tables_s));
        layers.set("sim.queries", sim.offered as f64);
        layers.set("sim.samples", sim.p50.map_or(0, |q| q.samples) as f64);
        layers.set("sim.p999_beyond", sim.p999.map_or(0, |q| q.beyond) as f64);
        layers.set("trace.host_qps_traced", traced_qps);
        layers.set("trace.host_qps_untraced", untraced_qps);
        layers.set("trace.overhead_ratio", untraced_qps / traced_qps);
        layers.set(
            "trace.spans",
            first_spans.as_ref().map_or(0, Vec::len) as f64,
        );
        layers.set(
            "trace.rounds",
            rounds.iter().filter(|(_, t)| *t).count() as f64,
        );
        notes.push(format!(
            "tracing overhead: {:.1} queries/host-s untraced vs {:.1} traced ({:.3}x)",
            untraced_qps,
            traced_qps,
            untraced_qps / traced_qps
        ));
        for (name, unit) in metrics::per_layer() {
            let traced: Vec<f64> = rounds
                .iter()
                .filter(|(_, t)| *t)
                .filter_map(|(r, _)| r.layers.get(&name))
                .collect();
            let value = layers
                .get(&name)
                .or_else(|| (!traced.is_empty()).then(|| median(&traced)));
            metrics.push((name, value.unwrap_or(0.0), unit, value.is_some()));
        }
        if let (Some(dir), Some(spans)) = (&args.trace_dir, &first_spans) {
            let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
            trace::write_jsonl(&path, spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!(
                "{} spans of the first traced round in {}",
                spans.len(),
                path.display()
            ));
        }
    }
    for (name, value, _, _) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
    }
    Ok(Report {
        attempted,
        digest: first.digest,
        metrics,
        notes,
    })
}

/// Per-span self time in ms, as `self_ms.<span>` metrics.
pub fn self_times(spans: &[Span], layers: &mut Layers) {
    for (name, t) in layer_times(spans) {
        layers.set(&format!("self_ms.{name}"), t.self_ns as f64 / 1e6);
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
