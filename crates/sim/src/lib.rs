//! Deterministic discrete-event simulation substrate for the `scalewall`
//! reproduction of *Interactive Analytic DBMSs: Breaching the Scalability
//! Wall* (ICDE 2021).
//!
//! The paper's evaluation ran on a production fleet of thousands of servers;
//! this crate replaces that hardware with a deterministic simulation kernel:
//!
//! * [`time`] — simulated time as integer nanoseconds ([`SimTime`],
//!   [`SimDuration`]); a simulated week advances event time only.
//! * [`event`] — a total-order event queue with stable tie-breaking, so the
//!   same seed always replays the same history. The production queue is a
//!   hierarchical calendar wheel; the original binary-heap queue survives
//!   as [`ReferenceEventQueue`], the model the wheel is property-tested
//!   against (see `DESIGN.md` §5 for the ordering contract).
//! * [`rng`] — seedable, forkable random source ([`SimRng`]); every stochastic
//!   process in the workspace draws from one of these.
//! * [`fault`] — generic fault-scenario windows (onset / duration / repair)
//!   compiled into a deterministic transition timeline; the substrate for
//!   correlated-failure injection in higher layers.
//! * [`dist`] — the parametric families used by the paper's models:
//!   exponential, normal/log-normal (tail latency), Pareto (heavy tails),
//!   Zipf (access skew), Bernoulli and Poisson processes (failures).
//! * [`stats`] — online statistics: log-bucketed latency histograms with
//!   percentile queries, Welford accumulators, daily time-series counters.
//! * [`sync`] — a poison-free `RwLock` wrapper over `std::sync` (the
//!   workspace is hermetic: no external lock crates).
//! * [`prop`] — a lightweight property-based testing harness over
//!   [`SimRng`], used by every crate's invariant suites.
//! * [`json`] — one JSON value type, strict parser and string quoter,
//!   shared by the lint and microbench reports.
//!
//! Nothing in this crate knows about databases or shards; it is the
//! hardware-and-physics layer everything else runs on.

pub mod dist;
pub mod event;
pub mod fault;
pub mod json;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use dist::{
    Bernoulli, Exponential, LogNormal, Normal, Pareto, PoissonProcess, TailLatency, Zipf,
};
pub use event::{DeadlineQueue, EventQueue, ReferenceEventQueue, ScheduledEvent};
pub use fault::{FaultPhase, FaultTimeline, FaultTransition, FaultWindow};
pub use rng::SimRng;
pub use stats::{DailyCounter, Histogram, Summary, Welford};
pub use time::{SimDuration, SimTime};
