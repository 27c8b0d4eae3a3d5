//! The Cubrick query proxy (§IV-C, §IV-D).
//!
//! Every query enters through a stateless proxy service which: picks the
//! most suitable *region* (availability, then proximity), picks the
//! *coordinator partition* (randomized via a partition-count cache, the
//! fourth and final strategy of §IV-C), enforces admission control,
//! blacklists repeatedly-failing hosts, and transparently retries
//! retryable failures in another region.
//!
//! The proxy holds no query state; the cluster driver calls these policy
//! methods around its simulated network operations.

use std::collections::BTreeMap;

use scalewall_shard_manager::{HostId, Region};
use scalewall_sim::{SimDuration, SimRng, SimTime};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, QosClass};
use crate::error::{CubrickError, CubrickResult};

/// The coordinator-selection strategies Cubrick iterated through (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorStrategy {
    /// 1. Always forward to partition 0 — imbalanced coordinators.
    AlwaysPartitionZero,
    /// 2. Partition 0 forwards to a random partition — extra network hop.
    ForwardFromZero,
    /// 3. Fetch the current partition count first — extra round trip.
    QueryThenRandom,
    /// 4. Cached partition count, random partition — production strategy.
    CachedRandom,
    /// 5. QoS extension: cached count, power-of-two-choices over the
    /// proxy's per-coordinator in-flight depth (pick the less loaded of
    /// two random partitions). Costs exactly what `CachedRandom` costs;
    /// the depth signal is proxy-local, no extra round trip.
    QueueAwareTwoChoice,
}

/// The outcome of coordinator selection, including the costs the strategy
/// incurs (the Fig 5-adjacent trade-offs of §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorChoice {
    pub partition: u32,
    /// Strategy needed an extra metadata round trip before the query.
    pub extra_roundtrip: bool,
    /// Strategy routes through partition 0 first (extra data hop).
    pub extra_hop: bool,
}

/// Proxy tunables.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// Retries across regions for retryable errors.
    pub max_retries: u32,
    /// Consecutive failures before a host is blacklisted.
    pub blacklist_threshold: u32,
    /// How long a blacklisted host stays out of rotation.
    pub blacklist_ttl: SimDuration,
    /// Admission control. The default flat gate
    /// (`AdmissionConfig::flat(10_000)`) admits up to 10,000 concurrent
    /// queries and sheds the rest, exactly the pre-QoS
    /// `admit()`/`complete()` pair; `AdmissionConfig::qos` opts into
    /// classful mode.
    pub admission: AdmissionConfig,
    /// Depth-aware region spill: prefer the client's region unless its
    /// in-flight depth exceeds the least-loaded alternative by more
    /// than this. Depths are only tracked by the QoS experiment loop,
    /// so legacy callers (all depths zero) never spill.
    pub region_spill_threshold: u32,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            max_retries: 2,
            blacklist_threshold: 3,
            blacklist_ttl: SimDuration::from_mins(5),
            admission: AdmissionConfig::flat(10_000),
            region_spill_threshold: 8,
        }
    }
}

/// Operational counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    pub queries: u64,
    pub retries: u64,
    pub region_failovers: u64,
    pub rejected_admission: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub hosts_blacklisted: u64,
}

#[derive(Debug, Clone, Copy)]
struct BlacklistEntry {
    consecutive_failures: u32,
    blacklisted_until: Option<SimTime>,
}

/// The proxy.
#[derive(Debug)]
pub struct CubrickProxy {
    config: ProxyConfig,
    /// Cached partition count per table — refreshed from query result
    /// metadata, never by a dedicated round trip.
    partition_cache: BTreeMap<String, u32>,
    blacklist: BTreeMap<HostId, BlacklistEntry>,
    /// The QoS admission controller (a flat single-pool gate unless
    /// `ProxyConfig::admission` opts into classful mode).
    admission: AdmissionController,
    /// In-flight queries currently served per region (maintained by the
    /// QoS experiment loop via `note_region_start`/`note_region_done`).
    region_inflight: BTreeMap<u32, u32>,
    /// In-flight queries per (table, coordinator partition) — the
    /// `QueueAwareTwoChoice` depth signal.
    coordinator_inflight: BTreeMap<(String, u32), u32>,
    pub stats: ProxyStats,
}

impl CubrickProxy {
    pub fn new(config: ProxyConfig) -> Self {
        CubrickProxy {
            config,
            partition_cache: BTreeMap::new(),
            blacklist: BTreeMap::new(),
            admission: AdmissionController::new(config.admission),
            region_inflight: BTreeMap::new(),
            coordinator_inflight: BTreeMap::new(),
            stats: ProxyStats::default(),
        }
    }

    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    // ------------------------------------------------------------- admission

    /// Admit a query or reject it. Callers must pair every successful
    /// `admit` with a `complete`. Legacy entry point: class defaults to
    /// `Interactive`, which in the flat (default) controller is
    /// indistinguishable from the old counter gate.
    pub fn admit(&mut self) -> CubrickResult<()> {
        self.admit_class(QosClass::Interactive)
    }

    /// Class-aware admit: `Admit` or `Shed` only — queueing decisions
    /// are made by `offer()` callers that can park a query (the
    /// experiment event loop); the synchronous query path cannot wait.
    pub fn admit_class(&mut self, class: QosClass) -> CubrickResult<()> {
        let in_flight = self.admission.total_in_flight();
        match self.admission.offer(class, SimTime::ZERO) {
            AdmissionDecision::Admit => {
                self.stats.queries += 1;
                Ok(())
            }
            AdmissionDecision::Queued { ticket, .. } => {
                // The synchronous path cannot park; treat as shed.
                self.admission.cancel_queued(ticket);
                self.stats.rejected_admission += 1;
                Err(CubrickError::AdmissionRejected {
                    detail: format!("{in_flight} queries in flight"),
                })
            }
            AdmissionDecision::Shed => {
                self.stats.rejected_admission += 1;
                Err(CubrickError::AdmissionRejected {
                    detail: format!("{in_flight} queries in flight"),
                })
            }
        }
    }

    pub fn complete(&mut self) {
        self.complete_class(QosClass::Interactive);
    }

    pub fn complete_class(&mut self, class: QosClass) {
        self.admission.complete(class);
    }

    pub fn active_queries(&self) -> usize {
        self.admission.total_in_flight()
    }

    /// Direct access to the admission controller (the QoS experiment
    /// drives `offer`/`next_runnable`/`expire_due` through this).
    pub fn admission_mut(&mut self) -> &mut AdmissionController {
        &mut self.admission
    }

    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    // --------------------------------------------------------------- regions

    /// Pick the region to dispatch to: the client's own region when
    /// available and not overloaded, otherwise the least-loaded
    /// available other region (depth ties broken by region id).
    /// Proximity first, then availability (§IV-D); the depth-aware
    /// spill is the QoS extension — with no depth tracking (all zero,
    /// every legacy caller) the choice is byte-identical to the old
    /// proximity-then-lowest-id rule.
    pub fn choose_region(
        &self,
        regions: &[(Region, bool)],
        client_region: Region,
        exclude: &[Region],
    ) -> CubrickResult<Region> {
        let candidates: Vec<Region> = {
            let mut v: Vec<Region> = regions
                .iter()
                .filter(|&&(r, up)| up && !exclude.contains(&r))
                .map(|&(r, _)| r)
                .collect();
            v.sort_by_key(|r| r.0);
            v
        };
        let least = candidates
            .iter()
            .copied()
            .min_by_key(|r| (self.region_depth(*r), r.0));
        if candidates.contains(&client_region) {
            let client_depth = self.region_depth(client_region);
            let spill_floor = least.map(|r| self.region_depth(r)).unwrap_or(0);
            if client_depth <= spill_floor.saturating_add(self.config.region_spill_threshold) {
                return Ok(client_region);
            }
        }
        least.ok_or(CubrickError::NoAvailableRegion)
    }

    /// In-flight depth of one region (0 unless the QoS loop tracks it).
    pub fn region_depth(&self, region: Region) -> u32 {
        self.region_inflight.get(&region.0).copied().unwrap_or(0)
    }

    /// Note a query starting/finishing in `region` (QoS loop bookkeeping).
    pub fn note_region_start(&mut self, region: Region) {
        *self.region_inflight.entry(region.0).or_insert(0) += 1;
    }

    pub fn note_region_done(&mut self, region: Region) {
        if let Some(d) = self.region_inflight.get_mut(&region.0) {
            *d = d.saturating_sub(1);
            if *d == 0 {
                self.region_inflight.remove(&region.0);
            }
        }
    }

    // ---------------------------------------------------------- coordinators

    /// Select the coordinator partition under a strategy.
    ///
    /// `actual_partitions` stands in for the metadata service answer the
    /// `QueryThenRandom` strategy pays a round trip for; other strategies
    /// must not rely on it.
    pub fn choose_coordinator(
        &mut self,
        table: &str,
        strategy: CoordinatorStrategy,
        actual_partitions: u32,
        rng: &mut SimRng,
    ) -> CoordinatorChoice {
        match strategy {
            CoordinatorStrategy::AlwaysPartitionZero => CoordinatorChoice {
                partition: 0,
                extra_roundtrip: false,
                extra_hop: false,
            },
            CoordinatorStrategy::ForwardFromZero => CoordinatorChoice {
                partition: (rng.below(actual_partitions.max(1) as u64)) as u32,
                extra_roundtrip: false,
                extra_hop: true,
            },
            CoordinatorStrategy::QueryThenRandom => CoordinatorChoice {
                partition: (rng.below(actual_partitions.max(1) as u64)) as u32,
                extra_roundtrip: true,
                extra_hop: false,
            },
            CoordinatorStrategy::CachedRandom => match self.partition_cache.get(table) {
                Some(&cached) => {
                    self.stats.cache_hits += 1;
                    CoordinatorChoice {
                        partition: (rng.below(cached.max(1) as u64)) as u32,
                        extra_roundtrip: false,
                        extra_hop: false,
                    }
                }
                None => {
                    // Cold cache: pay the round trip once; metadata from
                    // the first result will populate the cache.
                    self.stats.cache_misses += 1;
                    CoordinatorChoice {
                        partition: (rng.below(actual_partitions.max(1) as u64)) as u32,
                        extra_roundtrip: true,
                        extra_hop: false,
                    }
                }
            },
            CoordinatorStrategy::QueueAwareTwoChoice => {
                let (count, extra_roundtrip) = match self.partition_cache.get(table) {
                    Some(&cached) => {
                        self.stats.cache_hits += 1;
                        (cached, false)
                    }
                    None => {
                        self.stats.cache_misses += 1;
                        (actual_partitions, true)
                    }
                };
                let n = count.max(1) as u64;
                let a = rng.below(n) as u32;
                let b = rng.below(n) as u32;
                let partition = if self.coordinator_depth(table, b) < self.coordinator_depth(table, a)
                {
                    b
                } else {
                    a
                };
                CoordinatorChoice {
                    partition,
                    extra_roundtrip,
                    extra_hop: false,
                }
            }
        }
    }

    /// In-flight depth of one coordinator partition (the
    /// `QueueAwareTwoChoice` signal; 0 unless the QoS loop tracks it).
    pub fn coordinator_depth(&self, table: &str, partition: u32) -> u32 {
        self.coordinator_inflight
            .get(&(table.to_string(), partition))
            .copied()
            .unwrap_or(0)
    }

    /// Note a query starting/finishing on a coordinator (QoS loop
    /// bookkeeping, paired like `note_region_start`/`done`).
    pub fn note_coordinator_start(&mut self, table: &str, partition: u32) {
        *self
            .coordinator_inflight
            .entry((table.to_string(), partition))
            .or_insert(0) += 1;
    }

    pub fn note_coordinator_done(&mut self, table: &str, partition: u32) {
        if let Some(d) = self
            .coordinator_inflight
            .get_mut(&(table.to_string(), partition))
        {
            *d = d.saturating_sub(1);
            if *d == 0 {
                self.coordinator_inflight.remove(&(table.to_string(), partition));
            }
        }
    }

    /// Refresh the partition-count cache from query result metadata
    /// ("the number of partitions per table is always included as part of
    /// query results metadata, and updates the proxy's cache").
    pub fn record_result_metadata(&mut self, table: &str, partitions: u32) {
        self.partition_cache.insert(table.to_string(), partitions);
    }

    pub fn cached_partitions(&self, table: &str) -> Option<u32> {
        self.partition_cache.get(table).copied()
    }

    // ------------------------------------------------------------ blacklists

    /// Record a host-attributed failure; blacklists the host once the
    /// threshold is crossed. A host whose blacklist TTL has lapsed but
    /// keeps failing is re-blacklisted (the old `is_none()` guard made
    /// an expired entry permanent immunity: once `blacklisted_until`
    /// held any stale time, no further streak could ever re-arm it).
    pub fn record_host_failure(&mut self, host: HostId, now: SimTime) {
        let entry = self.blacklist.entry(host).or_insert(BlacklistEntry {
            consecutive_failures: 0,
            blacklisted_until: None,
        });
        entry.consecutive_failures += 1;
        let currently_blacklisted = entry.blacklisted_until.is_some_and(|until| now < until);
        if entry.consecutive_failures >= self.config.blacklist_threshold && !currently_blacklisted {
            entry.blacklisted_until = Some(now + self.config.blacklist_ttl);
            self.stats.hosts_blacklisted += 1;
        }
    }

    /// A success clears the failure streak and any blacklist.
    pub fn record_host_success(&mut self, host: HostId) {
        self.blacklist.remove(&host);
    }

    pub fn is_blacklisted(&self, host: HostId, now: SimTime) -> bool {
        self.blacklist
            .get(&host)
            .and_then(|e| e.blacklisted_until)
            .is_some_and(|until| now < until)
    }

    // --------------------------------------------------------------- retries

    /// Whether the proxy should retry after `error` on attempt `attempt`
    /// (0-based), and count it if so.
    pub fn should_retry(&mut self, error: &CubrickError, attempt: u32) -> bool {
        if attempt >= self.config.max_retries || !error.proxy_retryable() {
            return false;
        }
        self.stats.retries += 1;
        self.stats.region_failovers += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy() -> CubrickProxy {
        CubrickProxy::new(ProxyConfig::default())
    }

    #[test]
    fn admission_control_caps_concurrency() {
        let mut p = CubrickProxy::new(ProxyConfig {
            admission: AdmissionConfig::flat(2),
            ..Default::default()
        });
        p.admit().unwrap();
        p.admit().unwrap();
        assert!(matches!(
            p.admit(),
            Err(CubrickError::AdmissionRejected { .. })
        ));
        p.complete();
        p.admit().unwrap();
        assert_eq!(p.stats.rejected_admission, 1);
        assert_eq!(p.stats.queries, 3);
    }

    #[test]
    fn region_choice_prefers_client_then_failover() {
        let p = proxy();
        let regions = [(Region(0), true), (Region(1), true), (Region(2), true)];
        assert_eq!(
            p.choose_region(&regions, Region(1), &[]).unwrap(),
            Region(1)
        );
        // Client region down → lowest available.
        let regions = [(Region(0), true), (Region(1), false), (Region(2), true)];
        assert_eq!(
            p.choose_region(&regions, Region(1), &[]).unwrap(),
            Region(0)
        );
        // Excluded (already tried) regions skipped.
        assert_eq!(
            p.choose_region(&regions, Region(1), &[Region(0)]).unwrap(),
            Region(2)
        );
        // Nothing left.
        assert!(matches!(
            p.choose_region(&regions, Region(1), &[Region(0), Region(2)]),
            Err(CubrickError::NoAvailableRegion)
        ));
    }

    #[test]
    fn strategy_one_always_zero() {
        let mut p = proxy();
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            let c =
                p.choose_coordinator("t", CoordinatorStrategy::AlwaysPartitionZero, 8, &mut rng);
            assert_eq!(c.partition, 0);
            assert!(!c.extra_hop && !c.extra_roundtrip);
        }
    }

    #[test]
    fn strategy_two_random_with_extra_hop() {
        let mut p = proxy();
        let mut rng = SimRng::new(2);
        let choices: Vec<u32> = (0..50)
            .map(|_| {
                let c =
                    p.choose_coordinator("t", CoordinatorStrategy::ForwardFromZero, 8, &mut rng);
                assert!(c.extra_hop && !c.extra_roundtrip);
                c.partition
            })
            .collect();
        assert!(choices.iter().any(|&x| x != choices[0]), "must randomize");
        assert!(choices.iter().all(|&x| x < 8));
    }

    #[test]
    fn strategy_three_random_with_roundtrip() {
        let mut p = proxy();
        let mut rng = SimRng::new(3);
        let c = p.choose_coordinator("t", CoordinatorStrategy::QueryThenRandom, 8, &mut rng);
        assert!(c.extra_roundtrip && !c.extra_hop);
    }

    #[test]
    fn strategy_four_uses_cache() {
        let mut p = proxy();
        let mut rng = SimRng::new(4);
        // Cold: one round trip, counts a miss.
        let c = p.choose_coordinator("t", CoordinatorStrategy::CachedRandom, 8, &mut rng);
        assert!(c.extra_roundtrip);
        assert_eq!(p.stats.cache_misses, 1);
        // Result metadata fills the cache.
        p.record_result_metadata("t", 8);
        let c = p.choose_coordinator("t", CoordinatorStrategy::CachedRandom, 8, &mut rng);
        assert!(!c.extra_roundtrip && !c.extra_hop);
        assert_eq!(p.stats.cache_hits, 1);
        assert!(c.partition < 8);
        // Re-partition: metadata refresh updates the cache.
        p.record_result_metadata("t", 16);
        assert_eq!(p.cached_partitions("t"), Some(16));
        let seen: std::collections::HashSet<u32> = (0..200)
            .map(|_| {
                p.choose_coordinator("t", CoordinatorStrategy::CachedRandom, 16, &mut rng)
                    .partition
            })
            .collect();
        assert!(
            seen.iter().any(|&x| x >= 8),
            "new partitions get coordinator traffic"
        );
    }

    #[test]
    fn blacklist_flow() {
        let mut p = proxy();
        let h = HostId(9);
        let t0 = SimTime::from_secs(100);
        for _ in 0..2 {
            p.record_host_failure(h, t0);
        }
        assert!(!p.is_blacklisted(h, t0), "below threshold");
        p.record_host_failure(h, t0);
        assert!(p.is_blacklisted(h, t0));
        assert_eq!(p.stats.hosts_blacklisted, 1);
        // TTL expiry.
        let later = t0 + SimDuration::from_mins(6);
        assert!(!p.is_blacklisted(h, later));
        // Success clears state entirely.
        p.record_host_failure(h, t0);
        p.record_host_success(h);
        assert!(!p.is_blacklisted(h, t0));
    }

    #[test]
    fn blacklist_expiry_at_sim_clock_boundary() {
        // `is_blacklisted` is exclusive at the boundary: a host whose TTL
        // ends exactly *now* is already back in rotation. Pinned because
        // an off-by-one here silently changes every fault-replay
        // fingerprint.
        let mut p = proxy();
        let h = HostId(3);
        let t0 = SimTime::from_secs(50);
        for _ in 0..3 {
            p.record_host_failure(h, t0);
        }
        let until = t0 + p.config().blacklist_ttl;
        assert!(p.is_blacklisted(h, SimTime::from_nanos(until.as_nanos() - 1)));
        assert!(!p.is_blacklisted(h, until), "boundary is exclusive");
        assert!(!p.is_blacklisted(h, until + SimDuration::from_nanos(1)));
    }

    #[test]
    fn expired_blacklist_rearms_on_continued_failures() {
        // Regression: the old `is_none()` guard made one lapsed
        // blacklist permanent immunity — the stale `blacklisted_until`
        // blocked every future re-arm while the failure streak grew
        // unbounded.
        let mut p = proxy();
        let h = HostId(7);
        let t0 = SimTime::from_secs(100);
        for _ in 0..3 {
            p.record_host_failure(h, t0);
        }
        assert!(p.is_blacklisted(h, t0));
        assert_eq!(p.stats.hosts_blacklisted, 1);
        // TTL lapses; the host is probed again and still fails.
        let after = t0 + p.config().blacklist_ttl + SimDuration::from_secs(1);
        assert!(!p.is_blacklisted(h, after));
        p.record_host_failure(h, after);
        assert!(
            p.is_blacklisted(h, after),
            "a still-failing host goes straight back on the blacklist"
        );
        assert_eq!(p.stats.hosts_blacklisted, 2);
        // And a success still clears everything.
        p.record_host_success(h);
        assert!(!p.is_blacklisted(h, after));
    }

    #[test]
    fn depth_aware_region_spill() {
        let mut p = CubrickProxy::new(ProxyConfig {
            region_spill_threshold: 2,
            ..Default::default()
        });
        let regions = [(Region(0), true), (Region(1), true), (Region(2), true)];
        // No depth tracked: client region wins (legacy behaviour).
        assert_eq!(p.choose_region(&regions, Region(0), &[]).unwrap(), Region(0));
        // Client region loaded but within the spill threshold: stays.
        for _ in 0..2 {
            p.note_region_start(Region(0));
        }
        assert_eq!(p.choose_region(&regions, Region(0), &[]).unwrap(), Region(0));
        // One more in-flight query pushes it past threshold: spill to the
        // least-loaded alternative (ties by id → region 1).
        p.note_region_start(Region(0));
        assert_eq!(p.choose_region(&regions, Region(0), &[]).unwrap(), Region(1));
        // Alternatives load up too: spill target follows the min depth.
        for _ in 0..5 {
            p.note_region_start(Region(1));
        }
        assert_eq!(p.choose_region(&regions, Region(0), &[]).unwrap(), Region(2));
        // Draining region 0 restores the proximity preference.
        for _ in 0..3 {
            p.note_region_done(Region(0));
        }
        assert_eq!(p.choose_region(&regions, Region(0), &[]).unwrap(), Region(0));
    }

    #[test]
    fn queue_aware_two_choice_prefers_shallow_coordinator() {
        let mut p = proxy();
        let mut rng = SimRng::new(11);
        p.record_result_metadata("t", 8);
        // Pile depth onto every partition except 5: the two-choice pick
        // must never select a deeper partition than its alternative.
        for part in 0..8u32 {
            if part != 5 {
                for _ in 0..4 {
                    p.note_coordinator_start("t", part);
                }
            }
        }
        for _ in 0..100 {
            let c = p.choose_coordinator("t", CoordinatorStrategy::QueueAwareTwoChoice, 8, &mut rng);
            assert!(!c.extra_roundtrip && !c.extra_hop, "cached: no extra cost");
            assert!(c.partition < 8);
        }
        // Statistical check: partition 5 is picked whenever it is one of
        // the two candidates (~1 - (7/8)^2 ≈ 23% of draws).
        let picks_5 = (0..400)
            .filter(|_| {
                p.choose_coordinator("t", CoordinatorStrategy::QueueAwareTwoChoice, 8, &mut rng)
                    .partition
                    == 5
            })
            .count();
        assert!(picks_5 > 50, "shallow coordinator attracts load: {picks_5}");
        // Cold cache still pays the metadata round trip.
        let c = p.choose_coordinator("u", CoordinatorStrategy::QueueAwareTwoChoice, 4, &mut rng);
        assert!(c.extra_roundtrip);
        // Depth bookkeeping drains without going negative.
        for part in 0..8u32 {
            for _ in 0..10 {
                p.note_coordinator_done("t", part);
            }
            assert_eq!(p.coordinator_depth("t", part), 0);
        }
    }

    #[test]
    fn classful_admission_sheds_batch_first() {
        use crate::admission::{AdmissionConfig, QosClass};
        let mut p = CubrickProxy::new(ProxyConfig {
            admission: AdmissionConfig::qos(4),
            ..Default::default()
        });
        // Batch may hold only its weight-share cap (⌈0.15 × 4⌉ = 1 slot);
        // the synchronous path cannot park, so past the cap it sheds.
        assert!(p.admit_class(QosClass::Batch).is_ok());
        assert!(p.admit_class(QosClass::Batch).is_err(), "batch shed first");
        // Interactive's headroom is untouched.
        assert!(p.admit_class(QosClass::Interactive).is_ok());
        assert!(p.admit_class(QosClass::Interactive).is_ok());
        p.complete_class(QosClass::Batch);
        p.complete_class(QosClass::Interactive);
        p.complete_class(QosClass::Interactive);
        assert_eq!(p.active_queries(), 0);
    }

    #[test]
    fn retry_policy() {
        let mut p = proxy();
        let retryable = CubrickError::PartitionUnavailable {
            table: "t".into(),
            partition: 0,
        };
        let fatal = CubrickError::Parse {
            detail: "x".into(),
            position: 0,
        };
        assert!(p.should_retry(&retryable, 0));
        assert!(p.should_retry(&retryable, 1));
        assert!(!p.should_retry(&retryable, 2), "max_retries=2 exhausted");
        assert!(!p.should_retry(&fatal, 0));
        assert_eq!(p.stats.retries, 2);
        assert_eq!(p.stats.region_failovers, 2);
    }
}
