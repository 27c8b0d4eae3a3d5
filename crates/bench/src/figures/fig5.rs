//! **Figure 5** — query latency for varying fan-out levels: the same
//! simple query issued every 500 ms for a simulated week against tables
//! spanning 1 to 64 partitions (>1 M queries per table in the paper).
//! Higher fan-out queries are visibly more susceptible to
//! non-deterministic tail latency: the median barely moves, the p99/p99.9
//! lines climb with fan-out (the paper plots the y-axis in log scale).
//!
//! The full profile runs the sweep at production-fleet scale: 10,002
//! simulated hosts and fan-outs extended to 1,024 partitions. Arrivals
//! are a plain loop over `start + i·interval` (`run_query_series`); the
//! event kernel's load test lives in `tests/event_kernel.rs` and the
//! `event_kernel` bench.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query_series, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::workload::standard_schema;
use scalewall_sim::{Histogram, SimDuration, SimRng, SimTime, Summary};

use crate::Profile;

/// The paper's sweep (and the fast profile's).
pub const FANOUTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Full-profile sweep: four more doublings past the paper's 64.
pub const FANOUTS_FULL: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

pub struct FanoutResult {
    pub fanout: u32,
    pub summary: Summary,
    pub successes: u64,
    pub failures: u64,
}

/// Per-level query budget. The fast profile is fixed (and pinned by
/// tests); the full profile caps total *subqueries* per level so the
/// widest fan-outs don't dominate wall clock, with a floor that keeps
/// p99.9 estimates meaningful.
fn queries_for(profile: Profile, fanout: u32) -> u64 {
    match profile {
        Profile::Fast => 4_000,
        Profile::Full => (32_000_000 / fanout as u64).clamp(50_000, 1_000_000),
    }
}

pub fn compute(profile: Profile) -> Vec<FanoutResult> {
    let (hosts_per_region, fanouts): (u32, &[u32]) = match profile {
        Profile::Fast => (72, &FANOUTS),
        // 3 × 3,334 = 10,002 simulated hosts: the fleet scale the paper's
        // production evaluation ran at.
        Profile::Full => (3_334, &FANOUTS_FULL),
    };
    compute_custom(hosts_per_region, fanouts, |fanout| {
        queries_for(profile, fanout)
    })
}

/// The figure's engine with the scale knobs exposed, so the determinism
/// suite can replay a fig5-shaped workload at elevated host counts
/// without paying for the whole sweep.
pub fn compute_custom(
    hosts_per_region: u32,
    fanouts: &[u32],
    queries_per_level: impl Fn(u32) -> u64,
) -> Vec<FanoutResult> {
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region,
        racks_per_region: 8,
        max_shards: 100_000,
        ..Default::default()
    });
    for &fanout in fanouts {
        dep.create_table(
            &format!("fanout_{fanout}"),
            standard_schema(365),
            fanout,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("table creation");
    }
    let net = NetModel::new(NetModelConfig::default());
    let mut results = Vec::new();
    for &fanout in fanouts {
        let mut proxy = CubrickProxy::new(ProxyConfig::default());
        let mut rng = SimRng::new(0xF165 ^ fanout as u64);
        let query = Query::count_star(format!("fanout_{fanout}"));
        let mut hist = Histogram::latency_ms();
        // Start an hour in so initial discovery publishes have propagated.
        let (successes, failures) = run_query_series(
            &mut dep,
            &mut proxy,
            &net,
            &query,
            &QueryOptions {
                execute_data: false,
                ..Default::default()
            },
            SimTime::from_secs(3_600),
            SimDuration::from_millis(500),
            queries_per_level(fanout),
            &mut rng,
            &mut hist,
        );
        results.push(FanoutResult {
            fanout,
            summary: hist.summary(),
            successes,
            failures,
        });
    }
    results
}

pub fn run(profile: Profile) -> String {
    let results = compute(profile);
    let mut table = TextTable::new(vec![
        "fanout", "queries", "p50_ms", "p90_ms", "p99_ms", "p99.9_ms", "max_ms", "success",
    ]);
    for r in &results {
        let total = r.successes + r.failures;
        table.row(vec![
            r.fanout.to_string(),
            total.to_string(),
            format!("{:.1}", r.summary.p50),
            format!("{:.1}", r.summary.p90),
            format!("{:.1}", r.summary.p99),
            format!("{:.1}", r.summary.p999),
            format!("{:.1}", r.summary.max),
            format!("{:.4}", r.successes as f64 / total.max(1) as f64),
        ]);
    }
    let mut out = banner(
        "Figure 5",
        "query latency vs fan-out (same query every 500ms; log-scale tails)",
    );
    out.push_str(&table.render());
    let first = &results[0].summary;
    let last = &results[results.len() - 1].summary;
    out.push_str(&format!(
        "\ntail amplification 1→64 partitions: p50 ×{:.2}, p99 ×{:.2}, p99.9 ×{:.2}\n",
        last.p50 / first.p50,
        last.p99 / first.p99,
        last.p999 / first.p999,
    ));
    out.push_str(
        "paper: \"higher fan-out queries are more susceptible to\n\
         non-deterministic sources of tail latencies\" — medians stay flat\n\
         while the high percentiles spread by fan-out level.\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_amplify_with_fanout() {
        let results = compute(Profile::Fast);
        assert_eq!(results.len(), FANOUTS.len());
        let one = &results[0].summary;
        let sixty_four = &results[6].summary;
        // Median roughly flat (max-of-k moves the body a little).
        assert!(
            sixty_four.p50 / one.p50 < 2.5,
            "{} vs {}",
            one.p50,
            sixty_four.p50
        );
        // p99 grows markedly.
        assert!(
            sixty_four.p99 > one.p99 * 1.4,
            "p99 must amplify: {} vs {}",
            one.p99,
            sixty_four.p99
        );
        // Monotone-ish p99 across levels (allow small noise inversions).
        let p99s: Vec<f64> = results.iter().map(|r| r.summary.p99).collect();
        assert!(p99s[6] > p99s[0] && p99s[5] > p99s[1], "{p99s:?}");
        // Everything succeeded (no failures injected beyond the 0.01%).
        for r in &results {
            let total = r.successes + r.failures;
            assert!(r.successes as f64 / total as f64 > 0.98);
        }
    }
}
