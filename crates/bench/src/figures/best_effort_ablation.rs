//! **Ablation: accuracy vs availability (§II-C)** — the *other* way past
//! the scalability wall. Scuba "fans-out queries to storage nodes,
//! ignoring answers from dead or slow hosts, thus trading consistency
//! for efficiency"; Cubrick refuses, because BI workloads need exact
//! answers. This ablation quantifies the trade both systems make at
//! large fan-out:
//!
//! * **strict** (Cubrick): a query fails unless every partition answers —
//!   success ratio decays with fan-out (the wall), answers always exact.
//! * **best-effort** (Scuba): queries "always succeed", but the fraction
//!   of data behind each answer decays — `count(*)` undercounts. The
//!   driver's degraded mode (`partial_results`) plays Scuba here; unlike
//!   Scuba it declares each missing shard in the answer's coverage,
//!   which is what the incomplete-answer column counts. An attempt on
//!   which no shard answered is a typed failure, not a count of zero.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use cubrick::value::{Row, Value};
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::workload::standard_schema;
use scalewall_sim::{SimDuration, SimRng, SimTime};

use crate::Profile;

/// Per-server failure probability, cranked up (0.5 %) so the trade is
/// visible at moderate fan-outs.
pub const FAILURE_P: f64 = 5e-3;

pub const FANOUTS: [u32; 5] = [1, 4, 16, 32, 64];

pub struct BestEffortPoint {
    pub fanout: u32,
    pub strict_success: f64,
    pub best_effort_success: f64,
    /// Mean fraction of the true count(*) returned by best-effort
    /// answers (1.0 = exact).
    pub best_effort_accuracy: f64,
    /// Fraction of best-effort answers that were incomplete.
    pub incomplete_fraction: f64,
}

pub fn compute(profile: Profile) -> Vec<BestEffortPoint> {
    let queries = profile.pick(800u64, 10_000u64);
    let rows_per_fanout = 64 * 30; // divisible by every fan-out level
    let mut dep = Deployment::new(DeploymentConfig {
        regions: 3,
        hosts_per_region: 72,
        racks_per_region: 8,
        max_shards: 100_000,
        ..Default::default()
    });
    for &fanout in &FANOUTS {
        let name = format!("be_{fanout}");
        dep.create_table(
            &name,
            standard_schema(365),
            fanout,
            RowMapping::Hash,
            ShardMapping::Monotonic,
            SimTime::ZERO,
        )
        .expect("table");
        let rows: Vec<Row> = (0..rows_per_fanout)
            .map(|i| {
                Row::new(
                    vec![Value::Int(i % 365), Value::Str(format!("e{}", i % 97))],
                    vec![1.0, 1.0],
                )
            })
            .collect();
        dep.ingest(&name, &rows).expect("ingest");
    }
    let net = NetModel::new(NetModelConfig {
        server_failure_probability: FAILURE_P,
        ..Default::default()
    });

    let mut out = Vec::new();
    for &fanout in &FANOUTS {
        let query = Query::count_star(format!("be_{fanout}"));
        let mut point = BestEffortPoint {
            fanout,
            strict_success: 0.0,
            best_effort_success: 0.0,
            best_effort_accuracy: 0.0,
            incomplete_fraction: 0.0,
        };
        for best_effort in [false, true] {
            // No retries: both modes face the raw failure environment.
            let mut proxy = CubrickProxy::new(ProxyConfig {
                max_retries: 0,
                ..Default::default()
            });
            let mut rng = SimRng::new(0xBE ^ fanout as u64 ^ (best_effort as u64) << 32);
            let mut ok = 0u64;
            let mut accuracy_sum = 0.0;
            let mut incomplete = 0u64;
            let mut now = SimTime::from_secs(3_600);
            for _ in 0..queries {
                let outcome = run_query(
                    &mut dep,
                    &mut proxy,
                    &net,
                    &query,
                    &QueryOptions {
                        partial_results: best_effort,
                        ..Default::default()
                    },
                    now,
                    &mut rng,
                );
                if outcome.success {
                    ok += 1;
                    let counted = outcome
                        .output
                        .as_ref()
                        .and_then(|o| o.scalar())
                        .unwrap_or(0.0);
                    accuracy_sum += counted / rows_per_fanout as f64;
                    if outcome.coverage.as_ref().is_some_and(|c| !c.complete()) {
                        incomplete += 1;
                    }
                }
                now += SimDuration::from_millis(500);
            }
            let success = ok as f64 / queries as f64;
            if best_effort {
                point.best_effort_success = success;
                point.best_effort_accuracy = if ok > 0 {
                    accuracy_sum / ok as f64
                } else {
                    0.0
                };
                point.incomplete_fraction = incomplete as f64 / queries as f64;
            } else {
                point.strict_success = success;
            }
        }
        out.push(point);
    }
    out
}

pub fn run(profile: Profile) -> String {
    let points = compute(profile);
    let mut table = TextTable::new(vec![
        "fanout",
        "strict: success",
        "best-effort: success",
        "best-effort: mean accuracy",
        "incomplete answers",
    ]);
    for p in &points {
        table.row(vec![
            p.fanout.to_string(),
            format!("{:.4}", p.strict_success),
            format!("{:.4}", p.best_effort_success),
            format!("{:.4}", p.best_effort_accuracy),
            format!("{:.2}%", p.incomplete_fraction * 100.0),
        ]);
    }
    let mut out = banner(
        "Ablation: accuracy vs availability",
        "strict (Cubrick) vs best-effort (Scuba-style) at p=0.5% server failures",
    );
    out.push_str(&table.render());
    out.push_str(
        "\nreading: best-effort answers 'always' succeed but silently shed data\n\
         as fan-out grows — acceptable for log exploration, not for BI. Strict\n\
         mode keeps answers exact and instead pays with failed queries, which\n\
         is why Cubrick bounds fan-out via partial sharding and retries\n\
         cross-region rather than dropping partitions (§II-C).\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trade_off_shapes() {
        let points = compute(Profile::Fast);
        let last = points.last().unwrap();
        let first = points.first().unwrap();
        // Strict success decays with fan-out.
        assert!(last.strict_success < first.strict_success);
        assert!(last.strict_success < 0.85, "{}", last.strict_success);
        // Best-effort stays (almost) always available...
        assert!(
            last.best_effort_success > 0.99,
            "{}",
            last.best_effort_success
        );
        // ...but loses accuracy as fan-out grows.
        assert!(last.best_effort_accuracy < 1.0);
        assert!(last.incomplete_fraction > first.incomplete_fraction);
        // Accuracy loss roughly matches the failure model: each of k
        // partitions drops w.p. ~p ⇒ expected accuracy ≈ 1 − p.
        assert!(
            (last.best_effort_accuracy - (1.0 - FAILURE_P)).abs() < 0.01,
            "{}",
            last.best_effort_accuracy
        );
    }
}
