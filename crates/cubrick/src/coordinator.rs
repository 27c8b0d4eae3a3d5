//! Query-coordinator logic (§IV-C).
//!
//! "A query coordinator is required to run on a host that stores one
//! partition of the target table"; it parses and distributes the query
//! and merges partial results. The distribution itself (network, fan-out)
//! is driven by the cluster layer; this module holds the pure pieces:
//! the fan-out plan and the merge.

use crate::error::{CubrickError, CubrickResult};
use crate::query::result::{Coverage, PartialResult, QueryOutput};

/// The set of partitions a query must visit: all of them — partial
/// sharding bounds this by the *table's* partition count, not the
/// cluster size, which is the entire point of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutPlan {
    pub table: String,
    pub partitions: Vec<u32>,
}

impl FanoutPlan {
    pub fn for_table(table: &str, partition_count: u32) -> Self {
        FanoutPlan {
            table: table.to_string(),
            partitions: (0..partition_count).collect(),
        }
    }

    pub fn fan_out(&self) -> usize {
        self.partitions.len()
    }
}

/// Merge the answered partitions' partials into the final output,
/// checked against the attempt's [`Coverage`].
///
/// One merge serves both serving modes. On the strict path coverage is
/// always complete: Cubrick refuses partial answers rather than trading
/// accuracy for availability ("there are many BI and data analytics
/// workloads where this assumption cannot be made", §II-C). In degraded
/// mode (`partial_results`) the coverage *declares* what is missing
/// instead of silently returning a smaller number. Invariants checked
/// (typed errors, never panics — this file is on the lint D7
/// panic-surface list):
///
/// * `coverage` must describe exactly the plan's partitions,
/// * `partials.len()` must equal `coverage.answered()`, and
/// * at least one partition answered (zero coverage is a failure for
///   the caller to report, never a fabricated zero).
pub fn merge_partials(
    plan: &FanoutPlan,
    partials: Vec<PartialResult>,
    coverage: &Coverage,
) -> CubrickResult<QueryOutput> {
    if coverage.total() != plan.fan_out() {
        return Err(CubrickError::Internal {
            detail: format!(
                "coverage describes {} shards for fan-out {}",
                coverage.total(),
                plan.fan_out()
            ),
        });
    }
    if partials.len() != coverage.answered() {
        return Err(CubrickError::Internal {
            detail: format!(
                "coordinator received {} partials but coverage says {} answered",
                partials.len(),
                coverage.answered()
            ),
        });
    }
    let mut iter = partials.into_iter();
    let Some(mut merged) = iter.next() else {
        return Err(CubrickError::Internal {
            detail: "no partition answered".into(),
        });
    };
    for partial in iter {
        merged.merge(&partial);
    }
    Ok(merged.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::agg::{AggSpec, AggState};
    use crate::query::result::{GroupVal, ShardState};

    fn partial(count: u64) -> PartialResult {
        let mut p = PartialResult::new(vec![AggSpec::count_star()], 4);
        p.groups
            .insert(vec![GroupVal::Int(1)], vec![AggState::Count(count)]);
        p.rows_scanned = count;
        p
    }

    #[test]
    fn plan_covers_all_partitions() {
        let plan = FanoutPlan::for_table("t", 8);
        assert_eq!(plan.fan_out(), 8);
        assert_eq!(plan.partitions, (0..8).collect::<Vec<_>>());
    }

    fn coverage(states: &[ShardState]) -> Coverage {
        let mut cov = Coverage::default();
        for (p, &state) in states.iter().enumerate() {
            cov.push(p as u32, state);
        }
        cov
    }

    #[test]
    fn merge_requires_every_partition() {
        let plan = FanoutPlan::for_table("t", 3);
        let cov = coverage(&[ShardState::Answered; 3]);
        let out = merge_partials(&plan, vec![partial(1), partial(2), partial(3)], &cov).unwrap();
        assert_eq!(out.rows[0].aggs[0], 6.0);
        assert_eq!(out.rows_scanned, 6);
        // Missing one partial is an error — no silent partial answers.
        let err = merge_partials(&plan, vec![partial(1), partial(2)], &cov).unwrap_err();
        assert!(matches!(err, CubrickError::Internal { .. }));
    }

    #[test]
    fn degraded_merge_declares_missing_shards() {
        let plan = FanoutPlan::for_table("t", 3);
        let cov = coverage(&[ShardState::Answered, ShardState::TimedOut, ShardState::Answered]);
        let out = merge_partials(&plan, vec![partial(1), partial(3)], &cov).unwrap();
        assert_eq!(out.rows[0].aggs[0], 4.0, "only the answered partials merge");
        assert_eq!(cov.fraction(), 2.0 / 3.0);
    }

    #[test]
    fn degraded_merge_zero_coverage_is_error_not_zeros() {
        let plan = FanoutPlan::for_table("t", 2);
        let cov = coverage(&[ShardState::Unavailable, ShardState::Blacklisted]);
        assert!(matches!(
            merge_partials(&plan, vec![], &cov),
            Err(CubrickError::Internal { .. })
        ));
    }

    #[test]
    fn degraded_merge_rejects_inconsistent_coverage() {
        let plan = FanoutPlan::for_table("t", 2);
        // Coverage shorter than the plan.
        let short = coverage(&[ShardState::Answered]);
        assert!(matches!(
            merge_partials(&plan, vec![partial(1)], &short),
            Err(CubrickError::Internal { .. })
        ));
        // Partial count disagreeing with coverage.
        let cov = coverage(&[ShardState::Answered; 2]);
        assert!(matches!(
            merge_partials(&plan, vec![partial(1)], &cov),
            Err(CubrickError::Internal { .. })
        ));
    }
}
