//! Partial results and coordinator-side merging.
//!
//! Every server executes the query over its local partitions and returns
//! a [`PartialResult`]: group keys (already decoded to logical values —
//! dictionary ids are partition-local and must not cross the wire) plus
//! mergeable accumulators. The coordinator merges partials and finalizes
//! into a [`QueryOutput`].
//!
//! Result metadata carries the table's current partition count: "the
//! number of partitions per table is always included as part of query
//! results metadata, and updates the proxy's cache" (§IV-C).

use std::collections::BTreeMap;

use crate::query::agg::{AggSpec, AggState};
use crate::value::Value;

/// A group key: decoded dimension values, hashable/orderable.
///
/// Group keys are dimensions only, so they are ints or strings — never
/// floats — which is what makes `Eq`/`Hash`/`Ord` sound here.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupVal {
    Int(i64),
    Str(String),
}

impl From<&GroupVal> for Value {
    fn from(g: &GroupVal) -> Value {
        match g {
            GroupVal::Int(v) => Value::Int(*v),
            GroupVal::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Partial result from one partition (or a merge of several).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult {
    pub aggs: Vec<AggSpec>,
    /// Group key → accumulators (one per agg, spec order). The ungrouped
    /// query uses the single empty key.
    pub groups: BTreeMap<Vec<GroupVal>, Vec<AggState>>,
    /// Rows that survived filters on this partition.
    pub rows_scanned: u64,
    /// Current partition count of the table (proxy cache refresh).
    pub table_partitions: u32,
}

impl PartialResult {
    pub fn new(aggs: Vec<AggSpec>, table_partitions: u32) -> Self {
        PartialResult {
            aggs,
            groups: BTreeMap::new(),
            rows_scanned: 0,
            table_partitions,
        }
    }

    /// Merge another partial into this one. Panics if the agg lists
    /// differ (partials must come from the same query).
    pub fn merge(&mut self, other: &PartialResult) {
        assert_eq!(
            self.aggs, other.aggs,
            "merging partials from different queries"
        );
        self.rows_scanned += other.rows_scanned;
        self.table_partitions = self.table_partitions.max(other.table_partitions);
        for (key, states) in &other.groups {
            match self.groups.get_mut(key) {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                None => {
                    self.groups.insert(key.clone(), states.clone());
                }
            }
        }
    }

    /// Finalize into ordered output rows.
    pub fn finalize(&self) -> QueryOutput {
        let mut rows: Vec<ResultRow> = self
            .groups
            .iter()
            .map(|(key, states)| ResultRow {
                key: key.iter().map(Value::from).collect(),
                aggs: states.iter().map(AggState::finalize).collect(),
            })
            .collect();
        // Deterministic output order: by group key.
        let mut keyed: Vec<(Vec<GroupVal>, ResultRow)> =
            self.groups.keys().cloned().zip(rows.drain(..)).collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        QueryOutput {
            columns: self.aggs.iter().map(AggSpec::label).collect(),
            rows: keyed.into_iter().map(|(_, r)| r).collect(),
            rows_scanned: self.rows_scanned,
            table_partitions: self.table_partitions,
        }
    }
}

/// Why a shard's sub-query did (or did not) contribute to a degraded
/// result (the typed per-shard status of degraded-mode serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The sub-query answered and its partial was merged.
    Answered,
    /// The sub-query exceeded its per-shard deadline.
    TimedOut,
    /// The shard's owner was unreachable, not owning, or still loading.
    Unavailable,
    /// The resolved host was blacklisted at the proxy; never contacted.
    Blacklisted,
}

/// Per-shard status of a (possibly degraded) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    pub partition: u32,
    pub state: ShardState,
}

/// The coverage contract of a degraded-mode answer: which partitions
/// contributed, and why the rest are missing. `coverage_fraction` is
/// the headline number a client checks against its accuracy budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// One entry per planned partition, plan order.
    pub per_shard: Vec<ShardStatus>,
}

impl Coverage {
    pub fn push(&mut self, partition: u32, state: ShardState) {
        self.per_shard.push(ShardStatus { partition, state });
    }

    /// Partitions that answered.
    pub fn answered(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|s| s.state == ShardState::Answered)
            .count()
    }

    pub fn total(&self) -> usize {
        self.per_shard.len()
    }

    /// Fraction of planned partitions that answered (1.0 for an empty
    /// plan: nothing was missing).
    pub fn fraction(&self) -> f64 {
        if self.per_shard.is_empty() {
            1.0
        } else {
            self.answered() as f64 / self.total() as f64
        }
    }

    pub fn complete(&self) -> bool {
        self.answered() == self.total()
    }
}

/// One output row: group key values followed by finalized aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub key: Vec<Value>,
    pub aggs: Vec<f64>,
}

/// Final, merged, finalized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Aggregate column labels (group-by columns precede them in `rows`).
    pub columns: Vec<String>,
    pub rows: Vec<ResultRow>,
    pub rows_scanned: u64,
    pub table_partitions: u32,
}

impl QueryOutput {
    /// The single scalar of an ungrouped single-agg query.
    pub fn scalar(&self) -> Option<f64> {
        match self.rows.as_slice() {
            [row] if row.key.is_empty() && row.aggs.len() == 1 => Some(row.aggs[0]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::agg::AggFunc;

    fn spec() -> Vec<AggSpec> {
        vec![AggSpec::count_star(), AggSpec::new(AggFunc::Sum, "m")]
    }

    fn partial_with(groups: Vec<(Vec<GroupVal>, u64, f64)>) -> PartialResult {
        let mut p = PartialResult::new(spec(), 8);
        for (key, count, sum) in groups {
            p.groups
                .insert(key, vec![AggState::Count(count), AggState::Sum(sum)]);
            p.rows_scanned += count;
        }
        p
    }

    #[test]
    fn merge_combines_groups() {
        let mut a = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 2, 10.0),
            (vec![GroupVal::Str("BR".into())], 1, 5.0),
        ]);
        let b = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 3, 7.0),
            (vec![GroupVal::Str("JP".into())], 4, 1.0),
        ]);
        a.merge(&b);
        assert_eq!(a.groups.len(), 3);
        assert_eq!(
            a.groups[&vec![GroupVal::Str("US".into())]],
            vec![AggState::Count(5), AggState::Sum(17.0)]
        );
        assert_eq!(a.rows_scanned, 10);
    }

    #[test]
    fn merge_takes_max_partition_count() {
        // During a re-partition different servers may report different
        // counts; the proxy should learn the newest (largest... the rule
        // here: max) one.
        let mut a = PartialResult::new(spec(), 8);
        let b = PartialResult::new(spec(), 16);
        a.merge(&b);
        assert_eq!(a.table_partitions, 16);
    }

    #[test]
    fn finalize_sorted_and_labelled() {
        let p = partial_with(vec![
            (vec![GroupVal::Str("US".into())], 2, 10.0),
            (vec![GroupVal::Str("BR".into())], 1, 5.0),
        ]);
        let out = p.finalize();
        assert_eq!(out.columns, vec!["count(*)", "sum(m)"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].key, vec![Value::Str("BR".into())]);
        assert_eq!(out.rows[1].key, vec![Value::Str("US".into())]);
        assert_eq!(out.rows[1].aggs, vec![2.0, 10.0]);
    }

    #[test]
    fn scalar_extraction() {
        let mut p = PartialResult::new(vec![AggSpec::count_star()], 8);
        p.groups.insert(vec![], vec![AggState::Count(7)]);
        assert_eq!(p.finalize().scalar(), Some(7.0));
        // Grouped output has no scalar.
        let p = partial_with(vec![(vec![GroupVal::Int(1)], 1, 1.0)]);
        assert_eq!(p.finalize().scalar(), None);
    }

    #[test]
    fn coverage_accounting() {
        let mut c = Coverage::default();
        assert_eq!(c.fraction(), 1.0, "empty plan is fully covered");
        c.push(0, ShardState::Answered);
        c.push(1, ShardState::TimedOut);
        c.push(2, ShardState::Blacklisted);
        c.push(3, ShardState::Answered);
        assert_eq!(c.answered(), 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.fraction(), 0.5);
        assert!(!c.complete());
        let full = Coverage {
            per_shard: vec![ShardStatus {
                partition: 0,
                state: ShardState::Answered,
            }],
        };
        assert!(full.complete());
        assert_eq!(full.fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "different queries")]
    fn merge_mismatched_specs_panics() {
        let mut a = PartialResult::new(vec![AggSpec::count_star()], 8);
        let b = PartialResult::new(spec(), 8);
        a.merge(&b);
    }
}
