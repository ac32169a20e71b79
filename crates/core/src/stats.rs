//! Operation counters shared by every filtering method.
//!
//! Wall-clock time depends on the machine; these counters are the
//! hardware-independent cost ledger the experiments report alongside it:
//! elementary hash evaluations (the unit of the paper's `costᵢ`) and
//! elementary distance computations (the unit of `cost_P`).
//!
//! Every work counter counts work actually done. An online resolver that
//! replays an op from its [`crate::memo::ResolveMemo`] still counts the
//! call, the round, and the modeled cost, but books the op's bucket
//! inserts or pair comparisons under the `*_reused` counters instead.

use serde::{Deserialize, Serialize};

/// Counters accumulated during a filtering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Elementary hash-function evaluations (one per `(function, record)`
    /// application, before any AND/OR combination).
    pub hash_evals: u64,
    /// Elementary distance evaluations performed by the pairwise
    /// computation function `P` (one per field distance).
    pub distance_evals: u64,
    /// Record-pair comparisons performed by `P` (a comparison may cost
    /// several `distance_evals` under multi-field rules).
    pub pair_comparisons: u64,
    /// Hash-table bucket insertions.
    pub bucket_inserts: u64,
    /// Invocations of a transitive hashing function.
    pub transitive_calls: u64,
    /// Invocations of the pairwise computation function.
    pub pairwise_calls: u64,
    /// Rounds of the main loop (cluster selections).
    pub rounds: u64,
    /// Modeled cost in the units of the paper's Definition 3, accumulated
    /// with the active [`crate::cost::CostModel`].
    pub modeled_cost: f64,
    /// Bucket insertions of transitive calls replayed from the memo
    /// instead of performed (0 outside the online resolver).
    #[serde(default)]
    pub bucket_inserts_reused: u64,
    /// Pair comparisons of `P` calls replayed from the memo instead of
    /// performed (0 outside the online resolver).
    #[serde(default)]
    pub pairs_reused: u64,
}

impl Stats {
    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &Stats) {
        self.hash_evals += other.hash_evals;
        self.distance_evals += other.distance_evals;
        self.pair_comparisons += other.pair_comparisons;
        self.bucket_inserts += other.bucket_inserts;
        self.transitive_calls += other.transitive_calls;
        self.pairwise_calls += other.pairwise_calls;
        self.rounds += other.rounds;
        self.modeled_cost += other.modeled_cost;
        self.bucket_inserts_reused += other.bucket_inserts_reused;
        self.pairs_reused += other.pairs_reused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Stats {
            hash_evals: 1,
            distance_evals: 2,
            pair_comparisons: 3,
            bucket_inserts: 4,
            transitive_calls: 5,
            pairwise_calls: 6,
            rounds: 7,
            modeled_cost: 1.5,
            bucket_inserts_reused: 8,
            pairs_reused: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hash_evals, 2);
        assert_eq!(a.bucket_inserts_reused, 16);
        assert_eq!(a.pairs_reused, 18);
        assert_eq!(a.distance_evals, 4);
        assert_eq!(a.rounds, 14);
        assert!((a.modeled_cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.hash_evals, 0);
        assert_eq!(s.modeled_cost, 0.0);
    }
}
