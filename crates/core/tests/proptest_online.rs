//! Property-based tests for the online mode: any interleaving of pushes
//! and queries must agree with batch resolution on the same snapshot,
//! and replaying ops from the resolver's memo must be indistinguishable
//! from recomputing them.

use adalsh_core::algorithm::{AdaLshConfig, FilterMethod, FilterOutput};
use adalsh_core::baselines::Pairs;
use adalsh_core::online::OnlineAdaLsh;
use adalsh_core::{NoisyOracleConfig, OracleMode};
use adalsh_data::{
    Dataset, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema, ShingleSet,
};
use proptest::prelude::*;

fn record(entity: u64, noise: u64) -> Record {
    let mut s: Vec<u64> = (0..15).map(|i| entity * 1000 + i).collect();
    s.push(entity * 1000 + 500 + noise % 4);
    Record::single(FieldValue::Shingles(ShingleSet::new(s)))
}

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
}

fn bootstrap() -> Dataset {
    let schema = Schema::single("s", FieldKind::Shingles);
    let records: Vec<Record> = (0..12).map(|i| record(i % 3, i)).collect();
    let gt = (0..12).map(|i| (i % 3) as u32).collect();
    Dataset::new(schema, records, gt)
}

/// Checks a query answered with the memo (`got`) against the same query
/// answered by a resolver restored from a snapshot taken just before it
/// (`want`: same states, empty memo, so every op is recomputed).
fn assert_replay_matches_recompute(got: &FilterOutput, want: &FilterOutput) {
    let (g, w) = (&got.stats, &want.stats);
    assert_eq!(got.clusters, want.clusters, "clusters");
    assert_eq!(g.rounds, w.rounds, "rounds");
    assert_eq!(g.transitive_calls, w.transitive_calls, "transitive_calls");
    assert_eq!(g.pairwise_calls, w.pairwise_calls, "pairwise_calls");
    assert_eq!(g.hash_evals, w.hash_evals, "hash_evals");
    assert_eq!(
        g.modeled_cost.to_bits(),
        w.modeled_cost.to_bits(),
        "modeled_cost"
    );
    assert_eq!(
        (w.bucket_inserts_reused, w.pairs_reused),
        (0, 0),
        "cold memo"
    );
    assert_eq!(
        g.bucket_inserts + g.bucket_inserts_reused,
        w.bucket_inserts,
        "bucket inserts done + replayed"
    );
    assert_eq!(
        g.pair_comparisons + g.pairs_reused,
        w.pair_comparisons,
        "pair comparisons done + replayed"
    );
    assert_eq!(got.oracle, want.oracle, "oracle spend");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random push/query stream, under the exact oracle and under a
    /// zero-noise noisy oracle, with the jump gate on or off and `k`
    /// varying per query: before each query a resolver restored from
    /// `snapshot()` answers the same query with an empty memo, and the
    /// two answers must agree on everything but the split between work
    /// done and work replayed. The noisy oracle's `P` is never replayed.
    #[test]
    fn memo_replay_equals_from_scratch_resolve(
        stream in prop::collection::vec((0u64..6, any::<u64>(), 0usize..4), 1..30),
        noisy in prop::bool::ANY,
        disable_jump_gate in prop::bool::ANY,
    ) {
        let mut config = AdaLshConfig::new(rule());
        config.disable_jump_gate = disable_jump_gate;
        if noisy {
            config.oracle = OracleMode::Noisy(NoisyOracleConfig::default());
        }
        let mut online = OnlineAdaLsh::new(&bootstrap(), config.clone()).unwrap();
        for (entity, noise, k) in stream {
            online.push(record(entity, noise)).unwrap();
            // k == 0 means "push without querying".
            if k == 0 {
                continue;
            }
            let mut reference =
                OnlineAdaLsh::from_snapshot(online.snapshot(), config.clone()).unwrap();
            let want = reference.query(k);
            let got = online.query(k);
            assert_replay_matches_recompute(&got, &want);
            if noisy {
                prop_assert_eq!(got.stats.pairs_reused, 0);
            }
        }
    }

    /// Push an arbitrary stream (entity ids 0..5) with interleaved
    /// queries; every query must equal Pairs on the snapshot.
    #[test]
    fn online_queries_match_batch(
        stream in prop::collection::vec((0u64..5, any::<u64>(), prop::bool::ANY), 1..40),
    ) {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let mut all_records: Vec<Record> = boot.records().to_vec();
        for (entity, noise, query_now) in stream {
            let r = record(entity, noise);
            online.push(r.clone()).unwrap();
            all_records.push(r);
            if query_now {
                let out = online.query(1);
                let snapshot = Dataset::new(
                    boot.schema().clone(),
                    all_records.clone(),
                    vec![0; all_records.len()],
                );
                let gold = Pairs::new(rule()).filter(&snapshot, 1);
                // Sizes must agree (record sets may differ only under
                // exact size ties, which this stream can produce).
                prop_assert_eq!(
                    out.clusters[0].len(),
                    gold.clusters[0].len(),
                    "online vs batch top-1 size"
                );
            }
        }
        // Final full check: top-2 record sets match exactly when untied.
        let snapshot = Dataset::new(
            boot.schema().clone(),
            all_records.clone(),
            vec![0; all_records.len()],
        );
        let gold = Pairs::new(rule()).filter(&snapshot, 2);
        let sizes: Vec<usize> = gold.clusters.iter().map(Vec::len).collect();
        prop_assume!(sizes.len() < 2 || sizes[0] != sizes[1]);
        let out = online.query(2);
        prop_assert_eq!(out.clusters[0].clone(), gold.clusters[0].clone());
    }

    /// Query cost is monotone-amortized: an immediate repeat query does
    /// zero hash evaluations.
    #[test]
    fn repeat_queries_are_free(pushes in 0usize..20) {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        for i in 0..pushes {
            online.push(record((i % 4) as u64, i as u64)).unwrap();
        }
        let _ = online.query(2);
        let again = online.query(2);
        prop_assert_eq!(again.stats.hash_evals, 0);
    }
}
