//! Differential property tests for the block-wavefront `P`
//! ([`apply_pairwise`]) against the scalar reference
//! ([`apply_pairwise_scalar`]): on arbitrary mixed shingle/dense
//! datasets, every rule kind, any thread count, any block size, both
//! rule-exact oracles (the [`ExactOracle`] and a zero-noise, unbudgeted
//! [`NoisyOracle`] settled through a ledger), and with tracing off or on,
//! the wavefront must produce **identical clusters and identical
//! `Stats`** — the bit-identity contract that lets figure pipelines run
//! on all cores without perturbing the paper's counters.
//!
//! Because the reference evaluates pairs through the plain
//! `MatchRule::matches` kernels while the oracles go through the
//! cached-norm / early-exit kernels (`matches_in_counted`), these tests
//! also pin the kernel fast paths to the naive evaluation.

use std::sync::Arc;

use adalsh_core::pairwise::{apply_pairwise, apply_pairwise_scalar};
use adalsh_core::stats::Stats;
use adalsh_core::{ExactOracle, NoisyOracle, NoisyOracleConfig, SpendLedger, TraceSink};
use adalsh_data::rule::WeightedPart;
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
    ShingleSet,
};
use adalsh_obs::MemorySubscriber;
use proptest::prelude::*;

/// Datasets with one shingle field and one dense field. Entity `e` has a
/// shingle core and a direction; records perturb both, so match graphs
/// have non-trivial components under every rule kind and clusters of
/// varied sizes exercise transitive skipping.
fn mixed_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec(1usize..7, 2..7), // entity sizes
        any::<u64>(),                           // noise seed
    )
        .prop_map(|(sizes, seed)| {
            let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
            let mut rng = seed | 1;
            let mut next = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng
            };
            let mut records = Vec::new();
            let mut gt = Vec::new();
            for (e, &sz) in sizes.iter().enumerate() {
                let core: Vec<u64> = (0..10).map(|i| (e as u64) * 1000 + i).collect();
                for _ in 0..sz {
                    let mut s = core.clone();
                    // 0–2 noise tokens; occasionally large sets so the
                    // galloping/size-ratio paths fire.
                    for _ in 0..(next() % 3) {
                        s.push((e as u64) * 1000 + 500 + next() % 30);
                    }
                    if next() % 5 == 0 {
                        s.extend((0..40).map(|i| (e as u64) * 1000 + 100 + i));
                    }
                    // Direction near entity axis `e`, with noise; some
                    // zero vectors to hit the degenerate-norm branch.
                    let dim = 4;
                    let mut v = vec![0.0f64; dim];
                    if next() % 7 != 0 {
                        v[e % dim] = 1.0;
                        let j = (next() % dim as u64) as usize;
                        v[j] += (next() % 100) as f64 / 250.0;
                    }
                    records.push(Record::new(vec![
                        FieldValue::Shingles(ShingleSet::new(s)),
                        FieldValue::Dense(DenseVector::new(v)),
                    ]));
                    gt.push(e as u32);
                }
            }
            Dataset::new(schema, records, gt)
        })
}

/// All four rule kinds over the two fields, at a tunable threshold.
fn rules(dthr: f64) -> Vec<MatchRule> {
    let jacc = MatchRule::threshold(0, FieldDistance::Jaccard, dthr);
    let ang = MatchRule::threshold(1, FieldDistance::Angular, dthr);
    vec![
        jacc.clone(),
        ang.clone(),
        MatchRule::And(vec![jacc.clone(), ang.clone()]),
        MatchRule::Or(vec![jacc, ang]),
        MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.6,
                },
                WeightedPart {
                    field: 1,
                    metric: FieldDistance::Angular,
                    weight: 0.4,
                },
            ],
            dthr,
        },
    ]
}

fn normalized(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort();
    clusters
}

/// Runs the wavefront once per oracle × sink cell, returning each cell's
/// label, clusters, and `Stats`. The noisy cells settle through an
/// unbudgeted ledger, which must record no degradation.
fn wavefront_cells(
    dataset: &Dataset,
    rule: &MatchRule,
    ids: &[u32],
    threads: usize,
    block: usize,
) -> Vec<(String, Vec<Vec<u32>>, Stats)> {
    let mut cells = Vec::new();
    for noisy in [false, true] {
        for traced in [false, true] {
            let sink = if traced {
                TraceSink::new(Arc::new(MemorySubscriber::default()))
            } else {
                TraceSink::disabled()
            };
            let mut st = Stats::default();
            let clusters = if noisy {
                let oracle = NoisyOracle::new(rule, NoisyOracleConfig::default());
                let mut ledger = SpendLedger::new(None);
                let ledger_ref = Some(&mut ledger);
                let out = apply_pairwise(
                    dataset, &oracle, ids, threads, block, ledger_ref, &sink, &mut st,
                );
                assert_eq!(ledger.spend().degraded, 0, "zero-noise oracle degraded");
                out.0
            } else {
                let oracle = ExactOracle::new(rule);
                apply_pairwise(dataset, &oracle, ids, threads, block, None, &sink, &mut st).0
            };
            let label = format!("noisy={noisy} traced={traced}");
            cells.push((label, normalized(clusters), st));
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wavefront `P` ≡ scalar `P`: identical clusters and identical
    /// full `Stats` for every rule kind, thread count, block size,
    /// oracle, and sink.
    #[test]
    fn wavefront_equals_scalar(
        dataset in mixed_dataset(),
        dthr in 0.05f64..0.95,
        threads in 1usize..6,
        block_idx in 0usize..10,
    ) {
        // Degenerate (1), small odd, power-of-two, and one-block sizes.
        let block = [1usize, 2, 3, 5, 7, 8, 13, 64, 4096, 1 << 20][block_idx];
        let all: Vec<u32> = (0..dataset.len() as u32).collect();
        for rule in rules(dthr) {
            let mut st_scalar = Stats::default();
            let scalar = apply_pairwise_scalar(&dataset, &rule, &all, &mut st_scalar);
            let scalar = normalized(scalar);
            for (cell, wave, st) in wavefront_cells(&dataset, &rule, &all, threads, block) {
                prop_assert_eq!(
                    &wave,
                    &scalar,
                    "clusters diverge: rule={:?} threads={} block={} {}", rule, threads, block, cell
                );
                prop_assert_eq!(
                    st,
                    st_scalar,
                    "stats diverge: rule={:?} threads={} block={} {}", rule, threads, block, cell
                );
            }
        }
    }

    /// Cluster subsets (the shape `P` sees inside the engine: a slice of
    /// non-contiguous record ids) agree too.
    #[test]
    fn wavefront_equals_scalar_on_subsets(
        dataset in mixed_dataset(),
        threads in 1usize..5,
        block in 1usize..20,
        stride in 1usize..4,
        offset in 0usize..3,
    ) {
        let ids: Vec<u32> = (0..dataset.len() as u32)
            .skip(offset)
            .step_by(stride)
            .collect();
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        let mut st_scalar = Stats::default();
        let scalar = apply_pairwise_scalar(&dataset, &rule, &ids, &mut st_scalar);
        let scalar = normalized(scalar);
        for (cell, wave, st) in wavefront_cells(&dataset, &rule, &ids, threads, block) {
            prop_assert_eq!(&wave, &scalar, "{}", cell);
            prop_assert_eq!(st, st_scalar, "{}", cell);
        }
    }
}
