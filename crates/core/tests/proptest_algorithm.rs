//! Property-based tests of Algorithm 1 itself: on arbitrary randomly
//! generated shingle datasets, the adaptive filter must agree with exact
//! pairwise resolution.

use adalsh_core::algorithm::{AdaLsh, AdaLshConfig, SelectionStrategy};
use adalsh_core::pairwise::apply_pairwise_scalar;
use adalsh_core::stats::Stats;
use adalsh_data::{
    Dataset, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema, ShingleSet,
};
use proptest::prelude::*;

/// Strategy producing small datasets with planted clusters of varied
/// sizes: entity `e` has a 12-token core; each record keeps the core and
/// adds 1–2 noise tokens. Cores are disjoint across entities, so the
/// exact clustering equals the plant.
fn planted_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec(1usize..12, 2..8), // entity sizes
        any::<u64>(),                            // noise seed
    )
        .prop_map(|(sizes, seed)| {
            let schema = Schema::single("s", FieldKind::Shingles);
            let mut records = Vec::new();
            let mut gt = Vec::new();
            for (e, &sz) in sizes.iter().enumerate() {
                let core: Vec<u64> = (0..12).map(|i| (e as u64) * 1000 + i).collect();
                for r in 0..sz {
                    let mut s = core.clone();
                    let n1 = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((e * 100 + r) as u64);
                    s.push((e as u64) * 1000 + 500 + n1 % 5);
                    records.push(Record::single(FieldValue::Shingles(ShingleSet::new(s))));
                    gt.push(e as u32);
                }
            }
            Dataset::new(schema, records, gt)
        })
}

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
}

/// Exact top-k records via pairwise closure, with deterministic
/// size-then-id ordering.
fn exact_top_k(dataset: &Dataset, k: usize) -> Vec<u32> {
    let all: Vec<u32> = (0..dataset.len() as u32).collect();
    let mut st = Stats::default();
    let mut clusters = apply_pairwise_scalar(dataset, &rule(), &all, &mut st);
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    let mut out: Vec<u32> = clusters.into_iter().take(k).flatten().collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// adaLSH output = exact output, for arbitrary planted datasets and
    /// k, as long as cluster sizes are untied at the k-th position.
    #[test]
    fn adalsh_equals_exact(dataset in planted_dataset(), k in 1usize..4) {
        let sizes = dataset.entity_sizes();
        prop_assume!(k <= sizes.len());
        // Ambiguous top-k (ties at the boundary) legitimately differ.
        prop_assume!(k == sizes.len() || sizes[k - 1] != sizes.get(k).copied().unwrap_or(0));
        let mut ada = AdaLsh::for_dataset(&dataset, AdaLshConfig::new(rule())).unwrap();
        let got = ada.run(&dataset, k).records();
        prop_assert_eq!(got, exact_top_k(&dataset, k));
    }

    /// All selection strategies find the same top-k record set.
    #[test]
    fn strategies_agree(dataset in planted_dataset()) {
        let sizes = dataset.entity_sizes();
        prop_assume!(sizes.len() >= 2 && sizes[0] != sizes[1]);
        let expected = exact_top_k(&dataset, 1);
        for strategy in [
            SelectionStrategy::LargestFirst,
            SelectionStrategy::SmallestFirst,
            SelectionStrategy::Random,
            SelectionStrategy::Fifo,
        ] {
            let mut cfg = AdaLshConfig::new(rule());
            cfg.selection = strategy;
            let mut ada = AdaLsh::for_dataset(&dataset, cfg).unwrap();
            prop_assert_eq!(ada.run(&dataset, 1).records(), expected.clone());
        }
    }

    /// Output clusters never mix planted entities (the conservative
    /// property: the rule's exact components are entity-pure here).
    #[test]
    fn clusters_are_entity_pure(dataset in planted_dataset(), k in 1usize..4) {
        let mut ada = AdaLsh::for_dataset(&dataset, AdaLshConfig::new(rule())).unwrap();
        let out = ada.run(&dataset, k);
        for cluster in &out.clusters {
            let e = dataset.entity_of(cluster[0]);
            prop_assert!(cluster.iter().all(|&r| dataset.entity_of(r) == e));
        }
    }

    /// Requiring pairwise verification never changes the answer — only
    /// the work done.
    #[test]
    fn pairwise_final_is_equivalent(dataset in planted_dataset()) {
        let sizes = dataset.entity_sizes();
        prop_assume!(sizes.len() >= 2 && sizes[0] != sizes[1]);
        let mut a = AdaLsh::for_dataset(&dataset, AdaLshConfig::new(rule())).unwrap();
        let mut cfg = AdaLshConfig::new(rule());
        cfg.require_pairwise_final = true;
        let mut b = AdaLsh::for_dataset(&dataset, cfg).unwrap();
        prop_assert_eq!(a.run(&dataset, 1).records(), b.run(&dataset, 1).records());
    }

    /// Modeled cost is monotone in k (more entities ⇒ at least as much
    /// work) — the Theorem-2 flavour of Largest-First.
    #[test]
    fn cost_monotone_in_k(dataset in planted_dataset()) {
        let n_entities = dataset.num_entities();
        prop_assume!(n_entities >= 3);
        let run_cost = |k: usize| {
            let mut ada = AdaLsh::for_dataset(&dataset, AdaLshConfig::new(rule())).unwrap();
            ada.run(&dataset, k).stats.modeled_cost
        };
        let c1 = run_cost(1);
        let c2 = run_cost(2);
        let c3 = run_cost(3);
        prop_assert!(c1 <= c2 + 1e-9);
        prop_assert!(c2 <= c3 + 1e-9);
    }
}
