//! The pairwise computation function `P` (paper Definition 2,
//! Appendix B.3).
//!
//! `P` adjudicates record pairs of a cluster and outputs the connected
//! components of the resulting match graph. Two optimizations from
//! §6.1.1 are built in:
//!
//! * pairs already connected transitively are skipped (their trees share
//!   a root), saving their distance computations;
//! * components are maintained in the same parent-pointer [`Forest`] the
//!   hashing functions use.
//!
//! The *cost model* nevertheless charges `P` for all `|C|·(|C|−1)/2`
//! pairs (paper Definition 3 is conservative; see Appendix B.3's remark).
//!
//! # One wavefront, one seam
//!
//! [`apply_pairwise`] is the only implementation. The verdict comes from
//! a [`PairwiseOracle`]: rule callers pass [`crate::ExactOracle`] (the
//! match rule through the cached kernels), noisy runs pass a
//! [`crate::NoisyOracle`] plus its [`SpendLedger`].
//!
//! The canonical pair sequence `(0,1), (0,2), …, (n−2,n−1)` is processed
//! in blocks of `block_pairs` pairs, each in three steps:
//!
//! 1. **collect** — with the forest frozen, keep the pairs whose
//!    endpoints are in different trees (*open* per the block-start
//!    snapshot);
//! 2. **evaluate** — only when `threads > 1` and at least
//!    `MIN_PARALLEL_PAIRS` pairs are open, adjudicate every open pair
//!    speculatively across the workers, each owning a disjoint slice of
//!    the output buffer and its own [`ExitCounts`] tally;
//! 3. **fold** — walk the open pairs in canonical order, re-applying the
//!    closure-skip test against the live forest. A pair still open is
//!    charged, adjudicated now if step 2 was skipped (the *lazy* fold:
//!    no speculation at all without fan-out), settled through the
//!    ledger when there is one, and merged on a match.
//!
//! The merge sequence and the `pair_comparisons` / `distance_evals`
//! charges are therefore bit-identical to the scalar reference
//! [`apply_pairwise_scalar`] at any thread count and block size:
//!
//! * a pair closed at snapshot time is still closed whenever the scalar
//!   loop reaches it (transitive closure only grows) — skipped and
//!   uncharged on both paths;
//! * a pair open at snapshot but closed by an earlier merge of the same
//!   block is skipped at fold time — a speculative adjudication of it is
//!   wasted work bounded by the block size, never charged or settled;
//! * a pair still open at fold time is charged and folded with exactly
//!   the verdict the scalar loop would compute (adjudications are pure
//!   functions of the pair, and the counted kernels are bit-equivalent
//!   to `matches`). Settling, too, happens only here, in canonical
//!   order, so the oracle spend is thread-count invariant as well.

use std::time::Instant;

use adalsh_data::{Dataset, ExitCounts, MatchRule, RecordStore};
use adalsh_obs::{TraceSink, Value};

use crate::oracle::{emit_oracle_call, Adjudication, PairwiseOracle, SpendLedger};
use crate::ppt::Forest;
use crate::stats::Stats;

/// Pairs per wavefront block. Bounds speculative (uncharged, wasted)
/// evaluations per block while keeping enough work in flight to amortize
/// thread synchronization.
pub const DEFAULT_PAIR_BLOCK: usize = 4096;

/// Minimum open pairs in a block before fanning out to worker threads;
/// below this, spawn/join overhead rivals the evaluations themselves.
const MIN_PARALLEL_PAIRS: usize = 512;

/// Block and kernel totals from one [`apply_pairwise`] call: how many
/// wavefront blocks ran, how many threshold kernels the oracle fired
/// (including speculative adjudications that are never charged to
/// [`Stats`]), and how many of those kernels resolved on an early-exit
/// path. Purely observational — clusters and `Stats` do not depend on
/// whether anyone reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairwiseTrace {
    /// Wavefront blocks processed (with tracing on, each emitted one
    /// `pairwise_block` trace event).
    pub blocks: u64,
    /// Threshold-kernel invocations across all blocks.
    pub kernel_checks: u64,
    /// Kernel invocations resolved without an exact distance computation.
    pub early_exits: u64,
}

/// Applies `P` to `cluster` (record ids), adjudicating pairs through
/// `oracle`, and returns the connected components as record-id lists
/// plus the block/kernel tally. Output, `Stats`, and the ledger's spend
/// are identical at any `threads` and any `block_pairs >= 1`.
///
/// With a `ledger`, every charged pair is settled through it (budget
/// degradation included) and, when `sink` is enabled, emits one
/// `oracle_call` event; without one, the oracle's verdict applies as is
/// (the exact rule path). An enabled `sink` also gets one
/// `pairwise_block` event per block.
#[allow(clippy::too_many_arguments)]
pub fn apply_pairwise<O: PairwiseOracle + ?Sized>(
    store: &dyn RecordStore,
    oracle: &O,
    cluster: &[u32],
    threads: usize,
    block_pairs: usize,
    mut ledger: Option<&mut SpendLedger>,
    sink: &TraceSink,
    stats: &mut Stats,
) -> (Vec<Vec<u32>>, PairwiseTrace) {
    stats.pairwise_calls += 1;
    let n = cluster.len();
    let mut forest = Forest::new(n);
    for slot in 0..n as u32 {
        forest.add_singleton(slot);
    }
    let per_pair_distances = oracle.num_elementary_distances() as u64;
    let block_pairs = block_pairs.max(1);
    let traced = sink.enabled();
    let mut trace = PairwiseTrace::default();

    // Cursor over the canonical pair sequence.
    let (mut i, mut j) = (0u32, 1u32);
    let mut open: Vec<(u32, u32)> = Vec::with_capacity(block_pairs.min(1 << 16));
    let mut speculated: Vec<Adjudication> = Vec::new();
    while (i as usize) + 1 < n {
        let block_start = traced.then(Instant::now);
        // Collect, row by row: no merge happens here, so the live find
        // *is* the block-start snapshot and row `i`'s root is found once.
        open.clear();
        let mut room = block_pairs;
        while room > 0 && (i as usize) + 1 < n {
            let ri = forest.find_root_of_slot(i).expect("added above");
            let end = (j as usize + room).min(n) as u32;
            for b in j..end {
                if forest.find_root_of_slot(b).expect("added above") != ri {
                    open.push((i, b));
                }
            }
            room -= (end - j) as usize;
            j = end;
            if j as usize == n {
                (i, j) = (i + 1, i + 2);
            }
        }

        // Evaluate: speculate only when there is fan-out to pay for it;
        // otherwise `speculated` stays empty and the fold adjudicates.
        let mut counts = ExitCounts::default();
        speculated.clear();
        if threads > 1 && open.len() >= MIN_PARALLEL_PAIRS {
            counts = speculate(store, oracle, cluster, &open, threads, &mut speculated);
        }

        // Fold sequentially in canonical pair order. Within a row only
        // this loop's own merges move `a`'s root, so it is carried along.
        let mut charged = 0u64;
        let mut row = None;
        for (k, &(a, b)) in open.iter().enumerate() {
            let ra = match row {
                Some((slot, root)) if slot == a => root,
                _ => forest.find_root_of_slot(a).expect("added above"),
            };
            row = Some((a, ra));
            let rb = forest.find_root_of_slot(b).expect("added above");
            if ra == rb {
                // Closed by an earlier merge of this block: any
                // speculative adjudication is neither charged nor settled.
                continue;
            }
            let (a_id, b_id) = (cluster[a as usize], cluster[b as usize]);
            let adj = match speculated.get(k) {
                Some(adj) => *adj,
                None => oracle.adjudicate(store, a_id, b_id, &mut counts),
            };
            charged += 1;
            stats.pair_comparisons += 1;
            stats.distance_evals += per_pair_distances;
            let matched = match ledger.as_deref_mut() {
                Some(ledger) => {
                    let settled = ledger.settle(a_id, b_id, &adj);
                    if traced {
                        emit_oracle_call(sink, &settled);
                    }
                    settled.matched
                }
                None => adj.matched,
            };
            if matched {
                row = Some((a, forest.merge_roots(ra, rb)));
            }
        }

        trace.blocks += 1;
        trace.kernel_checks += counts.checks;
        trace.early_exits += counts.early_exits;
        if let Some(t0) = block_start {
            sink.emit(
                "pairwise_block",
                &[
                    ("pairs_open", Value::U64(open.len() as u64)),
                    ("pairs_charged", Value::U64(charged)),
                    ("kernel_checks", Value::U64(counts.checks)),
                    ("early_exits", Value::U64(counts.early_exits)),
                    ("wall_micros", Value::U64(t0.elapsed().as_micros() as u64)),
                ],
            );
        }
    }
    (clusters_of(forest, cluster), trace)
}

/// Adjudicates every open pair of a block across up to `threads`
/// workers, writing one [`Adjudication`] per pair. Adjudications are
/// pure functions of the pair, so workers share nothing but their
/// disjoint output chunks; their kernel tallies are merged at join time.
fn speculate<O: PairwiseOracle + ?Sized>(
    store: &dyn RecordStore,
    oracle: &O,
    cluster: &[u32],
    open: &[(u32, u32)],
    threads: usize,
    out: &mut Vec<Adjudication>,
) -> ExitCounts {
    out.resize(open.len(), Adjudication::default());
    let chunk = open.len().div_ceil(threads);
    let mut total = ExitCounts::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = open
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(pairs, slots)| {
                scope.spawn(move || {
                    let mut counts = ExitCounts::default();
                    for (slot, &(a, b)) in slots.iter_mut().zip(pairs) {
                        let (a, b) = (cluster[a as usize], cluster[b as usize]);
                        *slot = oracle.adjudicate(store, a, b, &mut counts);
                    }
                    counts
                })
            })
            .collect();
        for worker in workers {
            // Re-raise a worker panic with its own payload.
            let counts = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            total.merge(&counts);
        }
    });
    total
}

/// Maps the forest's slot clusters back to record ids.
fn clusters_of(forest: Forest, cluster: &[u32]) -> Vec<Vec<u32>> {
    forest
        .clusters()
        .into_iter()
        .map(|slots| slots.into_iter().map(|s| cluster[s as usize]).collect())
        .collect()
}

/// The scalar reference implementation of `P`: one pair at a time, in
/// canonical order, through the plain (uncached) [`MatchRule::matches`]
/// kernels. Retained as the differential-test oracle for
/// [`apply_pairwise`] — clusters *and* `Stats` must be bit-identical —
/// exactly like `advance_scalar` anchors the batched hash kernels.
pub fn apply_pairwise_scalar(
    dataset: &Dataset,
    rule: &MatchRule,
    cluster: &[u32],
    stats: &mut Stats,
) -> Vec<Vec<u32>> {
    stats.pairwise_calls += 1;
    let n = cluster.len();
    let mut forest = Forest::new(n);
    for slot in 0..n as u32 {
        forest.add_singleton(slot);
    }
    let per_pair_distances = rule.num_elementary_distances() as u64;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            let ri = forest.find_root_of_slot(i).expect("added above");
            let rj = forest.find_root_of_slot(j).expect("added above");
            if ri == rj {
                // Transitively closed already — skip the comparison.
                continue;
            }
            stats.pair_comparisons += 1;
            stats.distance_evals += per_pair_distances;
            let a = dataset.record(cluster[i as usize]);
            let b = dataset.record(cluster[j as usize]);
            if rule.matches(a, b) {
                forest.merge_roots(ri, rj);
            }
        }
    }
    clusters_of(forest, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ExactOracle, NoisyOracle, NoisyOracleConfig, OracleSpend};
    use adalsh_data::{FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet};
    use adalsh_obs::{MemorySubscriber, OwnedEvent};
    use std::sync::Arc;

    fn dataset(sets: &[&[u64]]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records = sets
            .iter()
            .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec()))))
            .collect();
        let gt = (0..sets.len() as u32).collect();
        Dataset::new(schema, records, gt)
    }

    fn owned_dataset(sets: &[Vec<u64>]) -> Dataset {
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        dataset(&refs)
    }

    fn jaccard_rule(dthr: f64) -> MatchRule {
        MatchRule::threshold(0, FieldDistance::Jaccard, dthr)
    }

    fn sorted(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        clusters.iter_mut().for_each(|c| c.sort_unstable());
        clusters.sort();
        clusters
    }

    /// The exact rule path, untraced: `P` through [`ExactOracle`].
    fn exact(
        d: &Dataset,
        rule: &MatchRule,
        ids: &[u32],
        threads: usize,
        block: usize,
    ) -> (Vec<Vec<u32>>, Stats, PairwiseTrace) {
        let mut st = Stats::default();
        let (out, trace) = apply_pairwise(
            d,
            &ExactOracle::new(rule),
            ids,
            threads,
            block,
            None,
            &TraceSink::disabled(),
            &mut st,
        );
        (out, st, trace)
    }

    /// A memory-backed sink and the handle to read its events back.
    fn memory_sink() -> (TraceSink, Arc<MemorySubscriber>) {
        let mem = Arc::new(MemorySubscriber::default());
        (TraceSink::new(mem.clone()), mem)
    }

    /// Σ `kernel_checks` and Σ `early_exits` over `pairwise_block` events.
    fn block_tallies(events: &[OwnedEvent]) -> (u64, u64) {
        events
            .iter()
            .filter(|ev| ev.name == "pairwise_block")
            .fold((0, 0), |(c, e), ev| {
                (
                    c + ev.u64("kernel_checks").unwrap(),
                    e + ev.u64("early_exits").unwrap(),
                )
            })
    }

    /// Isolated records plus banded overlaps: merges land across block
    /// boundaries, and mixed set sizes fire the size-ratio early exit.
    fn banded(n: u64, isolate_every: u64, band: u64, width: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|k| {
                if k % isolate_every == 0 {
                    vec![5000 + k]
                } else {
                    (k / band * 10..k / band * 10 + width).collect()
                }
            })
            .collect()
    }

    #[test]
    fn exact_components() {
        // 0~1 (sim 0.5), 2 far from both.
        let d = dataset(&[&[1, 2, 3, 4], &[3, 4, 5, 6], &[100, 200]]);
        let (out, st, _) = exact(&d, &jaccard_rule(0.7), &[0, 1, 2], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(sorted(out), vec![vec![0, 1], vec![2]]);
        assert_eq!(st.pairwise_calls, 1);
    }

    #[test]
    fn transitivity_via_middle_record() {
        // 0~1 and 1~2 but 0 and 2 are beyond the threshold: one component
        // by transitivity (paper §3's transitivity discussion).
        let d = dataset(&[&[1, 2, 3], &[2, 3, 4], &[3, 4, 5]]);
        // d(0,1) = 1 − 2/4 = 0.5; d(0,2) = 1 − 1/5 = 0.8.
        let (out, _, _) = exact(&d, &jaccard_rule(0.5), &[0, 1, 2], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(sorted(out), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn skips_transitively_closed_pairs() {
        // Four identical records: after 0-1, 0-2, 0-3 merge, pairs (1,2),
        // (1,3), (2,3) are closed ⇒ only 3 of 6 comparisons run.
        let d = dataset(&[&[1], &[1], &[1], &[1]]);
        let (out, st, _) = exact(&d, &jaccard_rule(0.1), &[0, 1, 2, 3], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(out.len(), 1);
        assert_eq!(st.pair_comparisons, 3);
    }

    #[test]
    fn speculative_evals_are_uncharged_at_any_block_size() {
        // 40 identical records: the (0,·) merges close every other pair.
        // A block holding ≥ MIN_PARALLEL_PAIRS open pairs at threads 2
        // adjudicates all of them speculatively; the charge must still be
        // the 39 spanning comparisons, identical to the scalar reference.
        let d = owned_dataset(&vec![vec![1]; 40]);
        let ids: Vec<u32> = (0..40).collect();
        for (block, checks) in [
            (1usize, 39u64),
            (3, 39),
            (100, 39),
            (600, 600),
            (10_000, 780),
        ] {
            let (out, st, trace) = exact(&d, &jaccard_rule(0.1), &ids, 2, block);
            assert_eq!(out.len(), 1, "block {block}");
            assert_eq!(st.pair_comparisons, 39, "block {block}");
            assert_eq!(st.distance_evals, 39, "block {block}");
            assert_eq!(trace.kernel_checks, checks, "block {block}");
        }
    }

    #[test]
    fn all_far_pairs_compare_everything() {
        let d = dataset(&[&[1], &[2], &[3], &[4]]);
        let (out, st, _) = exact(&d, &jaccard_rule(0.1), &[0, 1, 2, 3], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(out.len(), 4);
        assert_eq!(st.pair_comparisons, 6);
        assert_eq!(st.distance_evals, 6);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let d = dataset(&[&[1]]);
        let (out, _, _) = exact(&d, &jaccard_rule(0.5), &[], 4, DEFAULT_PAIR_BLOCK);
        assert!(out.is_empty());
        let (out, st, trace) = exact(&d, &jaccard_rule(0.5), &[0], 4, DEFAULT_PAIR_BLOCK);
        assert_eq!(out, vec![vec![0]]);
        assert_eq!(st.pair_comparisons, 0);
        assert_eq!(trace, PairwiseTrace::default());
    }

    #[test]
    fn respects_record_id_indirection() {
        // The cluster lists non-contiguous record ids.
        let d = dataset(&[&[1, 2], &[99], &[1, 2]]);
        let (out, _, _) = exact(&d, &jaccard_rule(0.2), &[2, 0], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(sorted(out), vec![vec![0, 2]]);
    }

    #[test]
    fn parallel_equals_scalar_on_mixed_cluster() {
        // A chain of overlapping sets plus isolated singletons — merges
        // across block boundaries; at block 10_000 the single block holds
        // 780 open pairs, so threads > 1 speculate. Every oracle, with
        // and without a ledger, must reproduce the scalar reference.
        let sets: Vec<Vec<u64>> = (0..40)
            .map(|k| {
                if k % 3 == 0 {
                    vec![1000 + k, 2000 + k] // isolated
                } else {
                    (k / 4 * 10..k / 4 * 10 + 8).collect() // banded overlap
                }
            })
            .collect();
        let d = owned_dataset(&sets);
        let ids: Vec<u32> = (0..40).collect();
        let rule = jaccard_rule(0.4);
        let mut st_scalar = Stats::default();
        let scalar = sorted(apply_pairwise_scalar(&d, &rule, &ids, &mut st_scalar));
        let exact_oracle = ExactOracle::new(&rule);
        let noisy_oracle = NoisyOracle::new(&rule, NoisyOracleConfig::default());
        let oracles: [&dyn PairwiseOracle; 2] = [&exact_oracle, &noisy_oracle];
        for (o, oracle) in oracles.into_iter().enumerate() {
            for with_ledger in [false, true] {
                for threads in [1usize, 2, 5] {
                    for block in [1usize, 7, 64, 10_000] {
                        let mut ledger = SpendLedger::new(None);
                        let mut st = Stats::default();
                        let (out, _) = apply_pairwise(
                            &d,
                            oracle,
                            &ids,
                            threads,
                            block,
                            with_ledger.then_some(&mut ledger),
                            &TraceSink::disabled(),
                            &mut st,
                        );
                        let cell = format!("oracle {o} ledger {with_ledger} t={threads} b={block}");
                        assert_eq!(sorted(out), scalar, "{cell}");
                        assert_eq!(st, st_scalar, "{cell}");
                        let spend = ledger.spend();
                        assert_eq!(spend.degraded, 0, "{cell}");
                        if o == 0 {
                            assert_eq!(spend.spent, 0, "exact oracle is free: {cell}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn traced_equals_untraced_and_events_reconcile() {
        let d = owned_dataset(&banded(30, 4, 3, 6));
        let ids: Vec<u32> = (0..30).collect();
        let rule = jaccard_rule(0.4);
        let (plain, st_plain, _) = exact(&d, &rule, &ids, 2, 16);
        let oracle = ExactOracle::new(&rule);

        for threads in [1usize, 3] {
            let (sink, mem) = memory_sink();
            let mut st = Stats::default();
            let (out, trace) = apply_pairwise(&d, &oracle, &ids, threads, 16, None, &sink, &mut st);
            assert_eq!(sorted(out), sorted(plain.clone()), "t={threads}");
            assert_eq!(st, st_plain, "t={threads}");

            let events = mem.events();
            assert_eq!(events.len() as u64, trace.blocks, "t={threads}");
            let mut charged = 0u64;
            for ev in &events {
                assert_eq!(ev.name, "pairwise_block");
                charged += ev.u64("pairs_charged").unwrap();
                assert!(ev.u64("pairs_open").unwrap() >= ev.u64("pairs_charged").unwrap());
                assert!(ev.u64("wall_micros").is_some());
            }
            assert_eq!(charged, st.pair_comparisons, "t={threads}");
            let (checks, exits) = block_tallies(&events);
            assert_eq!(checks, trace.kernel_checks, "t={threads}");
            assert_eq!(exits, trace.early_exits, "t={threads}");
            // A single-threshold rule fires exactly one kernel per open pair.
            assert!(trace.kernel_checks >= st.pair_comparisons, "t={threads}");
            assert!(trace.early_exits <= trace.kernel_checks, "t={threads}");

            // A disabled sink runs the same kernels: same tally, no events.
            let (out, st_off, trace_off) = exact(&d, &rule, &ids, threads, 16);
            assert_eq!(sorted(out), sorted(plain.clone()), "t={threads}");
            assert_eq!(st_off, st_plain, "t={threads}");
            assert_eq!(trace_off, trace, "t={threads}");
        }
    }

    #[test]
    fn no_speculation_without_fan_out() {
        // Single worker, traced: every kernel check is a charged pair —
        // the lazy fold adjudicates only pairs still open at fold time.
        // So does a multi-worker run whose blocks stay below the fan-out
        // threshold.
        let d = owned_dataset(&banded(40, 3, 4, 8));
        let ids: Vec<u32> = (0..40).collect();
        let rule = jaccard_rule(0.4);
        let oracle = ExactOracle::new(&rule);
        for (threads, block) in [(1usize, DEFAULT_PAIR_BLOCK), (1, 7), (4, 64)] {
            let (sink, mem) = memory_sink();
            let mut st = Stats::default();
            apply_pairwise(&d, &oracle, &ids, threads, block, None, &sink, &mut st);
            let (checks, _) = block_tallies(&mem.events());
            assert_eq!(checks, st.pair_comparisons, "t={threads} b={block}");
            assert!(st.pair_comparisons < 40 * 39 / 2, "merges must close pairs");
        }
    }

    #[test]
    fn noisy_trace_reports_real_kernel_tallies() {
        // A zero-noise noisy oracle runs the same counted kernels as the
        // exact one, so the block events carry the same tallies —
        // including the size-ratio early exits the isolated records fire.
        let d = owned_dataset(&banded(36, 4, 3, 6));
        let ids: Vec<u32> = (0..36).collect();
        let rule = jaccard_rule(0.4);
        for (threads, block) in [
            (1usize, DEFAULT_PAIR_BLOCK),
            (3, 16),
            (3, DEFAULT_PAIR_BLOCK),
        ] {
            let (sink, mem) = memory_sink();
            let mut st = Stats::default();
            let exact_oracle = ExactOracle::new(&rule);
            apply_pairwise(
                &d,
                &exact_oracle,
                &ids,
                threads,
                block,
                None,
                &sink,
                &mut st,
            );
            let exact_tally = block_tallies(&mem.events());

            let (sink, mem) = memory_sink();
            let mut st_noisy = Stats::default();
            let noisy = NoisyOracle::new(&rule, NoisyOracleConfig::default());
            let mut ledger = SpendLedger::new(None);
            let (_, trace) = apply_pairwise(
                &d,
                &noisy,
                &ids,
                threads,
                block,
                Some(&mut ledger),
                &sink,
                &mut st_noisy,
            );
            let cell = format!("t={threads} b={block}");
            assert_eq!(block_tallies(&mem.events()), exact_tally, "{cell}");
            assert_eq!(
                (trace.kernel_checks, trace.early_exits),
                exact_tally,
                "{cell}"
            );
            assert!(exact_tally.1 > 0, "early exits must fire: {cell}");
            assert_eq!(st_noisy, st, "{cell}");
        }
    }

    #[test]
    fn noisy_oracle_is_deterministic_across_threads_blocks_and_sinks() {
        let sets: Vec<Vec<u64>> = (0..36)
            .map(|k| (k / 3 * 10..k / 3 * 10 + 6).collect())
            .collect();
        let d = owned_dataset(&sets);
        let ids: Vec<u32> = (0..36).collect();
        let rule = jaccard_rule(0.4);
        let cfg = NoisyOracleConfig {
            false_match_rate: 0.15,
            false_non_match_rate: 0.15,
            fault_rate: 0.2,
            seed: 11,
            budget: Some(300),
            ..NoisyOracleConfig::default()
        };
        let run =
            |threads: usize, block: usize, traced: bool| -> (Vec<Vec<u32>>, Stats, OracleSpend) {
                let oracle = NoisyOracle::new(&rule, cfg.clone());
                let mut ledger = SpendLedger::new(cfg.budget);
                let mut st = Stats::default();
                let sink = if traced {
                    memory_sink().0
                } else {
                    TraceSink::disabled()
                };
                let (out, _) = apply_pairwise(
                    &d,
                    &oracle,
                    &ids,
                    threads,
                    block,
                    Some(&mut ledger),
                    &sink,
                    &mut st,
                );
                (sorted(out), st, ledger.into_spend())
            };
        let baseline = run(1, DEFAULT_PAIR_BLOCK, false);
        for threads in [1usize, 2, 4] {
            for block in [1usize, 13, 4096] {
                for traced in [false, true] {
                    let got = run(threads, block, traced);
                    assert_eq!(
                        got, baseline,
                        "noisy oracle must replay bit-identically (t={threads} b={block} traced={traced})"
                    );
                }
            }
        }
        // The run under this fault rate must actually have exercised the
        // resilience machinery.
        let (_, _, spend) = baseline;
        assert!(spend.retries > 0, "fault injection must trigger retries");
        assert!(spend.spent <= 300, "budget respected: {}", spend.spent);
    }

    #[test]
    fn oracle_budget_degrades_tail_pairs_to_the_rule() {
        // All-distinct records: every pair is open and adjudicated.
        let d = dataset(&[&[1], &[2], &[3], &[4], &[5]]);
        let ids: Vec<u32> = (0..5).collect();
        let rule = jaccard_rule(0.4);
        let cfg = NoisyOracleConfig {
            budget: Some(4),
            ..NoisyOracleConfig::default()
        };
        let oracle = NoisyOracle::new(&rule, cfg.clone());
        let mut ledger = SpendLedger::new(cfg.budget);
        let mut st = Stats::default();
        let (out, _) = apply_pairwise(
            &d,
            &oracle,
            &ids,
            1,
            DEFAULT_PAIR_BLOCK,
            Some(&mut ledger),
            &TraceSink::disabled(),
            &mut st,
        );
        // Zero noise: the degraded fallback is the same rule verdict, so
        // clusters match the exact path even with the budget exhausted.
        let (plain, st_rule, _) = exact(&d, &rule, &ids, 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(sorted(out), sorted(plain));
        assert_eq!(st, st_rule, "Stats never carry oracle spend");
        let spend = ledger.spend();
        assert_eq!(spend.calls, 10, "all 10 pairs settled");
        assert_eq!(spend.spent, 4, "budget cap");
        assert_eq!(spend.degraded, 6, "tail pairs degraded for free");
        assert_eq!(spend.degraded_pairs.len(), 6);
    }

    #[test]
    fn multifield_rule_distance_accounting() {
        use adalsh_data::rule::WeightedPart;
        let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let rec = |x: &[u64], y: &[u64]| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(x.to_vec())),
                FieldValue::Shingles(ShingleSet::new(y.to_vec())),
            ])
        };
        let d = Dataset::new(
            schema,
            vec![rec(&[1], &[2]), rec(&[1], &[2]), rec(&[9], &[9])],
            vec![0, 0, 1],
        );
        let rule = MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
                WeightedPart {
                    field: 1,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
            ],
            dthr: 0.2,
        };
        let (out, st, _) = exact(&d, &rule, &[0, 1, 2], 1, DEFAULT_PAIR_BLOCK);
        assert_eq!(sorted(out), vec![vec![0, 1], vec![2]]);
        // 3 comparisons × 2 elementary distances each.
        assert_eq!(st.pair_comparisons, 3);
        assert_eq!(st.distance_evals, 6);
    }
}
