//! Cross-query reuse of transitive and pairwise results (online mode).
//!
//! `apply_transitive(level, list)` and exact-oracle `apply_pairwise(list)`
//! are pure functions of their input list — ids *and* order: records are
//! append-only, per-record hash states only advance, and the exact rule
//! keeps no per-run state. An online resolver re-running Algorithm 1
//! over a grown corpus therefore repeats many ops verbatim: new records
//! get the highest ids and are inserted last into `H_1`'s tables, so an
//! `H_1` component no new record touches keeps its exact leaf-chain list,
//! and every op downstream of it sees the same input again. A
//! [`ResolveMemo`] stores each op's output under `(op, list)` and hands it
//! back when the next pass applies the same op to the same list. The
//! replayed output is the recomputed one, so the pool order, the later
//! rounds and `modeled_cost` are bit-identical too.
//!
//! The memo keeps two generations: the pass in progress and the previous
//! pass. Lookups consult the previous pass only — within one pass no op
//! sees the same list twice, since pool clusters are disjoint and each
//! record's level only grows — and every op the current pass runs, hit or
//! miss, is recorded in the current generation. An entry survives only
//! while consecutive passes keep using it, so the memo never holds more
//! than two passes' worth of op lists.
//!
//! A generation is stored in flat buffers (one input-id buffer, one
//! output-id buffer plus cluster end offsets, one entry table, one index)
//! that keep their capacity across passes, so a steady stream of queries
//! stops allocating once the buffers reach their high-water mark.

use adalsh_lsh::mix::combine;

use crate::transitive::PrehashedMap;

/// The op a memo entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoOp {
    /// Transitive hashing function `H_level` (1-based).
    Level(usize),
    /// The pairwise function `P` under the exact oracle.
    Pairwise,
}

impl MemoOp {
    /// Seed of the entry key: distinct per op.
    fn tag(self) -> u64 {
        match self {
            MemoOp::Level(level) => level as u64,
            MemoOp::Pairwise => u64::MAX,
        }
    }
}

/// Outputs of the transitive and exact pairwise ops of the previous
/// resolve pass, reusable by the next pass on identical inputs. Owned by
/// an [`crate::online::OnlineAdaLsh`]; batch runs take none. A default
/// (empty) memo makes the next pass recompute every op.
#[derive(Default)]
pub struct ResolveMemo {
    previous: Generation,
    current: Generation,
}

/// One pass's entries in flat buffers.
#[derive(Default)]
struct Generation {
    /// Entry key (op tag folded with the input ids) → index in `entries`.
    /// On a key collision the first entry wins; the later one is not
    /// stored and simply misses next pass.
    index: PrehashedMap<u32>,
    entries: Vec<Entry>,
    /// Every entry's input list, back to back.
    inputs: Vec<u32>,
    /// Every entry's output clusters, back to back.
    outputs: Vec<u32>,
    /// End offset in `outputs` of each output cluster.
    cluster_ends: Vec<usize>,
}

/// Where one entry's data lives in its [`Generation`].
#[derive(Clone, Copy)]
struct Entry {
    /// `inputs[input_start..input_end]` is the input list.
    input_start: usize,
    input_end: usize,
    /// `cluster_ends[clusters_start..clusters_end]` ends the clusters.
    clusters_start: usize,
    clusters_end: usize,
    /// The op's work counter when it was computed: bucket inserts for
    /// `H_level`, pair comparisons for `P`.
    work: u64,
}

impl Generation {
    /// The entry for `input` under `key`, if stored with that exact list.
    fn find(&self, key: u64, input: &[u32]) -> Option<Entry> {
        let entry = self.entries[*self.index.get(&key)? as usize];
        (self.inputs[entry.input_start..entry.input_end] == *input).then_some(entry)
    }

    /// The output clusters of `entry`.
    fn clusters(&self, entry: Entry) -> impl Iterator<Item = &[u32]> {
        let ends = &self.cluster_ends[entry.clusters_start..entry.clusters_end];
        let mut start = match entry.clusters_start {
            0 => 0,
            i => self.cluster_ends[i - 1],
        };
        ends.iter().map(move |&end| {
            let cluster = &self.outputs[start..end];
            start = end;
            cluster
        })
    }

    /// Stores an entry unless `key` is already taken.
    fn push(&mut self, key: u64, input: &[u32], clusters: &[Vec<u32>], work: u64) {
        let std::collections::hash_map::Entry::Vacant(slot) = self.index.entry(key) else {
            return;
        };
        slot.insert(u32::try_from(self.entries.len()).expect("memo entries fit in u32"));
        let input_start = self.inputs.len();
        self.inputs.extend_from_slice(input);
        let clusters_start = self.cluster_ends.len();
        for cluster in clusters {
            self.outputs.extend_from_slice(cluster);
            self.cluster_ends.push(self.outputs.len());
        }
        self.entries.push(Entry {
            input_start,
            input_end: self.inputs.len(),
            clusters_start,
            clusters_end: self.cluster_ends.len(),
            work,
        });
    }

    /// Drops every entry, keeping the buffers' capacity.
    fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.inputs.clear();
        self.outputs.clear();
        self.cluster_ends.clear();
    }
}

impl ResolveMemo {
    /// Returns the output of `op` on `input`: replayed from the previous
    /// pass when it applied `op` to the identical list, computed by
    /// `compute` otherwise. `compute` returns the clusters and the op's
    /// work counter. The second result is `Some(work)` on a replay — the
    /// work the replay saved — and `None` when `compute` ran. Either way
    /// the entry is kept for the next pass.
    pub(crate) fn reuse_or_compute(
        &mut self,
        op: MemoOp,
        input: &[u32],
        compute: impl FnOnce() -> (Vec<Vec<u32>>, u64),
    ) -> (Vec<Vec<u32>>, Option<u64>) {
        let key = input
            .iter()
            .fold(op.tag(), |h, &id| combine(h, u64::from(id)));
        if let Some(entry) = self.previous.find(key, input) {
            let clusters: Vec<Vec<u32>> =
                self.previous.clusters(entry).map(<[u32]>::to_vec).collect();
            self.current.push(key, input, &clusters, entry.work);
            return (clusters, Some(entry.work));
        }
        let (clusters, work) = compute();
        self.current.push(key, input, &clusters, work);
        (clusters, None)
    }

    /// Ends a resolve pass: its entries become the ones the next pass
    /// may reuse, and the entries it did not use are dropped.
    pub(crate) fn finish_pass(&mut self) {
        std::mem::swap(&mut self.previous, &mut self.current);
        self.current.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        memo: &mut ResolveMemo,
        op: MemoOp,
        input: &[u32],
        output: &[&[u32]],
    ) -> (Vec<Vec<u32>>, Option<u64>) {
        memo.reuse_or_compute(op, input, || {
            (output.iter().map(|c| c.to_vec()).collect(), 7)
        })
    }

    #[test]
    fn replays_only_the_previous_pass() {
        let mut memo = ResolveMemo::default();
        let out: &[&[u32]] = &[&[3, 1], &[2]];
        assert_eq!(run(&mut memo, MemoOp::Level(2), &[3, 1, 2], out).1, None);
        // Same pass: lookups never see the pass in progress.
        assert_eq!(run(&mut memo, MemoOp::Level(2), &[3, 1, 2], out).1, None);
        memo.finish_pass();
        // The next pass replays the stored output, whatever `compute` says.
        let (clusters, work) = run(&mut memo, MemoOp::Level(2), &[3, 1, 2], &[&[9]]);
        assert_eq!(clusters, vec![vec![3, 1], vec![2]]);
        assert_eq!(work, Some(7));
        memo.finish_pass();
        // A hit is carried into the next generation.
        assert_eq!(run(&mut memo, MemoOp::Level(2), &[3, 1, 2], out).1, Some(7));
        memo.finish_pass();
        memo.finish_pass();
        // A pass that did not use the entry drops it.
        assert_eq!(run(&mut memo, MemoOp::Level(2), &[3, 1, 2], out).1, None);
    }

    #[test]
    fn key_is_op_and_ordered_list() {
        let mut memo = ResolveMemo::default();
        run(&mut memo, MemoOp::Level(1), &[0, 1, 2], &[&[0, 1, 2]]);
        run(&mut memo, MemoOp::Pairwise, &[5, 6], &[&[5], &[6]]);
        memo.finish_pass();
        // Other level, other order, other op, prefix: all misses.
        assert_eq!(run(&mut memo, MemoOp::Level(2), &[0, 1, 2], &[]).1, None);
        assert_eq!(run(&mut memo, MemoOp::Level(1), &[0, 2, 1], &[]).1, None);
        assert_eq!(run(&mut memo, MemoOp::Level(1), &[0, 1], &[]).1, None);
        assert_eq!(run(&mut memo, MemoOp::Level(5), &[5, 6], &[]).1, None);
        let (clusters, work) = run(&mut memo, MemoOp::Pairwise, &[5, 6], &[]);
        assert_eq!((clusters, work), (vec![vec![5], vec![6]], Some(7)));
    }

    #[test]
    fn colliding_keys_fall_back_to_compute() {
        let mut generation = Generation::default();
        generation.push(42, &[1, 2], &[vec![1, 2]], 3);
        // Same key, different list: not stored, and never confused.
        generation.push(42, &[4], &[vec![4]], 1);
        assert!(generation.find(42, &[4]).is_none());
        let entry = generation.find(42, &[1, 2]).expect("first entry kept");
        assert_eq!(
            generation.clusters(entry).collect::<Vec<_>>(),
            vec![&[1, 2]]
        );
    }
}
