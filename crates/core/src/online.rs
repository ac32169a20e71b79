//! Online top-k entity resolution (the paper's §9 future-work setting).
//!
//! In the online setting there is no fixed dataset: records arrive
//! dynamically and the user periodically asks for the current top-k
//! entities. The batch algorithm's *incremental computation* property
//! (Property 4) makes a simple design effective: keep one persistent
//! [`RecordHashState`] per record, and answer each query by running
//! Algorithm 1 over the current record set **with those states**. Raw
//! hash values computed in earlier queries are never recomputed — a
//! record that reached level 3 while processing query `t` starts at
//! level 3 in query `t + 1` — so successive queries pay hashing only for
//! (a) new arrivals and (b) records pushed to deeper levels than before.
//!
//! Each query also reuses whole ops of the previous one through a
//! [`ResolveMemo`]: a transitive call `H_i`, or an exact-oracle `P`
//! call, whose input list (ids and order) equals one the previous query
//! ran is answered with that query's stored output. New records take the
//! highest ids and are inserted last, so every `H_1` component no new
//! record touches keeps its exact list, and the whole chain of ops below
//! it — bucket insertions and pairwise verification — is replayed, not
//! redone. Only touched clusters are recomputed. Tables stay fresh per
//! invocation (a replayed output *is* the fresh-table output), so every
//! answer equals what the batch algorithm would return on the same
//! snapshot, down to `Stats` call and round counts and the modeled cost;
//! the work counters book replayed bucket inserts and pair comparisons
//! as `bucket_inserts_reused` / `pairs_reused`. A noisy oracle's `P` is
//! never replayed.
//!
//! The resolver maintains its snapshot [`Dataset`] **incrementally**:
//! each [`OnlineAdaLsh::push`] appends one record (and its cached field
//! norm) in place, and [`OnlineAdaLsh::query`] borrows that dataset —
//! steady-state queries pay no per-query copy of the record vectors.
//!
//! For long-lived services the full resolver state round-trips through
//! an [`OnlineSnapshot`]: records, labels, per-record hash states, and
//! the bootstrap prefix the engine was designed from. Restoring with
//! [`OnlineAdaLsh::from_snapshot`] under the same configuration rebuilds
//! an identical engine (sequence design and seeds are deterministic in
//! the bootstrap data and config), so no hash value is ever recomputed
//! for an already-hashed record. The memo is not part of the snapshot: a
//! restored resolver starts with an empty one, and its first query
//! recomputes every op.

use adalsh_data::{Dataset, Record, Schema};
use adalsh_obs::{TraceSink, Value};
use serde::{Deserialize, Serialize};

use crate::algorithm::{AdaLsh, AdaLshConfig, FilterOutput};
use crate::hashing::RecordHashState;
use crate::memo::ResolveMemo;
use crate::oracle::VerdictOverlay;

/// Ground-truth label attached to records ingested online (their entity
/// is unknown; labels are never consulted by the filter itself).
const UNKNOWN_ENTITY: u32 = u32::MAX;

/// An online top-k resolver over a stream of records.
pub struct OnlineAdaLsh {
    engine: AdaLsh,
    config: AdaLshConfig,
    /// The first `bootstrap_len` records seeded the engine design.
    bootstrap_len: usize,
    /// Current snapshot, grown in place on every push.
    dataset: Dataset,
    states: Vec<RecordHashState>,
    /// Op outputs of the previous query, replayed on identical inputs.
    memo: ResolveMemo,
}

/// The full serializable state of an [`OnlineAdaLsh`]: everything needed
/// to resume resolution after a restart without re-hashing any record.
///
/// The engine itself (hash families, sequence design, cost model) is
/// *not* stored: it is a deterministic function of the bootstrap prefix
/// and the configuration, and [`OnlineAdaLsh::from_snapshot`] rebuilds
/// it bit-identically from `records[..bootstrap_len]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineSnapshot {
    /// Number of leading records that seeded the engine design.
    pub bootstrap_len: usize,
    /// The record schema.
    pub schema: Schema,
    /// All records seen so far, in id order.
    pub records: Vec<Record>,
    /// Per-record entity labels (bootstrap labels are real; online
    /// arrivals carry `u32::MAX` = unknown).
    pub labels: Vec<u32>,
    /// Per-record incremental hash states, aligned with `records`.
    pub states: Vec<RecordHashState>,
}

impl OnlineAdaLsh {
    /// Creates an online resolver. `bootstrap` must contain at least one
    /// record — it seeds the schema, the sequence design, and the cost
    /// model (both are data-dependent; a representative bootstrap sample
    /// gives a representative design).
    ///
    /// # Errors
    /// Fails when no feasible sequence design exists for the bootstrap
    /// dataset under `config`.
    pub fn new(bootstrap: &Dataset, config: AdaLshConfig) -> Result<Self, String> {
        let engine = AdaLsh::for_dataset(bootstrap, config.clone())?;
        Ok(Self {
            engine,
            config,
            bootstrap_len: bootstrap.len(),
            dataset: bootstrap.clone(),
            states: vec![RecordHashState::default(); bootstrap.len()],
            memo: ResolveMemo::default(),
        })
    }

    /// Number of records seen so far.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// True when no records have been ingested (impossible by
    /// construction; kept for idiom).
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// The record schema every ingested record must conform to.
    pub fn schema(&self) -> &Schema {
        self.dataset.schema()
    }

    /// All records seen so far, in id order.
    pub fn records(&self) -> &[Record] {
        self.dataset.records()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &AdaLshConfig {
        &self.config
    }

    /// Ingests one record, returning its assigned id.
    ///
    /// # Errors
    /// Fails (ingesting nothing) if the record violates the schema — a
    /// service rejects bad records per-request instead of dying.
    pub fn push(&mut self, record: Record) -> Result<u32, String> {
        let id = self.dataset.push(record, UNKNOWN_ENTITY)?;
        self.states.push(RecordHashState::default());
        Ok(id)
    }

    /// Ingests a batch of records, returning their assigned ids.
    ///
    /// The batch is atomic: every record is schema-validated before any
    /// is ingested, so a rejected batch leaves the resolver unchanged.
    ///
    /// # Errors
    /// Fails if any record violates the schema (the message names the
    /// offending batch position).
    pub fn extend(
        &mut self,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<Vec<u32>, String> {
        let records: Vec<Record> = records.into_iter().collect();
        for (i, r) in records.iter().enumerate() {
            self.schema()
                .validate(r)
                .map_err(|e| format!("record {i} of batch: {e}"))?;
        }
        let mut ids = Vec::with_capacity(records.len());
        for r in records {
            ids.push(self.push(r).expect("batch pre-validated"));
        }
        Ok(ids)
    }

    /// Answers a top-`k` query over everything ingested so far. Hashing
    /// work persists across queries, and every transitive or exact `P`
    /// call whose input list the previous query already processed is
    /// replayed from the memo (its saved work shows in
    /// `stats.bucket_inserts_reused` / `stats.pairs_reused`). The answer
    /// is identical to running the batch algorithm on the current
    /// snapshot. The snapshot dataset is borrowed, not rebuilt — a
    /// steady-state query does no per-record copying.
    ///
    /// This is the whole resolve step of a serving loop (`adalsh-serve`
    /// calls it for the boot pass, every ingest pass, and every
    /// re-resolve after new verdicts): a verdict posted to an installed
    /// [`VerdictOverlay`] takes effect on the next call, because a noisy
    /// oracle's `P` is never replayed.
    pub fn query(&mut self, k: usize) -> FilterOutput {
        let sink = self.engine.trace().clone();
        // Per-record levels before the run: fresh records (level 0) have
        // never been hashed; records whose level grows during this query
        // are the ones pushed deeper than any earlier query needed.
        let pre_levels: Option<Vec<u16>> = sink
            .enabled()
            .then(|| self.states.iter().map(|s| s.level).collect());
        let out = self.engine.run_with_states(
            &self.dataset,
            k,
            &mut self.states,
            Some(&mut self.memo),
            |_, _| {},
        );
        if let Some(before) = pre_levels {
            let fresh = before.iter().filter(|&&level| level == 0).count() as u64;
            let advanced = self
                .states
                .iter()
                .zip(&before)
                .filter(|(s, &b)| s.level > b)
                .count() as u64;
            sink.emit(
                "online_query",
                &[
                    ("k", Value::U64(k as u64)),
                    ("records", Value::U64(self.dataset.len() as u64)),
                    ("fresh_records", Value::U64(fresh)),
                    ("advanced_records", Value::U64(advanced)),
                    ("hash_evals", Value::U64(out.stats.hash_evals)),
                    (
                        "bucket_inserts_reused",
                        Value::U64(out.stats.bucket_inserts_reused),
                    ),
                    ("pairs_reused", Value::U64(out.stats.pairs_reused)),
                    ("wall_micros", Value::U64(out.wall.as_micros() as u64)),
                ],
            );
            sink.flush();
        }
        out
    }

    /// Installs (or replaces) the external-verdict overlay consulted by
    /// a noisy oracle — e.g. the store behind a serving layer's
    /// `/adjudicate` endpoint. The next [`OnlineAdaLsh::query`] honours
    /// every verdict posted so far.
    pub fn set_oracle_overlay(&mut self, overlay: Option<std::sync::Arc<VerdictOverlay>>) {
        self.config.oracle_overlay = overlay.clone();
        self.engine.set_oracle_overlay(overlay);
    }

    /// Installs (or replaces) the engine's trace sink — e.g. the serving
    /// layer folding engine events into its metrics registry.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.config.trace = sink.clone();
        self.engine.set_trace(sink);
    }

    /// The engine's trace sink.
    pub fn trace(&self) -> &TraceSink {
        self.engine.trace()
    }

    /// Captures the resolver's full state for persistence.
    pub fn snapshot(&self) -> OnlineSnapshot {
        OnlineSnapshot {
            bootstrap_len: self.bootstrap_len,
            schema: self.dataset.schema().clone(),
            records: self.dataset.records().to_vec(),
            labels: self.dataset.ground_truth().to_vec(),
            states: self.states.clone(),
        }
    }

    /// Restores a resolver from a snapshot, rebuilding the engine from
    /// the bootstrap prefix under `config`. With the same configuration
    /// the snapshot was taken under, the rebuilt engine is bit-identical
    /// (the design and every hash seed are deterministic), so restored
    /// hash states line up exactly and already-hashed records are never
    /// re-hashed.
    ///
    /// # Errors
    /// Fails on inconsistent snapshot shapes (length mismatches, empty or
    /// out-of-range bootstrap, schema-violating records) or when the
    /// engine cannot be rebuilt under `config`.
    pub fn from_snapshot(snapshot: OnlineSnapshot, config: AdaLshConfig) -> Result<Self, String> {
        let OnlineSnapshot {
            bootstrap_len,
            schema,
            records,
            labels,
            states,
        } = snapshot;
        if records.is_empty() {
            return Err("snapshot has no records".to_string());
        }
        if records.len() != labels.len() || records.len() != states.len() {
            return Err(format!(
                "snapshot shape mismatch: {} records, {} labels, {} states",
                records.len(),
                labels.len(),
                states.len()
            ));
        }
        if bootstrap_len == 0 || bootstrap_len > records.len() {
            return Err(format!(
                "snapshot bootstrap_len {} out of range 1..={}",
                bootstrap_len,
                records.len()
            ));
        }
        for (i, r) in records.iter().enumerate() {
            schema
                .validate(r)
                .map_err(|e| format!("snapshot record {i}: {e}"))?;
        }
        let bootstrap = Dataset::new(
            schema.clone(),
            records[..bootstrap_len].to_vec(),
            labels[..bootstrap_len].to_vec(),
        );
        let engine = AdaLsh::for_dataset(&bootstrap, config.clone())?;
        let max_level = engine.num_levels() as u16;
        if let Some(bad) = states.iter().position(|s| s.level > max_level) {
            return Err(format!(
                "snapshot state {bad} is at level {} but the engine has only {max_level} levels \
                 (was the snapshot taken under a different configuration?)",
                states[bad].level
            ));
        }
        if let Some(bad) = states.iter().position(|s| !s.is_well_formed()) {
            return Err(format!(
                "snapshot state {bad} claims level {} but its accumulator history does not \
                 match (corrupt or hand-edited snapshot?)",
                states[bad].level
            ));
        }
        Ok(Self {
            engine,
            config,
            bootstrap_len,
            dataset: Dataset::new(schema, records, labels),
            states,
            memo: ResolveMemo::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FilterMethod;
    use crate::baselines::Pairs;
    use adalsh_data::{FieldDistance, FieldKind, FieldValue, MatchRule, ShingleSet};

    fn record(core: u64, noise: u64) -> Record {
        let mut s: Vec<u64> = (0..15).map(|i| core * 1000 + i).collect();
        s.push(core * 1000 + 500 + noise % 4);
        Record::single(FieldValue::Shingles(ShingleSet::new(s)))
    }

    fn bootstrap() -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..20).map(|i| record(i % 4, i)).collect();
        let gt = (0..20).map(|i| (i % 4) as u32).collect();
        Dataset::new(schema, records, gt)
    }

    fn rule() -> MatchRule {
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
    }

    #[test]
    fn query_matches_batch_on_snapshot() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        // Ingest a burst making entity 7 the largest.
        for i in 0..9 {
            online.push(record(7, i)).unwrap();
        }
        let out = online.query(1);
        // Batch reference on the same snapshot.
        let gold = Pairs::new(rule()).filter(
            &Dataset::new(
                boot.schema().clone(),
                online.records().to_vec(),
                vec![0; online.len()],
            ),
            1,
        );
        assert_eq!(out.records(), gold.records());
        assert_eq!(out.clusters[0].len(), 9);
    }

    #[test]
    fn repeated_queries_amortize_hashing() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let first = online.query(2);
        let second = online.query(2);
        assert_eq!(first.records(), second.records());
        assert!(
            second.stats.hash_evals == 0,
            "second identical query must reuse every hash value (got {})",
            second.stats.hash_evals
        );
    }

    /// With the jump gate disabled every cluster walks the full
    /// sequence, so hash states advance past level 1 — the regime where
    /// a later query re-applies `H₁` to already-deep records. (With the
    /// gate on, small test datasets jump to pairwise straight from
    /// level 1 and never exercise this.) A re-query must serve every
    /// earlier level's bucket keys from the persisted state instead of
    /// re-hashing — or panicking.
    #[test]
    fn requery_after_deep_hashing_reuses_every_level() {
        let mut config = AdaLshConfig::new(rule());
        config.disable_jump_gate = true;
        let mut online = OnlineAdaLsh::new(&bootstrap(), config).unwrap();
        let first = online.query(2);
        assert!(
            first.stats.transitive_calls > 1,
            "precondition: the run must apply more than one sequence level \
             (got {} transitive calls)",
            first.stats.transitive_calls
        );
        let second = online.query(2);
        assert_eq!(first.records(), second.records());
        assert_eq!(
            second.stats.hash_evals, 0,
            "re-query must reuse the persisted keys of every level"
        );
    }

    /// Same regime through the snapshot round-trip: deep states must
    /// resume with zero re-hashing, not just level-1 states.
    #[test]
    fn snapshot_roundtrip_preserves_deep_hash_states() {
        let mut config = AdaLshConfig::new(rule());
        config.disable_jump_gate = true;
        let mut online = OnlineAdaLsh::new(&bootstrap(), config.clone()).unwrap();
        let before = online.query(2);
        assert!(before.stats.transitive_calls > 1, "precondition: deep run");

        let json = serde_json::to_string(&online.snapshot()).unwrap();
        let restored: OnlineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = OnlineAdaLsh::from_snapshot(restored, config).unwrap();

        let after = resumed.query(2);
        assert_eq!(after.clusters, before.clusters, "same answer after resume");
        assert_eq!(
            after.stats.hash_evals, 0,
            "resumed deep states must not re-hash any record"
        );
    }

    /// External verdicts change the answer at an unchanged corpus: once
    /// the overlay overrules every match of one top-cluster member,
    /// the next `query` splits that member off, re-adjudicating pairs
    /// without re-hashing anything.
    #[test]
    fn overlay_verdicts_change_the_answer_at_an_unchanged_corpus() {
        use crate::oracle::{NoisyOracleConfig, OracleMode, VerdictOverlay};
        let mut config = AdaLshConfig::new(rule());
        // Zero-noise oracle: identical to the exact path until the
        // overlay says otherwise.
        config.oracle = OracleMode::Noisy(NoisyOracleConfig::default());
        let mut online = OnlineAdaLsh::new(&bootstrap(), config).unwrap();
        let overlay = std::sync::Arc::new(VerdictOverlay::default());
        online.set_oracle_overlay(Some(overlay.clone()));

        let first = online.query(2);
        assert!(first.stats.hash_evals > 0, "cold resolve must hash");
        let again = online.query(2);
        assert_eq!(again.clusters, first.clusters, "no verdict, same answer");

        let top = first.clusters[0].clone();
        assert!(top.len() >= 2, "precondition: a non-trivial top cluster");
        for &other in &top[1..] {
            overlay.set(top[0], other, false);
        }
        let revised = online.query(2);
        assert_ne!(
            revised.clusters, first.clusters,
            "verdicts change the answer"
        );
        assert!(
            revised
                .clusters
                .iter()
                .all(|cluster| !(cluster.contains(&top[0]) && cluster.contains(&top[1]))),
            "overruled pair still resolved together: {:?}",
            revised.clusters
        );
        assert_eq!(
            revised.stats.hash_evals, 0,
            "re-resolve after new verdicts reuses every hash"
        );
        let spend = revised.oracle.as_ref().expect("noisy run reports spend");
        assert!(spend.calls > 0, "re-resolve re-adjudicates pairs");
    }

    /// An arrival from a new entity touches no existing cluster, so the
    /// next query replays every existing cluster's `P` from the memo —
    /// and still answers exactly what a memo-less resolver does.
    #[test]
    fn untouched_clusters_are_replayed_not_reverified() {
        let config = AdaLshConfig::new(rule());
        let mut online = OnlineAdaLsh::new(&bootstrap(), config.clone()).unwrap();
        let first = online.query(4);
        assert!(first.stats.pair_comparisons > 0, "precondition: P runs");
        assert_eq!(
            (first.stats.bucket_inserts_reused, first.stats.pairs_reused),
            (0, 0)
        );
        online.push(record(9, 0)).unwrap();
        let mut reference = OnlineAdaLsh::from_snapshot(online.snapshot(), config).unwrap();
        let want = reference.query(4);
        let got = online.query(4);
        assert_eq!(got.clusters, want.clusters);
        assert_eq!(got.stats.pairs_reused, want.stats.pair_comparisons);
        assert_eq!(got.stats.pair_comparisons, 0, "every P call replayed");
        assert_eq!(got.stats.pairwise_calls, want.stats.pairwise_calls);
        assert_eq!(
            got.stats.modeled_cost.to_bits(),
            want.stats.modeled_cost.to_bits()
        );
    }

    #[test]
    fn new_arrivals_pay_only_their_own_hashing() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let first = online.query(2);
        online.push(record(0, 99)).unwrap();
        let third = online.query(2);
        assert!(
            third.stats.hash_evals < first.stats.hash_evals / 2,
            "incremental query cost {} should be far below initial {}",
            third.stats.hash_evals,
            first.stats.hash_evals
        );
    }

    #[test]
    fn ranking_tracks_the_stream() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let before = online.query(1);
        assert_eq!(before.clusters[0].len(), 5, "entities are 5/5/5/5");
        for i in 0..10 {
            online.push(record(2, 50 + i)).unwrap();
        }
        let after = online.query(1);
        assert_eq!(after.clusters[0].len(), 15, "entity 2 grew to 15");
    }

    #[test]
    fn schema_violations_rejected_without_state_change() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let bad = Record::single(FieldValue::Dense(adalsh_data::DenseVector::new(vec![1.0])));
        let err = online.push(bad).unwrap_err();
        assert!(err.contains("kind"), "error should describe the mismatch");
        assert_eq!(online.len(), boot.len(), "nothing ingested");
        assert_eq!(online.states.len(), boot.len(), "no orphan state");
        // The resolver still works after the rejection.
        let out = online.query(1);
        assert_eq!(out.clusters[0].len(), 5);
    }

    #[test]
    fn extend_is_atomic_on_batch_rejection() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let bad = Record::single(FieldValue::Dense(adalsh_data::DenseVector::new(vec![1.0])));
        let err = online
            .extend(vec![record(1, 0), bad, record(1, 1)])
            .unwrap_err();
        assert!(err.contains("record 1"), "error names the position: {err}");
        assert_eq!(online.len(), boot.len(), "rejected batch ingests nothing");
        let ids = online.extend(vec![record(1, 0), record(1, 1)]).unwrap();
        assert_eq!(ids, vec![20, 21]);
    }

    /// The incrementally-grown snapshot dataset must be bit-identical —
    /// records, labels, and cached field norms — to rebuilding a
    /// [`Dataset`] from scratch over the same records (what `query` did
    /// before it stopped cloning).
    #[test]
    fn incremental_snapshot_equals_rebuilt_dataset() {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        for i in 0..7 {
            online.push(record(i % 5, i)).unwrap();
        }
        let rebuilt = Dataset::new(
            boot.schema().clone(),
            online.records().to_vec(),
            online.dataset.ground_truth().to_vec(),
        );
        assert_eq!(online.dataset.records(), rebuilt.records());
        assert_eq!(online.dataset.ground_truth(), rebuilt.ground_truth());
        for i in 0..rebuilt.len() as u32 {
            assert_eq!(
                online.dataset.field_norm(i, 0).to_bits(),
                rebuilt.field_norm(i, 0).to_bits()
            );
        }
        // And querying the grown snapshot equals batch resolution on the
        // rebuilt one.
        let out = online.query(2);
        let gold = Pairs::new(rule()).filter(&rebuilt, 2);
        assert_eq!(out.records(), gold.records());
    }

    #[test]
    fn snapshot_roundtrip_resumes_without_rehashing() {
        let boot = bootstrap();
        let config = AdaLshConfig::new(rule());
        let mut online = OnlineAdaLsh::new(&boot, config.clone()).unwrap();
        for i in 0..9 {
            online.push(record(7, i)).unwrap();
        }
        let before = online.query(1);
        assert!(before.stats.hash_evals > 0);

        let snap = online.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let restored: OnlineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = OnlineAdaLsh::from_snapshot(restored, config).unwrap();

        let after = resumed.query(1);
        assert_eq!(after.clusters, before.clusters, "same answer after resume");
        assert_eq!(
            after.stats.hash_evals, 0,
            "resume must not re-hash any already-hashed record"
        );
        // The resumed resolver keeps working incrementally.
        resumed.push(record(7, 100)).unwrap();
        let grown = resumed.query(1);
        assert_eq!(grown.clusters[0].len(), 10);
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_shapes() {
        let boot = bootstrap();
        let config = AdaLshConfig::new(rule());
        let online = OnlineAdaLsh::new(&boot, config.clone()).unwrap();
        let good = online.snapshot();

        let mut missing_state = good.clone();
        missing_state.states.pop();
        assert!(OnlineAdaLsh::from_snapshot(missing_state, config.clone()).is_err());

        let mut bad_boot = good.clone();
        bad_boot.bootstrap_len = 0;
        assert!(OnlineAdaLsh::from_snapshot(bad_boot, config.clone()).is_err());

        let mut deep_state = good;
        deep_state.states[0].level = u16::MAX;
        let err = match OnlineAdaLsh::from_snapshot(deep_state, config) {
            Ok(_) => panic!("over-deep state must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("level"), "{err}");
    }
}
