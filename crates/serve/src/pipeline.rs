//! The read/write-split ingest pipeline: bounded intake queue, one
//! resolver thread, epoch-published snapshots.
//!
//! ```text
//!                    write path                      read path
//!   POST /ingest ──▶ validate ──▶ ┌──────────────┐
//!                    (schema,     │ bounded MPSC │   GET /topk ────┐ Arc clone
//!                     reserve ids │ queue        │   GET /healthz ─┤ under the
//!                     + epoch)    │ (cap = Q)    │   GET /metrics ─┘ publish lock
//!                         503 ◀── └──────┬───────┘        ▲
//!                    + Retry-After       │ drain ≤ B      │ publish
//!                                 ┌──────▼───────┐  ┌─────┴──────────────┐
//!                                 │ resolver     │  │ Arc<ResolvedSnap-  │
//!                                 │ thread       ├─▶│ shot> (epoch, recs,│
//!                                 │ (OnlineAda-  │  │ clusters, Stats)   │
//!                                 │  Lsh owner)  │  └────────────────────┘
//!                                 └──────────────┘
//! ```
//!
//! **Write path.** `submit` validates every record against the schema,
//! then — under a small *intake* mutex that only writers touch —
//! reserves the batch's record ids and its **epoch** (the 1-based count
//! of accepted batches) and pushes a command into a bounded
//! [`sync_channel`]. A full queue rejects the batch *before* anything
//! was reserved, so an overloaded caller can retry the identical
//! request. The intake mutex linearizes (reserve, enqueue): batches
//! land in the queue in epoch order, which is also id order.
//!
//! **Resolver thread.** The single drainer owns the [`OnlineAdaLsh`].
//! It pops the next command, opportunistically coalesces further queued
//! ingest batches up to `max_batch` records (adaptive batching: an idle
//! server resolves per batch for freshness, a backlogged one amortizes
//! one resolve pass over many batches), applies them, and runs the two
//! steps every pass shares — the boot pass, each ingest pass, and each
//! re-resolve after new verdicts: the *resolve step* (`query` at
//! `resolve_k`, eval counters, an immutable [`ResolvedSnapshot`]) and
//! the *publish step* (swap the snapshot in, wake barrier waiters).
//! Snapshot commands execute between passes, so a persisted snapshot
//! always corresponds exactly to a published epoch.
//!
//! **Read path.** The published `Arc` sits behind one mutex. A reader
//! holds it for one `Arc` clone and the resolver for one pointer swap —
//! never across a resolve pass — so a busy resolver never delays a
//! read. Read-your-writes is opt-in: `wait_until` parks on the same
//! mutex's condvar until the published snapshot's epoch / record count
//! reaches a floor.
//!
//! **Epoch/answer semantics.** Epoch `E` means "the first `E` accepted
//! batches are applied". The published clusters are resolved at
//! `resolve_k`; because the engine and the Pairs baseline share one
//! canonical cluster order (size-descending, then smallest-id), the
//! first `N ≤ resolve_k` published clusters are exactly the top-`N`
//! answer, so `/topk?k=N` serves a prefix. Published `Stats` are those
//! of the resolve pass that produced the answer (a resume with fully
//! persisted hash states legitimately publishes `hash_evals == 0`).

use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adalsh_core::{OnlineAdaLsh, OracleSpend, Stats};
use adalsh_data::{MatchRule, Record, Schema};
use adalsh_obs::{ProcSample, SpanCollector, Spans, TraceSink, Value};

use crate::metrics::PipelineMetrics;
use crate::snapshot::ServeSnapshot;

/// Tunables for the ingest pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Capacity of the bounded ingest queue, in batches. A full queue
    /// answers `503` + `Retry-After` instead of growing memory.
    pub queue_cap: usize,
    /// Most records one resolve pass will coalesce from consecutive
    /// queued batches.
    pub max_batch: usize,
    /// The `k` the resolver thread resolves at; `/topk?k=N` serves the
    /// first `N ≤ resolve_k` published clusters.
    pub resolve_k: usize,
    /// Longest a `wait_epoch=` / `min_records=` barrier read parks
    /// before giving up.
    pub barrier_timeout: Duration,
    /// Root spans at or above this many milliseconds are logged to
    /// stderr (`--slow-ms`; 0 disables the slow-op log).
    pub slow_ms: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            max_batch: 2048,
            resolve_k: 10,
            barrier_timeout: Duration::from_secs(10),
            slow_ms: 0,
        }
    }
}

/// One immutable published resolution state. Readers clone the `Arc`
/// around this; nothing in here is ever mutated after publish.
#[derive(Debug, Clone)]
pub struct ResolvedSnapshot {
    /// Number of accepted ingest batches applied (0 = bootstrap only).
    pub epoch: u64,
    /// Records resolved into this snapshot.
    pub records: usize,
    /// The `k` this snapshot was resolved at.
    pub resolve_k: usize,
    /// Top-`resolve_k` clusters in canonical order (size-descending,
    /// ties by smallest member id).
    pub clusters: Vec<Vec<u32>>,
    /// Counters of the resolve pass that produced `clusters`.
    pub stats: Stats,
    /// Oracle-ledger totals of that resolve pass (noisy oracle only):
    /// spend, retries, and the degraded pairs awaiting external
    /// adjudication over `POST /adjudicate`.
    pub oracle: Option<OracleSpend>,
    /// Wall time of that resolve pass.
    pub resolve_wall: Duration,
}

/// What `submit` hands back for an accepted batch.
#[derive(Debug)]
pub struct Accepted {
    /// Ids the batch's records will occupy, in order.
    pub ids: Vec<u32>,
    /// The epoch at which the batch becomes visible: once the published
    /// epoch reaches this value, every read sees these records.
    pub visible_epoch: u64,
}

/// Why a batch was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// A record failed schema validation (batch atomically rejected).
    Invalid(String),
    /// The ingest queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested `Retry-After`, in seconds.
        retry_after_secs: u64,
    },
    /// The pipeline is shutting down.
    ShuttingDown,
}

/// Result of a drained snapshot command.
#[derive(Debug)]
pub struct SnapshotDone {
    /// Epoch the persisted state corresponds to.
    pub epoch: u64,
    /// Records persisted.
    pub records: usize,
}

enum Command {
    Ingest {
        records: Vec<Record>,
        epoch: u64,
        /// Truncated-micros stamp (on the pipeline's [`Spans`] origin)
        /// taken at `submit` — the root `ingest_batch` span starts
        /// here, so queue wait is part of ingest-to-visible latency.
        enqueued_micros: u64,
    },
    Snapshot {
        reply: SyncSender<Result<SnapshotDone, String>>,
    },
    /// Re-resolve and re-publish at the current epoch — issued after
    /// `POST /adjudicate` lands external verdicts so they become
    /// visible without waiting for the next ingest.
    Reresolve {
        reply: SyncSender<Arc<ResolvedSnapshot>>,
    },
}

/// Writer-side state; only `submit` and the command round trip lock
/// this, never reads.
struct Intake {
    sender: Option<SyncSender<Command>>,
    next_id: u32,
    next_epoch: u64,
}

/// The one publication point: the current snapshot, and the condvar
/// read-your-writes barriers park on. Readers hold the mutex for one
/// `Arc` clone, the resolver for one pointer swap.
struct Published {
    snapshot: Mutex<Arc<ResolvedSnapshot>>,
    changed: Condvar,
}

impl Published {
    fn load(&self) -> Arc<ResolvedSnapshot> {
        Arc::clone(&lock_unpoisoned(&self.snapshot))
    }
}

/// The assembled pipeline: intake queue + resolver thread + published
/// snapshot. Dropping it drains the queue and joins the resolver.
pub struct Pipeline {
    intake: Mutex<Intake>,
    published: Arc<Published>,
    schema: Schema,
    config: PipelineConfig,
    metrics: PipelineMetrics,
    spans: Arc<Spans>,
    snapshot_enabled: bool,
    drainer: Option<JoinHandle<()>>,
}

impl Pipeline {
    /// Takes ownership of the resolver, publishes the boot snapshot
    /// **synchronously** (the server answers `/topk` correctly before
    /// the first ingest), and spawns the resolver thread.
    ///
    /// When `spans` is enabled, every ingest pass gets a root
    /// `ingest_batch` span with `queue_wait` / `coalesce` / `resolve`
    /// (plus engine-derived `hash_rounds` / `pairwise` children) /
    /// `publish` child spans, emitted through the resolver's trace
    /// sink. A [`SpanCollector`] is composed onto that sink **before**
    /// the boot resolve so its 1-based segment numbering lines up with
    /// the trace file's segment count.
    pub fn start(
        mut resolver: OnlineAdaLsh,
        rule: MatchRule,
        snapshot_path: Option<PathBuf>,
        config: PipelineConfig,
        metrics: PipelineMetrics,
        spans: Arc<Spans>,
    ) -> Self {
        let schema = resolver.schema().clone();
        let snapshot_enabled = snapshot_path.is_some();
        let resolve_k = config.resolve_k.max(1);

        let collector = if spans.enabled() {
            let collector = Arc::new(SpanCollector::new());
            let composed = resolver.trace().with(collector.clone());
            resolver.set_trace(composed);
            Some(collector)
        } else {
            None
        };

        // The boot pass publishes through the same steps as every later
        // one, so the slot starts with an empty placeholder that no
        // reader ever sees: it is replaced before `start` returns.
        let published = Arc::new(Published {
            snapshot: Mutex::new(Arc::new(ResolvedSnapshot {
                epoch: 0,
                records: 0,
                resolve_k,
                clusters: Vec::new(),
                stats: Stats::default(),
                oracle: None,
                resolve_wall: Duration::ZERO,
            })),
            changed: Condvar::new(),
        });
        let sink = resolver.trace().clone();
        let mut drainer = Drainer {
            resolver,
            rule,
            snapshot_path,
            published: Arc::clone(&published),
            metrics: metrics.clone(),
            resolve_k,
            max_batch: config.max_batch.max(1),
            span_ctx: SpanContext {
                spans: Arc::clone(&spans),
                collector,
                sink,
            },
        };

        // Boot pass: epoch 0 covers everything the resolver was
        // constructed (or resumed) with.
        let boot_start = Instant::now();
        let boot = drainer.resolve(0);
        drainer.discard_segment();
        let next_id = boot.records as u32;
        drainer.publish(boot, boot_start);

        let (sender, receiver) = sync_channel::<Command>(config.queue_cap.max(1));
        let handle = std::thread::Builder::new()
            .name("adalsh-resolver".to_string())
            .spawn(move || drainer.run(&receiver))
            .expect("spawn resolver thread");

        Self {
            intake: Mutex::new(Intake {
                sender: Some(sender),
                next_id,
                next_epoch: 1,
            }),
            published,
            schema,
            config,
            metrics,
            spans,
            snapshot_enabled,
            drainer: Some(handle),
        }
    }

    /// Whether a snapshot path was configured (the service rejects
    /// `POST /snapshot` early when it wasn't).
    pub fn snapshot_enabled(&self) -> bool {
        self.snapshot_enabled
    }

    /// The currently published snapshot: one `Arc` clone under the
    /// publication mutex, which the resolver holds only to swap in a
    /// finished snapshot — a resolve pass in progress never delays it.
    pub fn current(&self) -> Arc<ResolvedSnapshot> {
        self.published.load()
    }

    /// The `k` the resolver resolves at.
    pub fn resolve_k(&self) -> usize {
        self.config.resolve_k.max(1)
    }

    /// Validates and enqueues one ingest batch.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] on an empty batch or a schema violation
    /// (nothing reserved), [`SubmitError::Overloaded`] when the queue is
    /// full (nothing reserved — the retry is idempotent),
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, records: Vec<Record>) -> Result<Accepted, SubmitError> {
        if records.is_empty() {
            return Err(SubmitError::Invalid(
                "batch must hold at least one record".to_string(),
            ));
        }
        for (i, record) in records.iter().enumerate() {
            self.schema
                .validate(record)
                .map_err(|e| SubmitError::Invalid(format!("record {i} of batch: {e}")))?;
        }
        let count = records.len() as u32;
        let enqueued_micros = if self.spans.enabled() {
            self.spans.now_micros()
        } else {
            0
        };

        let mut intake = lock_unpoisoned(&self.intake);
        let Some(sender) = intake.sender.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let first_id = intake.next_id;
        let epoch = intake.next_epoch;
        // Gauge up *before* the command becomes visible: the drainer's
        // matching `dec` can only run after a successful send, so the
        // pair can never saturate at zero and leak a phantom unit.
        self.metrics.queue_depth.inc();
        match sender.try_send(Command::Ingest {
            records,
            epoch,
            enqueued_micros,
        }) {
            Ok(()) => {
                intake.next_id += count;
                intake.next_epoch += 1;
                Ok(Accepted {
                    ids: (first_id..first_id + count).collect(),
                    visible_epoch: epoch,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.queue_depth.dec();
                self.metrics.rejected_batches.inc();
                Err(SubmitError::Overloaded {
                    retry_after_secs: 1,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.dec();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Asks the resolver thread to persist a snapshot at the next epoch
    /// boundary and waits for the result. Readers are never blocked;
    /// only this caller waits.
    ///
    /// # Errors
    /// Propagates capture/save failures; times out if the resolver is
    /// stuck behind an enormous backlog.
    pub fn snapshot(&self) -> Result<SnapshotDone, String> {
        self.round_trip(|reply| Command::Snapshot { reply }, "snapshot")?
    }

    /// Asks the resolver thread to re-resolve and re-publish at the
    /// current epoch, returning the fresh snapshot. Used after external
    /// verdicts land, so the re-adjudicated answer becomes visible
    /// without waiting for the next ingest.
    ///
    /// # Errors
    /// Fails when the pipeline is shutting down or the resolver is
    /// stuck behind an enormous backlog.
    pub fn reresolve(&self) -> Result<Arc<ResolvedSnapshot>, String> {
        self.round_trip(|reply| Command::Reresolve { reply }, "re-resolve")
    }

    /// Queues a command carrying a reply channel and waits for the
    /// resolver's answer. The sender is cloned under the intake mutex
    /// and the possibly blocking send happens after releasing it, so a
    /// full queue stalls only this caller: concurrent `submit`s still
    /// get their immediate `Overloaded`. The command occupies a queue
    /// slot; blocking briefly instead of failing suits these rare,
    /// small commands.
    fn round_trip<T>(
        &self,
        command: impl FnOnce(SyncSender<T>) -> Command,
        action: &str,
    ) -> Result<T, String> {
        let shutting_down = || "pipeline is shutting down".to_string();
        let sender = lock_unpoisoned(&self.intake)
            .sender
            .clone()
            .ok_or_else(shutting_down)?;
        let (reply, done) = sync_channel(1);
        self.metrics.queue_depth.inc();
        if sender.send(command(reply)).is_err() {
            self.metrics.queue_depth.dec();
            return Err(shutting_down());
        }
        done.recv_timeout(Duration::from_secs(60))
            .map_err(|_| format!("timed out waiting for the resolver to {action}"))
    }

    /// Blocks until the published snapshot satisfies `epoch ≥ min_epoch`
    /// and `records ≥ min_records`, or the barrier timeout elapses.
    /// Returns `true` when satisfied. Plain reads never enter here.
    pub fn wait_until(&self, min_epoch: u64, min_records: u64) -> bool {
        let unreached =
            |s: &mut Arc<ResolvedSnapshot>| s.epoch < min_epoch || (s.records as u64) < min_records;
        let (mut snapshot, _) = self
            .published
            .changed
            .wait_timeout_while(
                lock_unpoisoned(&self.published.snapshot),
                self.config.barrier_timeout,
                unreached,
            )
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        !unreached(&mut snapshot)
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Closing the channel lets the resolver drain what's buffered
        // and exit; joining bounds test teardown.
        lock_unpoisoned(&self.intake).sender.take();
        if let Some(handle) = self.drainer.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Span machinery the resolver thread carries: the recorder, the
/// per-segment engine-attribution collector (riding the resolver's
/// sink), and a clone of that sink to emit `"span"` events through.
struct SpanContext {
    spans: Arc<Spans>,
    collector: Option<Arc<SpanCollector>>,
    sink: TraceSink,
}

/// The resolver thread's state: the engine it owns and everything a
/// pass resolves and publishes through.
struct Drainer {
    resolver: OnlineAdaLsh,
    rule: MatchRule,
    snapshot_path: Option<PathBuf>,
    published: Arc<Published>,
    metrics: PipelineMetrics,
    resolve_k: usize,
    max_batch: usize,
    span_ctx: SpanContext,
}

impl Drainer {
    /// Pops commands in order, coalesces consecutive ingest batches up
    /// to `max_batch` records, applies + resolves + publishes, and
    /// executes snapshot commands at epoch boundaries. Returns when the
    /// intake channel closes, after draining it.
    fn run(mut self, receiver: &Receiver<Command>) {
        // A snapshot or re-resolve command popped while coalescing
        // cannot join that pass; it carries over to the next one.
        let mut carried: Option<Command> = None;

        loop {
            let command = match carried.take() {
                Some(c) => c,
                None => match receiver.recv() {
                    Ok(c) => {
                        self.metrics.queue_depth.dec();
                        c
                    }
                    Err(_) => return, // channel closed and drained: shutdown
                },
            };

            match command {
                Command::Snapshot { reply } => {
                    let result = match &self.snapshot_path {
                        None => Err(
                            "snapshotting is disabled: start the server with --snapshot-out <path>"
                                .to_string(),
                        ),
                        Some(path) => {
                            let snapshot =
                                ServeSnapshot::capture(&self.resolver, self.rule.clone());
                            let records = snapshot.resolver.records.len();
                            snapshot.save(path).map(|()| SnapshotDone {
                                epoch: self.published.load().epoch,
                                records,
                            })
                        }
                    };
                    let _ = reply.send(result);
                }
                Command::Reresolve { reply } => {
                    let pass_start = Instant::now();
                    let snapshot = self.resolve(self.published.load().epoch);
                    self.discard_segment();
                    self.publish(Arc::clone(&snapshot), pass_start);
                    let _ = reply.send(snapshot);
                }
                Command::Ingest {
                    records,
                    epoch,
                    enqueued_micros,
                } => {
                    carried = self.ingest(receiver, records, epoch, enqueued_micros);
                }
            }
        }
    }

    /// One ingest pass: coalesce, apply, resolve, publish — wrapped in
    /// the `ingest_batch` span tree when tracing. Returns a command
    /// popped while coalescing that belongs to the next pass.
    fn ingest(
        &mut self,
        receiver: &Receiver<Command>,
        records: Vec<Record>,
        epoch: u64,
        enqueued_micros: u64,
    ) -> Option<Command> {
        let pass_start = Instant::now();
        let spans = Arc::clone(&self.span_ctx.spans);
        let sink = self.span_ctx.sink.clone();
        let tracing = spans.enabled();
        // The root span starts at the first batch's *enqueue* stamp, so
        // its duration is the full ingest-to-visible latency; queue wait
        // is the [enqueue, pop] prefix.
        let pop_stamp = if tracing { spans.now_micros() } else { 0 };
        let root = spans.begin_at("ingest_batch", 0, enqueued_micros);
        if tracing {
            let wait = spans.begin_at("queue_wait", root.id, enqueued_micros);
            spans.finish_at(wait, pop_stamp, &[], &sink);
            self.metrics
                .queue_age
                .set(pop_stamp.saturating_sub(enqueued_micros) as f64 / 1e6);
        }

        let mut batch = records;
        let mut last_epoch = epoch;
        let mut applied_batches = 1u64;
        let mut carried = None;
        // Coalesce whatever else is already queued, preserving order,
        // until the pass is full or a snapshot / re-resolve command (an
        // epoch boundary) shows up. Coalesced batches fold into this
        // pass's root span (their own enqueue stamps are later than the
        // root's, so the window still contains their wait).
        while batch.len() < self.max_batch {
            let Ok(next) = receiver.try_recv() else {
                break;
            };
            self.metrics.queue_depth.dec();
            match next {
                Command::Ingest { records, epoch, .. } => {
                    batch.extend(records);
                    last_epoch = epoch;
                    applied_batches += 1;
                }
                other => {
                    carried = Some(other);
                    break;
                }
            }
        }
        if tracing {
            let coalesce = spans.begin_at("coalesce", root.id, pop_stamp);
            spans.finish(coalesce, &[("batches", Value::U64(applied_batches))], &sink);
        }

        let batch_len = batch.len();
        let resolve_span = spans.begin("resolve", root.id);
        let proc_before = if tracing { ProcSample::capture() } else { None };
        self.resolver
            .extend(batch)
            .expect("batch pre-validated at intake");
        let snapshot = self.resolve(last_epoch);
        if tracing {
            // Engine-derived children, reconciled bit-for-bit with the
            // hash_round/pairwise events of their segment.
            if let Some(collector) = &self.span_ctx.collector {
                collector.emit_segment_spans(&spans, resolve_span, &sink);
            }
            let mut fields: Vec<(&'static str, Value<'static>)> =
                vec![("records", Value::U64(batch_len as u64))];
            if let (Some(before), Some(after)) = (proc_before, ProcSample::capture()) {
                self.metrics
                    .resolve_minor_faults
                    .add(after.minor_faults.saturating_sub(before.minor_faults));
                self.metrics
                    .resolve_major_faults
                    .add(after.major_faults.saturating_sub(before.major_faults));
                fields.extend(before.delta_fields(&after));
            }
            spans.finish(resolve_span, &fields, &sink);
        }

        self.metrics.batch_records.observe(batch_len as f64);
        self.metrics.applied_batches.add(applied_batches);
        let publish_span = spans.begin("publish", root.id);
        self.publish(snapshot, pass_start);

        if tracing {
            spans.finish(publish_span, &[("epoch", Value::U64(last_epoch))], &sink);
            let total = spans.finish_at(
                root,
                spans.now_micros(),
                &[
                    ("records", Value::U64(batch_len as u64)),
                    ("batches", Value::U64(applied_batches)),
                    ("epoch", Value::U64(last_epoch)),
                ],
                &sink,
            );
            self.metrics.ingest_to_visible.observe(total as f64 / 1e6);
        }
        carried
    }

    /// The resolve step every pass shares: one `query` at `resolve_k`,
    /// its work folded into the eval counters, wrapped as the immutable
    /// snapshot of `epoch`.
    fn resolve(&mut self, epoch: u64) -> Arc<ResolvedSnapshot> {
        let output = self.resolver.query(self.resolve_k);
        self.metrics.hash_evals.add(output.stats.hash_evals);
        self.metrics
            .pairwise_evals
            .add(output.stats.pair_comparisons);
        Arc::new(ResolvedSnapshot {
            epoch,
            records: self.resolver.len(),
            resolve_k: self.resolve_k,
            clusters: output.clusters,
            stats: output.stats,
            oracle: output.oracle,
            resolve_wall: output.wall,
        })
    }

    /// The publish step every pass shares. The epoch gauge and pass
    /// latency are recorded first, so whoever sees the snapshot also
    /// sees them; then the snapshot is swapped in and barrier waiters
    /// are woken. The replaced snapshot is freed after the lock is
    /// released.
    fn publish(&self, snapshot: Arc<ResolvedSnapshot>, pass_start: Instant) {
        self.metrics.published_epoch.set(snapshot.epoch);
        self.metrics
            .publish_seconds
            .observe(pass_start.elapsed().as_secs_f64());
        let replaced = std::mem::replace(&mut *lock_unpoisoned(&self.published.snapshot), snapshot);
        self.published.changed.notify_all();
        drop(replaced);
    }

    /// Drops the engine-attribution segment of a pass that belongs to
    /// no ingest batch (boot, re-resolve), so the next batch's spans
    /// don't adopt stale attribution.
    fn discard_segment(&self) {
        if let Some(collector) = &self.span_ctx.collector {
            let _ = collector.take_last_segment();
        }
    }
}

/// Locks a mutex, recovering from poisoning: the pipeline must stay
/// alive even if a request worker panicked mid-call.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use adalsh_core::AdaLshConfig;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, FieldValue, ShingleSet};

    fn shingle_record(items: &[u64]) -> Record {
        Record::single(FieldValue::Shingles(ShingleSet::new(items.to_vec())))
    }

    fn test_pipeline(config: PipelineConfig) -> (Pipeline, Metrics) {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let pipeline = Pipeline::start(
            resolver,
            rule,
            None,
            config,
            metrics.pipeline(),
            Arc::new(Spans::new(64, 0)),
        );
        (pipeline, metrics)
    }

    /// Parks the resolver thread at its next `run_start` event once
    /// armed, until released — a deterministic stand-in for a long
    /// resolve pass.
    #[derive(Default)]
    struct RunGate {
        state: Mutex<GateState>,
        changed: Condvar,
    }

    #[derive(Default, PartialEq)]
    enum GateState {
        #[default]
        Open,
        Armed,
        Parked,
        Released,
    }

    impl RunGate {
        fn set(&self, state: GateState) {
            *lock_unpoisoned(&self.state) = state;
            self.changed.notify_all();
        }

        fn wait_parked(&self) {
            let state = lock_unpoisoned(&self.state);
            let (state, _) = self
                .changed
                .wait_timeout_while(state, Duration::from_secs(10), |s| *s != GateState::Parked)
                .unwrap();
            assert!(
                *state == GateState::Parked,
                "resolver never reached run_start"
            );
        }
    }

    impl adalsh_obs::trace::Subscriber for RunGate {
        fn event(&self, event: &adalsh_obs::trace::Event<'_>) {
            if event.name != "run_start" {
                return;
            }
            let mut state = lock_unpoisoned(&self.state);
            if *state != GateState::Armed {
                return;
            }
            *state = GateState::Parked;
            self.changed.notify_all();
            while *state == GateState::Parked {
                state = self.changed.wait(state).unwrap();
            }
        }
    }

    #[test]
    fn boot_publishes_epoch_zero_synchronously() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let snapshot = pipeline.current();
        assert_eq!(snapshot.epoch, 0);
        assert_eq!(snapshot.records, 8);
        assert!(!snapshot.clusters.is_empty());
        assert!(snapshot.stats.hash_evals > 0, "cold boot resolves");
    }

    #[test]
    fn submit_assigns_ids_and_epochs_in_order() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let a = pipeline
            .submit(vec![shingle_record(&[1, 2, 3]), shingle_record(&[4, 5, 6])])
            .unwrap();
        assert_eq!(a.ids, vec![8, 9]);
        assert_eq!(a.visible_epoch, 1);
        let b = pipeline.submit(vec![shingle_record(&[7, 8, 9])]).unwrap();
        assert_eq!(b.ids, vec![10]);
        assert_eq!(b.visible_epoch, 2);
        assert!(
            pipeline.wait_until(b.visible_epoch, 0),
            "barrier reaches epoch 2"
        );
        let snapshot = pipeline.current();
        assert_eq!(snapshot.records, 11);
        assert!(snapshot.epoch >= 2);
    }

    /// One applied ingest batch leaves a full span tree in the ring:
    /// an `ingest_batch` root with `queue_wait` / `coalesce` /
    /// `resolve` / `publish` children, and engine-derived
    /// `hash_rounds` / `pairwise` grandchildren under `resolve`.
    #[test]
    fn ingest_pass_records_a_span_tree() {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let spans = Arc::new(Spans::new(64, 0));
        let pipeline = Pipeline::start(
            resolver,
            rule,
            None,
            PipelineConfig::default(),
            metrics.pipeline(),
            Arc::clone(&spans),
        );

        let accepted = pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        assert!(pipeline.wait_until(accepted.visible_epoch, 0));
        // The root span finishes just after the barrier wakes; poll
        // briefly instead of racing it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let recent = loop {
            let recent = spans.recent();
            if recent.iter().any(|s| s.op == "ingest_batch") {
                break recent;
            }
            assert!(Instant::now() < deadline, "root span never completed");
            std::thread::sleep(Duration::from_millis(5));
        };

        let root = recent.iter().find(|s| s.op == "ingest_batch").unwrap();
        assert_eq!(root.parent, 0);
        let mut child_sum = 0;
        for op in ["queue_wait", "coalesce", "resolve", "publish"] {
            let child = recent
                .iter()
                .find(|s| s.op == op)
                .unwrap_or_else(|| panic!("missing child {op}"));
            assert_eq!(child.parent, root.id, "{op} hangs off the root");
            assert!(
                child.start_micros >= root.start_micros
                    && child.start_micros + child.duration_micros
                        <= root.start_micros + root.duration_micros,
                "{op} window escapes the root"
            );
            child_sum += child.duration_micros;
        }
        assert!(child_sum <= root.duration_micros, "children outsum root");

        let resolve = recent.iter().find(|s| s.op == "resolve").unwrap();
        for op in ["hash_rounds", "pairwise"] {
            let child = recent
                .iter()
                .find(|s| s.op == op)
                .unwrap_or_else(|| panic!("missing engine child {op}"));
            assert_eq!(child.parent, resolve.id, "{op} hangs off resolve");
            // The boot segment was discarded, so the first batch links
            // to segment 2 of the trace stream.
            assert!(
                child
                    .fields
                    .iter()
                    .any(|(n, v)| *n == "segment"
                        && matches!(v, adalsh_obs::trace::OwnedValue::U64(2))),
                "{op} links to segment 2: {:?}",
                child.fields
            );
        }

        // The span-backed metric families saw the pass.
        let text = metrics.render();
        assert!(
            text.contains("adalsh_ingest_to_visible_seconds_count 1"),
            "{text}"
        );
    }

    #[test]
    fn submit_rejects_an_empty_batch() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        match pipeline.submit(Vec::new()) {
            Err(SubmitError::Invalid(message)) => {
                assert!(message.contains("at least one record"), "{message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let ok = pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        assert_eq!(ok.ids, vec![8]);
        assert_eq!(ok.visible_epoch, 1, "empty batch burned no epoch");
        assert!(pipeline.wait_until(1, 0));
        assert_eq!(pipeline.current().records, 9);
    }

    /// A snapshot (or re-resolve) round trip blocked on a full queue
    /// must not hold the intake mutex: a concurrent `submit` still gets
    /// its immediate `Overloaded` instead of waiting on the resolver.
    #[test]
    fn blocked_round_trip_leaves_submit_overloaded() {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let dataset = Dataset::new(schema, records, vec![0; 8]);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let mut resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let gate = Arc::new(RunGate::default());
        resolver.set_trace(TraceSink::new(gate.clone()));
        let metrics = Metrics::new();
        let pipeline = Pipeline::start(
            resolver,
            rule,
            None,
            PipelineConfig {
                queue_cap: 2,
                ..PipelineConfig::default()
            },
            metrics.pipeline(),
            Arc::new(Spans::disabled()),
        );

        // Park the resolver inside the first batch's pass, then fill
        // the queue behind it.
        gate.set(GateState::Armed);
        pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        gate.wait_parked();
        pipeline.submit(vec![shingle_record(&[4, 5, 6])]).unwrap();
        pipeline.submit(vec![shingle_record(&[7, 8, 9])]).unwrap();

        let pipeline = &pipeline;
        std::thread::scope(|scope| {
            let snapshotter = scope.spawn(|| pipeline.snapshot());
            // The round trip counts its command before the blocking send.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !metrics.render().contains("adalsh_ingest_queue_depth 3") {
                assert!(Instant::now() < deadline, "snapshot command never queued");
                std::thread::sleep(Duration::from_millis(1));
            }
            let (sent, outcome) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let _ = sent.send(pipeline.submit(vec![shingle_record(&[10, 11])]));
            });
            let outcome = outcome.recv_timeout(Duration::from_secs(10));
            gate.set(GateState::Released);
            assert!(
                matches!(outcome, Ok(Err(SubmitError::Overloaded { .. }))),
                "submit must be shed at once while a round trip waits for room: {outcome:?}"
            );
            let err = snapshotter.join().unwrap().unwrap_err();
            assert!(err.contains("disabled"), "{err}");
        });
        assert!(pipeline.wait_until(3, 11));
    }

    /// Readers polling `current()` while the resolver publishes pass
    /// after pass never see the epoch or record count go backwards.
    #[test]
    fn concurrent_readers_see_monotone_epochs() {
        const PASSES: u64 = 100;
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let done = std::sync::atomic::AtomicBool::new(false);
        let (reads, all_visible) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut epoch, mut records, mut reads) = (0, 0, 0u64);
                        while !done.load(std::sync::atomic::Ordering::SeqCst) {
                            let snapshot = pipeline.current();
                            assert!(
                                snapshot.epoch >= epoch && snapshot.records >= records,
                                "went backwards: epoch {} < {epoch} or records {} < {records}",
                                snapshot.epoch,
                                snapshot.records
                            );
                            (epoch, records) = (snapshot.epoch, snapshot.records);
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();
            let all_visible = (0..PASSES).all(|i| {
                pipeline
                    .submit(vec![shingle_record(&[i, i + 1])])
                    .is_ok_and(|accepted| pipeline.wait_until(accepted.visible_epoch, 0))
            });
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            let reads: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            (reads, all_visible)
        });
        assert!(all_visible, "every batch became visible");
        assert!(reads.iter().all(|&n| n > 0), "{reads:?}");
        let last = pipeline.current();
        assert_eq!((last.epoch, last.records), (PASSES, 8 + PASSES as usize));
    }

    /// A replaced snapshot is freed by the publish step that replaces
    /// it: nothing keeps old epochs alive.
    #[test]
    fn replaced_snapshot_is_freed() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let boot = Arc::downgrade(&pipeline.current());
        assert!(boot.upgrade().is_some(), "the boot snapshot is published");
        // The reply is sent after the publish step returns.
        let republished = pipeline.reresolve().unwrap();
        assert_eq!(republished.epoch, 0);
        assert!(boot.upgrade().is_none(), "replaced snapshot still alive");
        assert!(Arc::ptr_eq(&republished, &pipeline.current()));
    }

    #[test]
    fn invalid_batch_reserves_nothing() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let bad = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1])),
            FieldValue::Shingles(ShingleSet::new(vec![2])),
        ]);
        match pipeline.submit(vec![shingle_record(&[1, 2]), bad]) {
            Err(SubmitError::Invalid(message)) => {
                assert!(message.contains("record 1"), "{message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let ok = pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        assert_eq!(ok.ids, vec![8], "rejected batch burned no ids");
        assert_eq!(ok.visible_epoch, 1, "rejected batch burned no epoch");
    }

    #[test]
    fn wait_until_times_out_on_unreached_epoch() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig {
            barrier_timeout: Duration::from_millis(50),
            ..PipelineConfig::default()
        });
        let start = Instant::now();
        assert!(!pipeline.wait_until(999, 0));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn snapshot_without_path_reports_disabled() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let err = pipeline.snapshot().unwrap_err();
        assert!(err.contains("disabled"), "{err}");
    }

    #[test]
    fn snapshot_lands_at_an_epoch_boundary() {
        let dir = std::env::temp_dir().join(format!("adalsh-pipeline-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let pipeline = Pipeline::start(
            resolver,
            rule,
            Some(path.clone()),
            PipelineConfig::default(),
            metrics.pipeline(),
            Arc::new(Spans::disabled()),
        );

        pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        let done = pipeline.snapshot().unwrap();
        assert_eq!(done.records, 9, "snapshot sees the batch queued before it");
        assert_eq!(done.epoch, 1);
        let loaded = ServeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.resolver.records.len(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
