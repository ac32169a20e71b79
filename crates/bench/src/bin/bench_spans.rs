//! Span-layer overhead recorder: the ingest pipeline with tracing
//! disabled vs the same pipeline with the full span layer enabled
//! (root `ingest_batch` spans, engine-derived children, `/proc`
//! RSS/page-fault sampling, slow-op checks, ring retention).
//!
//! Both arms drive a bare [`adalsh_serve::Pipeline`] — no HTTP in the
//! way — measuring ingest-to-visible wall per batch (`submit` then
//! `wait_until` the batch's `visible_epoch`). The arms are
//! **interleaved**: each round starts a fresh pipeline per arm and
//! feeds both the same batch series, alternating which arm goes first
//! batch by batch, so machine drift lands on both arms alike. A round's
//! ratio is its enabled wall over its disabled wall; rounds repeat until
//! each arm has run for at least [`SMOKE_ARM_SECS`] (smoke) or
//! [`FULL_ARM_SECS`], and at least [`MIN_ROUNDS`] times. The reported
//! overhead is the median of the per-round ratios, which one slow round
//! cannot move.
//!
//! ```sh
//! cargo run --release -p adalsh-bench --bin bench_spans
//! cargo run --release -p adalsh-bench --bin bench_spans -- --smoke
//! cargo run --release -p adalsh-bench --bin bench_spans -- --smoke --out /tmp/spans.json
//! ```
//!
//! `--smoke` measures for less time on the same workload, skips writing
//! `BENCH_spans.json`, and exits nonzero if the span layer costs more
//! than [`MAX_OVERHEAD_RATIO`] — observability that taxes the hot path
//! double digits is a regression, not a feature. `--out <path>` writes
//! the JSON to `<path>` in either mode, so CI can diff a fresh smoke
//! run against the committed baseline with `adalsh bench diff`.

use std::sync::Arc;
use std::time::Instant;

use adalsh_bench::recorder::provenance_fields;
use adalsh_core::{AdaLshConfig, OnlineAdaLsh};
use adalsh_data::{FieldDistance, FieldValue, MatchRule, Record, ShingleSet};
use adalsh_datagen::spotsigs::{self, SpotSigsConfig};
use adalsh_obs::span::DEFAULT_RING_CAP;
use adalsh_obs::{NoopSubscriber, Spans, TraceSink};
use adalsh_serve::metrics::Metrics;
use adalsh_serve::{Pipeline, PipelineConfig};

/// The span layer may not slow ingest-to-visible by more than this.
const MAX_OVERHEAD_RATIO: f64 = 1.15;

/// Wall each arm accumulates before a smoke run stops.
const SMOKE_ARM_SECS: f64 = 1.0;

/// Wall each arm accumulates before a full run stops.
const FULL_ARM_SECS: f64 = 4.0;

/// Fewest rounds a run takes, however slow they are.
const MIN_ROUNDS: usize = 9;

/// Boot dataset shape and batch series of one round.
const RECORDS: usize = 400;
const ENTITIES: usize = 50;
const BATCHES: usize = 16;
const PER_BATCH: usize = 25;

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.6)
}

fn resolver(records: usize, entities: usize) -> OnlineAdaLsh {
    let dataset = spotsigs::generate(&SpotSigsConfig {
        num_records: records,
        num_entities: entities,
        seed: 42,
        ..SpotSigsConfig::default()
    });
    OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule())).expect("design")
}

/// A fresh shingle record in the spotsigs shape (entity core plus a
/// little noise), so ingested batches join existing clusters.
fn fresh_record(i: usize, entities: usize) -> Record {
    let entity = (i % entities) as u64;
    let mut shingles: Vec<u64> = (0..12).map(|s| entity * 10_000 + s).collect();
    shingles.push(entity * 10_000 + 100 + (i as u64 % 7));
    shingles.push(entity * 10_000 + 200 + (i as u64 % 5));
    Record::single(FieldValue::Shingles(ShingleSet::new(shingles)))
}

/// A fresh pipeline over the boot dataset, with the span layer off or
/// fully on.
fn pipeline(spans_on: bool) -> Pipeline {
    let mut engine = resolver(RECORDS, ENTITIES);
    let spans = if spans_on {
        engine.set_trace(TraceSink::new(Arc::new(NoopSubscriber)));
        Arc::new(Spans::new(DEFAULT_RING_CAP, 0))
    } else {
        Arc::new(Spans::disabled())
    };
    Pipeline::start(
        engine,
        rule(),
        None,
        PipelineConfig::default(),
        Metrics::new().pipeline(),
        spans,
    )
}

/// Ingests one batch and waits until it is visible; returns the
/// ingest-to-visible wall in seconds. Every call pays the full
/// queue_wait / coalesce / resolve / publish path.
fn ingest(pipeline: &Pipeline, batch: Vec<Record>) -> f64 {
    let started = Instant::now();
    let accepted = pipeline.submit(batch).expect("submit batch");
    assert!(
        pipeline.wait_until(accepted.visible_epoch, 0),
        "batch never became visible"
    );
    started.elapsed().as_secs_f64()
}

/// One interleaved round: a fresh pipeline per arm, both fed the same
/// batch series, the arm that goes first alternating batch by batch.
/// Returns the `(disabled, enabled)` summed walls in seconds.
fn round(index: usize) -> (f64, f64) {
    let arms = [pipeline(false), pipeline(true)];
    let mut walls = [0.0f64; 2];
    for b in 0..BATCHES {
        let batch: Vec<Record> = (0..PER_BATCH)
            .map(|r| fresh_record(RECORDS + b * PER_BATCH + r, ENTITIES))
            .collect();
        let first = (index + b) % 2;
        for arm in [first, 1 - first] {
            walls[arm] += ingest(&arms[arm], batch.clone());
        }
    }
    (walls[0], walls[1])
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());

    let arm_secs = if smoke { SMOKE_ARM_SECS } else { FULL_ARM_SECS };

    // Warm both code paths once (page cache, lazy init) before timing.
    let _ = round(0);

    let (mut disabled, mut enabled) = (0.0f64, 0.0f64);
    let mut ratios = Vec::new();
    while ratios.len() < MIN_ROUNDS || disabled.min(enabled) < arm_secs {
        let (d, e) = round(ratios.len());
        disabled += d;
        enabled += e;
        ratios.push(e / d);
    }
    let rounds = ratios.len();
    let (low, high) = ratios
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
    let ratio = median(&mut ratios);
    let per_batch_micros = |wall: f64| wall / (rounds * BATCHES) as f64 * 1e6;

    println!(
        "span overhead ({RECORDS} boot records, {rounds} interleaved rounds of \
         {BATCHES} x {PER_BATCH} ingest):"
    );
    println!(
        "  tracing disabled  {disabled:>9.4}s total   {:>9.1}us/batch",
        per_batch_micros(disabled)
    );
    println!(
        "  spans enabled     {enabled:>9.4}s total   {:>9.1}us/batch",
        per_batch_micros(enabled)
    );
    println!(
        "  overhead ratio    {ratio:>9.3}x median of rounds (range {low:.3}-{high:.3}x; \
         gate: {MAX_OVERHEAD_RATIO}x)"
    );

    let json = format!(
        "{{\n  \"_meta\": {{ \"records\": {RECORDS}, \"entities\": {ENTITIES}, \
         \"batches_per_round\": {BATCHES}, \"per_batch\": {PER_BATCH}, \"rounds\": {rounds}, \
         \"unit\": \"mean ingest-to-visible wall per batch, arms interleaved; ratio is the \
         median of per-round enabled/disabled walls\", {} }},\n  \
         \"disabled\": {{ \"per_batch_micros\": {:.1} }},\n  \
         \"enabled\": {{ \"per_batch_micros\": {:.1} }},\n  \
         \"span_overhead_ratio\": {ratio:.4}\n}}\n",
        provenance_fields(),
        per_batch_micros(disabled),
        per_batch_micros(enabled),
    );
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write --out");
        println!("wrote {path}");
    }

    if smoke {
        if ratio > MAX_OVERHEAD_RATIO {
            eprintln!(
                "FAIL: span layer costs {ratio:.3}x (> {MAX_OVERHEAD_RATIO}x) — \
                 tracing must stay cheap enough to leave on"
            );
            std::process::exit(1);
        }
        println!("smoke mode: baseline not written");
        return;
    }

    let path = "BENCH_spans.json";
    std::fs::write(path, &json).expect("write baseline");
    println!("wrote {path}");
}
