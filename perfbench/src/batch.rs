//! The batch workloads. `scale_1m` streams 1,000,000 scale-generator
//! records into a store file and filters the mmap view; `images_dense`
//! filters 40,000 PopularImages-like histograms held in RAM.
//!
//! A run repeats *set up, then filter* until its time is nearly spent,
//! then reads pages of the answer's clusters back from the backing
//! store: open loop first, then closed loop with two clients. A read
//! goes through `RecordStore::field`, which lends the payload without
//! copying it; a page read that allocated per record measured the
//! allocator's state more than the store.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adalsh_core::metrics::set_metrics;
use adalsh_core::{AdaLsh, AdaLshConfig, FilterOutput, TraceSink};
use adalsh_data::{Dataset, FieldRef, MatchRule, RecordStore};
use adalsh_datagen::popimages::{self, PopImagesConfig};
use adalsh_datagen::{scale_match_rule, ScaleConfig, ScaleGenerator};
use adalsh_obs::MemorySubscriber;
use adalsh_store::{StoreBuilder, StoreView};

use crate::layers::{self, EngineTrace, StoreLayer};
use crate::load::{closed_loop, open_loop};
use crate::report::{median, peak_rss_mib, quantile, Report};
use crate::{output_digest, Args, CLIENTS, K, MAX_GEN_LAG_S};

/// Which batch workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Scale1m,
    ImagesDense,
}

const SCALE_RECORDS: usize = 1_000_000;
const IMAGES_RECORDS: usize = 40_000;
const IMAGES_ENTITIES: usize = 400;
const IMAGES_DIM: usize = 64;
const IMAGES_THRESHOLD_DEG: f64 = 3.0;

/// Lowest `f1_gold` accepted. The scale tier's entities are exact
/// under its rule, so anything short of 1.0 is a lost record. The
/// images floor sits below every value the engine produced on seeds
/// 0–13 (lowest: 0.99954): heavy-transform records that fall outside
/// the 3° rule cap it below 1.
const SCALE_F1_FLOOR: f64 = 1.0;
const IMAGES_F1_FLOOR: f64 = 0.999;

/// Fewest set-up + filter repetitions in a run.
const MIN_REPS: usize = 3;
/// Open-loop read rate and duration, closed-loop duration.
const READ_HZ: f64 = 1000.0;
const READ_OPEN_S: f64 = 2.0;
const READ_CLOSED_S: f64 = 1.0;
/// Records one read covers: a page of one answer cluster.
const READ_PAGE: usize = 256;
/// Time kept free for the traced filter, kernels and store copy.
const TRACE_RESERVE_S: f64 = 2.0;

/// Wrapping sum of a field's payload words.
fn payload_sum(field: FieldRef<'_>) -> u64 {
    match field {
        FieldRef::Shingles(s) => s.iter().fold(0u64, |a, &x| a.wrapping_add(x)),
        FieldRef::Dense(v) => v.iter().fold(0u64, |a, &x| a.wrapping_add(x.to_bits())),
    }
}

/// A workload's records, on the backing the filter reads.
enum Backing {
    Store(StoreView),
    Ram(Dataset),
}

impl Backing {
    fn store(&self) -> &dyn RecordStore {
        match self {
            Backing::Store(view) => view,
            Backing::Ram(dataset) => dataset,
        }
    }
}

/// Timings of one set-up.
struct Setup {
    /// Generate + build + open (the `setup_s` sample).
    total_s: f64,
    /// Streaming the records into the store file (scale tier only).
    build_s: f64,
    /// Opening the mapped view (scale tier only).
    open_s: f64,
}

/// One filter call.
struct Filtered {
    design_s: f64,
    filter_s: f64,
    levels: usize,
    level1_budget: usize,
    output: FilterOutput,
}

fn rule(kind: Kind) -> MatchRule {
    match kind {
        Kind::Scale1m => scale_match_rule(),
        Kind::ImagesDense => popimages::match_rule(IMAGES_THRESHOLD_DEG),
    }
}

fn records(kind: Kind) -> usize {
    match kind {
        Kind::Scale1m => SCALE_RECORDS,
        Kind::ImagesDense => IMAGES_RECORDS,
    }
}

/// Generates the workload's records from `seed` and builds its backing.
fn set_up(kind: Kind, seed: u64, store_path: &Path) -> Result<(Backing, Setup), String> {
    let start = Instant::now();
    match kind {
        Kind::Scale1m => {
            let generator = ScaleGenerator::new(ScaleConfig {
                records: SCALE_RECORDS,
                seed,
                ..ScaleConfig::default()
            });
            let mut builder = StoreBuilder::create(store_path, generator.schema())
                .map_err(|e| format!("create store: {e}"))?;
            for (record, entity) in generator {
                builder
                    .push(&record, entity)
                    .map_err(|e| format!("push record: {e}"))?;
            }
            builder.finish().map_err(|e| format!("finish store: {e}"))?;
            let build_s = start.elapsed().as_secs_f64();
            let opened = Instant::now();
            let view = StoreView::open(store_path).map_err(|e| format!("open store: {e}"))?;
            let open_s = opened.elapsed().as_secs_f64();
            let total_s = start.elapsed().as_secs_f64();
            Ok((
                Backing::Store(view),
                Setup {
                    total_s,
                    build_s,
                    open_s,
                },
            ))
        }
        Kind::ImagesDense => {
            let dataset = popimages::generate(&PopImagesConfig {
                num_entities: IMAGES_ENTITIES,
                num_records: IMAGES_RECORDS,
                dim: IMAGES_DIM,
                seed,
                ..PopImagesConfig::default()
            });
            let total_s = start.elapsed().as_secs_f64();
            Ok((
                Backing::Ram(dataset),
                Setup {
                    total_s,
                    build_s: 0.0,
                    open_s: 0.0,
                },
            ))
        }
    }
}

/// Designs the sequence and runs the top-`K` filter, timing both.
fn filter(store: &dyn RecordStore, rule: &MatchRule, trace: TraceSink) -> Result<Filtered, String> {
    let mut config = AdaLshConfig::new(rule.clone());
    config.trace = trace;
    let start = Instant::now();
    let mut engine = AdaLsh::for_dataset(store, config)?;
    let design_s = start.elapsed().as_secs_f64();
    let output = engine.run(store, K);
    let filter_s = start.elapsed().as_secs_f64();
    let level1_budget = engine.levels().first().map_or(0, |l| l.budget() as usize);
    Ok(Filtered {
        design_s,
        filter_s,
        levels: engine.num_levels(),
        level1_budget,
        output,
    })
}

/// Runs a batch workload.
pub fn run(kind: Kind, args: &Args, work_dir: &Path) -> Result<Report, String> {
    let start = Instant::now();
    let mut report = Report::default();
    let rule = rule(kind);
    let store_path: PathBuf = work_dir.join("records.store");
    let reserve = READ_OPEN_S + READ_CLOSED_S + if args.trace { TRACE_RESERVE_S } else { 0.0 };

    let config = AdaLshConfig::new(rule.clone());
    report.meta("records", records(kind).to_string());
    report.meta("k", K.to_string());
    report.meta("minhash_scheme", crate::json_debug(&config.minhash_scheme));
    report.meta("engine_threads", config.threads.to_string());
    report.meta("read_rate_hz", READ_HZ.to_string());
    report.meta("read_clients", CLIENTS.to_string());

    // Set up and filter until the run's time is nearly spent. Each
    // repetition rebuilds the backing from the seed, so set-up is
    // sampled as often as the filter.
    let mut setups: Vec<Setup> = Vec::new();
    let mut runs: Vec<Filtered> = Vec::new();
    let mut visible: Vec<f64> = Vec::new();
    let mut backing: Option<Backing> = None;
    // Memory peaks after the first repetition: later ones add whatever
    // the allocator kept from their predecessors, so the process peak
    // would grow with the number of repetitions that fit in the run.
    let mut first_rep_rss = 0.0;
    loop {
        // The old mapping must go before its file is rewritten.
        drop(backing.take());
        let began = Instant::now();
        let (fresh, setup) = set_up(kind, args.seed, &store_path)?;
        let filtered = filter(fresh.store(), &rule, TraceSink::disabled())?;
        visible.push(began.elapsed().as_secs_f64());
        if runs.is_empty() {
            first_rep_rss = peak_rss_mib();
        }
        if let Some(first) = runs.first() {
            let same = output_digest(&filtered.output) == output_digest(&first.output);
            let n = runs.len();
            report.check(same, || {
                format!("repetition {n} clusters/Stats differ from the first")
            });
        }
        setups.push(setup);
        runs.push(filtered);
        backing = Some(fresh);
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / runs.len() as f64;
        if runs.len() >= MIN_REPS && elapsed + per_rep + reserve > args.seconds {
            break;
        }
    }
    let backing = backing.expect("at least one repetition ran");
    let store = backing.store();
    let first = &runs[0];

    let gold = store.gold_records(K);
    let f1 = set_metrics(&first.output.records(), &gold).f1;
    let floor = match kind {
        Kind::Scale1m => SCALE_F1_FLOOR,
        Kind::ImagesDense => IMAGES_F1_FLOOR,
    };
    report.check(f1 >= floor, || {
        format!("f1_gold {f1} below the floor {floor}")
    });

    // Reads: pages of the answer's clusters, read zero-copy through
    // `RecordStore::field` and checked against the same records'
    // materialized copies.
    let pages: Vec<&[u32]> = first
        .output
        .clusters
        .iter()
        .map(|c| &c[..c.len().min(READ_PAGE)])
        .collect();
    let page_sum = |page: &[u32], field: &dyn Fn(u32, usize) -> u64| -> u64 {
        page.iter()
            .flat_map(|&id| (0..store.schema().num_fields()).map(move |f| (id, f)))
            .fold(0u64, |acc, (id, f)| acc.wrapping_add(field(id, f)))
    };
    let expected: Vec<u64> = pages
        .iter()
        .map(|p| {
            page_sum(p, &|id, f| {
                payload_sum(store.materialize(id).field(f).as_ref())
            })
        })
        .collect();
    let read = |i: usize| -> bool {
        let page = i % pages.len();
        page_sum(pages[page], &|id, f| payload_sum(store.field(id, f))) == expected[page]
    };
    let read_start = Instant::now() + Duration::from_millis(10);
    let read_end = read_start + Duration::from_secs_f64(READ_OPEN_S);
    // Nothing else runs during the reads, so the generator busy-waits
    // each due time instead of paying the sleep's wake-up delay.
    let interval = Duration::from_secs_f64(1.0 / READ_HZ);
    let reads = open_loop(
        read_start,
        interval,
        interval,
        |_, due| due < read_end,
        read,
    );
    let read_failed = reads.iter().filter(|(_, ok)| !ok).count() as u64;
    report.ops("open-loop reads", reads.len() as u64, read_failed);
    let latencies: Vec<f64> = reads.iter().map(|(t, _)| t.latency_s()).collect();
    let lags: Vec<f64> = reads.iter().map(|(t, _)| t.lag_s()).collect();
    let lag_p99 = quantile(&lags, 0.99);
    if lag_p99 > MAX_GEN_LAG_S {
        return Err(format!(
            "invalid run: the open-loop generator ran {lag_p99:.4} s late at p99 \
             (limit {MAX_GEN_LAG_S} s)"
        ));
    }
    let (closed_ok, closed_failed, read_qps) =
        closed_loop(CLIENTS, Duration::from_secs_f64(READ_CLOSED_S), |c, j| {
            read(c + CLIENTS * j)
        });
    report.ops(
        "closed-loop reads",
        closed_ok + closed_failed,
        closed_failed,
    );

    let filter_times: Vec<f64> = runs.iter().map(|r| r.filter_s).collect();
    let n = runs.len();
    report.e2e(
        "setup_s",
        "s",
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        format!("median of {n} set-ups"),
    );
    report.e2e(
        "filter_s",
        "s",
        median(&filter_times),
        format!("median of {n} repetitions"),
    );
    report.e2e("f1_gold", "ratio", f1, format!("k = {K}"));
    report.e2e(
        "ingest_visible_p50_s",
        "s",
        quantile(&visible, 0.5),
        format!("set-up + filter, {n} repetitions"),
    );
    report.e2e(
        "ingest_visible_p90_s",
        "s",
        quantile(&visible, 0.9),
        format!("set-up + filter, {n} repetitions"),
    );
    report.e2e_unbounded(
        "read_p50_s",
        "s",
        quantile(&latencies, 0.5),
        format!("{} open-loop reads at {READ_HZ}/s", reads.len()),
    );
    report.e2e_unbounded(
        "read_p99_s",
        "s",
        quantile(&latencies, 0.99),
        format!("{} open-loop reads at {READ_HZ}/s", reads.len()),
    );
    report.e2e_unbounded(
        "read_qps",
        "1/s",
        read_qps,
        format!("{CLIENTS} closed-loop clients, median of 100 ms windows over {READ_CLOSED_S} s"),
    );

    if args.trace {
        let memory = Arc::new(MemorySubscriber::new());
        let traced = filter(store, &rule, TraceSink::new(memory.clone()))?;
        report.check(
            output_digest(&traced.output) == output_digest(&first.output),
            || "traced run's clusters/Stats differ from the untraced runs".to_string(),
        );
        let events = memory.events();
        layers::check_schema("filter", &events, &mut report);
        let engine = EngineTrace::fold(&events);
        engine.reconcile(&first.output.stats, &mut report);
        let design_s = median(&runs.iter().map(|r| r.design_s).collect::<Vec<_>>());
        engine.push(
            &mut report,
            design_s,
            first.levels,
            first.output.num_records(),
        );
        layers::push_kernels(&mut report, store, first.level1_budget, args.seed);
        let store_layer = match kind {
            Kind::Scale1m => StoreLayer {
                build_s: median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>()),
                open_s: median(&setups.iter().map(|s| s.open_s).collect::<Vec<_>>()),
                file_bytes: std::fs::metadata(&store_path).map_or(0, |m| m.len()),
                scan_ns_per_record: layers::scan_ns_per_record(store),
            },
            Kind::ImagesDense => StoreLayer::measure_copy(store, &work_dir.join("copy.store"))?,
        };
        store_layer.push(&mut report);
        crate::serve::push_absent_layers(&mut report);
        report.layer("gen.lag_p99_s", "s", lag_p99);
        report.layer(
            "trace.overhead_ratio",
            "ratio",
            traced.filter_s / median(&filter_times),
        );
    }
    report.e2e(
        "peak_rss_mib",
        "MiB",
        first_rep_rss,
        "VmHWM after the first set-up + filter".to_string(),
    );
    drop(backing);
    let _ = std::fs::remove_file(&store_path);
    Ok(report)
}
