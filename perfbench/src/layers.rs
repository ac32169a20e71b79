//! Per-layer measurements: engine layers folded from the trace events a
//! `MemorySubscriber` collected, the `lsh` kernels timed directly, and
//! the `store` layer timed through its public builder and view.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use adalsh_core::Stats;
use adalsh_data::{FieldRef, RecordStore};
use adalsh_datagen::popimages::{self, PopImagesConfig};
use adalsh_datagen::{ScaleConfig, ScaleGenerator};
use adalsh_lsh::{HyperplaneFamily, MinHashFamily};
use adalsh_obs::{schema, OwnedEvent};
use adalsh_store::{write_store, StoreView};

use crate::report::Report;

/// Engine work summed over every run segment of a trace.
#[derive(Debug, Default)]
pub struct EngineTrace {
    h1_micros: u64,
    deep_micros: u64,
    hash_evals: u64,
    bucket_inserts: u64,
    transitive_calls: u64,
    /// Records hashed by `H_2` and deeper (Σ `cluster_size`).
    deep_records: u64,
    pairwise_micros: u64,
    pairs: u64,
    distance_evals: u64,
    rounds: u64,
    gate_pairwise: u64,
    modeled_cost: f64,
    run_micros: u64,
}

impl EngineTrace {
    /// Folds the `hash_round`, `pairwise`, `gate`, `final_cluster` and
    /// `run_end` events of `events`.
    pub fn fold(events: &[OwnedEvent]) -> Self {
        let mut t = Self::default();
        for e in events {
            let u = |name: &str| e.u64(name).unwrap_or(0);
            match e.name.as_str() {
                "hash_round" => {
                    if u("level") <= 1 {
                        t.h1_micros += u("wall_micros");
                    } else {
                        t.deep_micros += u("wall_micros");
                        t.deep_records += u("cluster_size");
                    }
                    t.hash_evals += u("hash_evals");
                    t.bucket_inserts += u("keys_emitted");
                    t.transitive_calls += 1;
                }
                "pairwise" => {
                    t.pairwise_micros += u("wall_micros");
                    t.pairs += u("pairs");
                    t.distance_evals += u("distance_evals");
                }
                "gate" => {
                    t.rounds += 1;
                    t.gate_pairwise += u64::from(e.str("action") == Some("pairwise"));
                }
                "final_cluster" => t.rounds += 1,
                "run_end" => {
                    t.modeled_cost += e.f64("modeled_cost").unwrap_or(0.0);
                    t.run_micros += u("wall_micros");
                }
                _ => {}
            }
        }
        t
    }

    /// Checks that the trace's counts equal the untraced run's `Stats`
    /// exactly.
    pub fn reconcile(&self, stats: &Stats, report: &mut Report) {
        let pairs = [
            ("hashing.evals", self.hash_evals, stats.hash_evals),
            (
                "pairwise.pair_comparisons",
                self.pairs,
                stats.pair_comparisons,
            ),
            (
                "transitive.bucket_inserts",
                self.bucket_inserts,
                stats.bucket_inserts,
            ),
            ("algorithm.rounds", self.rounds, stats.rounds),
        ];
        for (name, traced, untraced) in pairs {
            report.check(traced == untraced, || {
                format!("trace reconciliation: {name} = {traced} traced, {untraced} in Stats")
            });
        }
    }

    /// Records the `sequence`, `hashing`, `transitive`, `pairwise` and
    /// `algorithm` layer metrics.
    pub fn push(&self, report: &mut Report, design_s: f64, levels: usize, output_records: usize) {
        let secs = |micros: u64| micros as f64 / 1e6;
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let hashing_micros = self.h1_micros + self.deep_micros;
        report.layer("sequence.design_s", "s", design_s);
        report.layer("sequence.levels", "count", levels as f64);
        report.layer("hashing.h1_s", "s", secs(self.h1_micros));
        report.layer("hashing.deep_s", "s", secs(self.deep_micros));
        report.layer("hashing.evals", "count", self.hash_evals as f64);
        report.layer(
            "hashing.ns_per_eval",
            "ns",
            per(hashing_micros as f64 * 1e3, self.hash_evals),
        );
        report.layer(
            "hashing.deep_useful_frac",
            "ratio",
            per(output_records as f64, self.deep_records),
        );
        report.layer(
            "transitive.bucket_inserts",
            "count",
            self.bucket_inserts as f64,
        );
        report.layer("transitive.calls", "count", self.transitive_calls as f64);
        report.layer("pairwise.s", "s", secs(self.pairwise_micros));
        report.layer("pairwise.pair_comparisons", "count", self.pairs as f64);
        report.layer(
            "pairwise.distance_evals",
            "count",
            self.distance_evals as f64,
        );
        report.layer(
            "pairwise.ns_per_pair",
            "ns",
            per(self.pairwise_micros as f64 * 1e3, self.pairs),
        );
        report.layer("algorithm.rounds", "count", self.rounds as f64);
        report.layer(
            "algorithm.gate_pairwise",
            "count",
            self.gate_pairwise as f64,
        );
        report.layer("algorithm.modeled_cost", "units", self.modeled_cost);
        let self_micros = self
            .run_micros
            .saturating_sub(hashing_micros + self.pairwise_micros);
        report.layer("algorithm.self_s", "s", secs(self_micros));
        let ns_per_cost_unit = if self.modeled_cost > 0.0 {
            self.run_micros as f64 * 1e3 / self.modeled_cost
        } else {
            0.0
        };
        report.layer("algorithm.ns_per_cost_unit", "ns", ns_per_cost_unit);
    }
}

/// Checks `events` against the trace taxonomy and its reconciliation
/// identities (`adalsh_obs::schema::validate`).
pub fn check_schema(what: &str, events: &[OwnedEvent], report: &mut Report) {
    let error = schema::validate(events).err();
    report.check(error.is_none(), || {
        format!(
            "{what} trace fails schema validation: {}",
            error.clone().unwrap_or_default()
        )
    });
}

/// Shortest time one kernel measurement covers.
const KERNEL_MIN_S: f64 = 0.2;

/// Nanoseconds per MinHash evaluation: the batched kernel evaluating
/// `width` functions on each set, cycling over `sets`.
fn minhash_ns_per_eval(sets: &[&[u64]], width: usize, seed: u64) -> f64 {
    let family = MinHashFamily::new(seed);
    let keys: Vec<u64> = (0..width).map(|i| family.key_for(i)).collect();
    let mut out = vec![0u64; width];
    time_per_eval(sets.len(), width, |i| {
        MinHashFamily::hash_batch_keys(&keys, sets[i], &mut out);
        black_box(&out);
    })
}

/// Nanoseconds per random-hyperplane evaluation: the batched kernel
/// evaluating `width` consecutive functions on each vector.
fn hyperplane_ns_per_eval(vectors: &[&[f64]], width: usize, seed: u64) -> f64 {
    let Some(dim) = vectors.first().map(|v| v.len()) else {
        return 0.0;
    };
    let mut family = HyperplaneFamily::new(dim, seed);
    family.ensure_functions(width);
    let indices: Vec<usize> = (0..width).collect();
    let mut out = vec![0u64; width];
    time_per_eval(vectors.len(), width, |i| {
        family.hash_batch(&indices, vectors[i], &mut out);
        black_box(&out);
    })
}

/// Calls `eval(i)` over `0..inputs` in passes until [`KERNEL_MIN_S`]
/// has elapsed; returns nanoseconds per elementary evaluation.
fn time_per_eval(inputs: usize, width: usize, mut eval: impl FnMut(usize)) -> f64 {
    if inputs == 0 || width == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut evals = 0u64;
    while start.elapsed().as_secs_f64() < KERNEL_MIN_S {
        for i in 0..inputs {
            eval(i);
        }
        evals += (inputs * width) as u64;
    }
    start.elapsed().as_secs_f64() * 1e9 / evals as f64
}

/// Records to time a kernel on when the workload has none of its input
/// kind.
const FALLBACK_RECORDS: usize = 4_000;

/// Scale-generator shingle sets: the MinHash kernel's input on a
/// workload without shingle fields.
fn fallback_sets(seed: u64) -> Vec<Vec<u64>> {
    ScaleGenerator::new(ScaleConfig {
        records: FALLBACK_RECORDS,
        seed,
        ..ScaleConfig::default()
    })
    .map(|(record, _)| record.field(0).as_ref().as_shingles().to_vec())
    .collect()
}

/// PopularImages-like histograms: the hyperplane kernel's input on a
/// workload without dense fields.
fn fallback_vectors(seed: u64) -> Vec<Vec<f64>> {
    let dataset = popimages::generate(&PopImagesConfig {
        num_records: FALLBACK_RECORDS,
        seed,
        ..PopImagesConfig::default()
    });
    dataset
        .records()
        .iter()
        .map(|r| r.field(0).as_ref().as_dense().to_vec())
        .collect()
}

/// Records both `lsh` kernel metrics. Each kernel runs on the
/// workload's own records when they have that field kind, else on the
/// fallback input, at the workload's designed level-1 budget.
pub fn push_kernels(report: &mut Report, store: &dyn RecordStore, width: usize, seed: u64) {
    let sample = store.len().min(20_000) as u32;
    let mut sets: Vec<&[u64]> = Vec::new();
    let mut vectors: Vec<&[f64]> = Vec::new();
    for id in 0..sample {
        match store.field(id, 0) {
            FieldRef::Shingles(s) => sets.push(s),
            FieldRef::Dense(v) => vectors.push(v),
        }
    }
    let owned_sets;
    if sets.is_empty() {
        owned_sets = fallback_sets(seed);
        sets = owned_sets.iter().map(Vec::as_slice).collect();
    }
    let owned_vectors;
    if vectors.is_empty() {
        owned_vectors = fallback_vectors(seed);
        vectors = owned_vectors.iter().map(Vec::as_slice).collect();
    }
    report.layer(
        "lsh.minhash_ns_per_eval",
        "ns",
        minhash_ns_per_eval(&sets, width, seed),
    );
    report.layer(
        "lsh.hyperplane_ns_per_eval",
        "ns",
        hyperplane_ns_per_eval(&vectors, width, seed),
    );
}

/// Nanoseconds per record of one `RecordStore::field` pass over every
/// record.
pub fn scan_ns_per_record(store: &dyn RecordStore) -> f64 {
    let start = Instant::now();
    let mut total = 0usize;
    for id in 0..store.len() as u32 {
        for f in 0..store.schema().num_fields() {
            total += store.field(id, f).payload_len();
        }
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e9 / store.len().max(1) as f64
}

/// The `store` layer as one measurement: build, open, size, scan.
pub struct StoreLayer {
    pub build_s: f64,
    pub open_s: f64,
    pub file_bytes: u64,
    pub scan_ns_per_record: f64,
}

impl StoreLayer {
    /// Writes `store`'s records to a store file at `path`, opens it and
    /// scans it; the file is removed afterwards.
    pub fn measure_copy(store: &dyn RecordStore, path: &Path) -> Result<Self, String> {
        let start = Instant::now();
        write_store(path, store).map_err(|e| format!("write store: {e}"))?;
        let build_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let view = StoreView::open(path).map_err(|e| format!("open store: {e}"))?;
        let open_s = start.elapsed().as_secs_f64();
        let layer = Self {
            build_s,
            open_s,
            file_bytes: view.file_len() as u64,
            scan_ns_per_record: scan_ns_per_record(&view),
        };
        drop(view);
        let _ = std::fs::remove_file(path);
        Ok(layer)
    }

    /// Records the `store` layer metrics.
    pub fn push(&self, report: &mut Report) {
        report.layer("store.build_s", "s", self.build_s);
        report.layer("store.open_s", "s", self.open_s);
        report.layer("store.file_bytes", "bytes", self.file_bytes as f64);
        report.layer("store.scan_ns_per_record", "ns", self.scan_ns_per_record);
    }
}
