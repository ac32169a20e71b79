//! The adaLSH benchmark: one command per workload that generates its
//! inputs from a seed, runs them through the public API, checks the
//! outputs, and prints end-to-end metrics (`--trace 0`) or per-layer
//! metrics (`--trace 1`). See `README.md` in this directory.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale_1m --seed 1 --seconds 30 --trace 0
//! ```

mod batch;
mod layers;
mod load;
mod report;
mod serve;

use std::path::{Path, PathBuf};

use adalsh_core::FilterOutput;

use crate::report::json_str;

/// Answer depth of every workload.
pub const K: usize = 10;
/// Client threads (and at most as many open connections) of the load.
pub const CLIENTS: usize = 2;
/// A run whose open-loop generator was later than this at p99 is
/// invalid: its latencies would measure the generator, not the system.
/// One stall of the machine makes every operation due during it late,
/// so the limit sits well above the tens of milliseconds a single
/// hypervisor pause costs.
pub const MAX_GEN_LAG_S: f64 = 0.5;

const WORKLOADS: [&str; 3] = ["scale_1m", "images_dense", "serve_mixed"];

/// Checked command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let steal = report::StealClock::start();
    let result = match args.workload.as_str() {
        "scale_1m" => batch::run(batch::Kind::Scale1m, &args, &work_dir),
        "images_dense" => batch::run(batch::Kind::ImagesDense, &args, &work_dir),
        _ => serve::run(&args, &work_dir),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(mut report) => {
            report.meta("cpu_steal_frac", format!("{:.4}", steal.steal_frac()));
            report.meta("workload", json_str(&args.workload));
            report.meta("seed", args.seed.to_string());
            report.meta("run_seconds", args.seconds.to_string());
            report.meta("git_rev", json_str(&git_rev()));
            report.meta(
                "source_digest",
                json_str(&format!("{:016x}", source_digest())),
            );
            report.meta(
                "nproc",
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .to_string(),
            );
            report.print(args.trace);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// FNV-1a over the clusters and every `Stats` counter (the modeled
/// cost bit for bit): equal digests mean the same answer from the same
/// work.
pub fn output_digest(output: &FilterOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cluster in &output.clusters {
        eat(cluster.len() as u64);
        cluster.iter().for_each(|&id| eat(u64::from(id)));
    }
    let s = &output.stats;
    for x in [
        s.hash_evals,
        s.distance_evals,
        s.pair_comparisons,
        s.bucket_inserts,
        s.transitive_calls,
        s.pairwise_calls,
        s.rounds,
        s.modeled_cost.to_bits(),
    ] {
        eat(x);
    }
    h
}

/// A value's `Debug` form, lower-cased, as a JSON string.
pub fn json_debug(value: &impl std::fmt::Debug) -> String {
    json_str(&format!("{value:?}").to_lowercase())
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of every Rust source under
/// `crates/`, in path order: identifies the measured code where the
/// checkout is not a git work tree.
fn source_digest() -> u64 {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
