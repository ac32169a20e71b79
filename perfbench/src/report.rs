//! The result of one benchmark run: checked operations, end-to-end and
//! per-layer metrics, provenance, and the final JSON line.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How the value was obtained (sample counts, repetitions).
    note: String,
    /// Part of the result object. An unbounded metric is only printed:
    /// its run-to-run spread on the reference machine exceeds the
    /// largest regression bound the benchmark may set.
    bounded: bool,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    meta: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one checked operation; a failed one is remembered by
    /// `what` for the error log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            note,
            bounded: true,
        });
    }

    /// Records an end-to-end metric that is printed but left out of the
    /// result object.
    pub fn e2e_unbounded(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: String,
    ) {
        let note = format!("{note}; printed only, too noisy to bound");
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            note,
            bounded: false,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            note: String::new(),
            bounded: true,
        });
    }

    /// Records one provenance entry (already JSON-encoded).
    pub fn meta(&mut self, key: &'static str, json_value: String) {
        self.meta.push((key, json_value));
    }

    /// Prints the human-readable report, the provenance line, and — as
    /// the last line — the result object with the end-to-end metrics
    /// (`trace == false`) or the per-layer metrics (`trace == true`).
    pub fn print(&self, trace: bool) {
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_frac = {error_frac} (failed {} of {} checked operations)",
            self.failed, self.attempted
        );
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in metrics {
            println!(
                "{:<34} {:>16} {:<6} {}",
                m.name,
                format!("{}", m.value),
                m.unit,
                m.note
            );
        }
        let mut meta = String::from("{\"meta\": {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}\"{key}\": {value}");
        }
        meta.push_str("}}");
        println!("{meta}");

        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().filter(|m| m.bounded).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0 so the line stays parseable).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Quote a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide CPU time stolen by the hypervisor, as a share of all
/// CPU time: the first line of `/proc/stat` holds cumulative
/// `user nice system idle iowait irq softirq steal …` ticks.
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        Some((*ticks.get(7)?, ticks.iter().sum()))
    }

    /// Starts measuring.
    pub fn start() -> Self {
        Self(Self::read())
    }

    /// Stolen share of CPU time since [`StealClock::start`] (0 where
    /// procfs is unavailable).
    pub fn steal_frac(&self) -> f64 {
        match (self.0, Self::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}
