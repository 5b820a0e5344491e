//! What one run found: checks, end-to-end metrics, behaviour counts,
//! and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// Quantile by nearest rank of an unsorted sample (`q` in `(0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Bytes of the files directly in `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Process high-water resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host a result was measured on, printed with every result so that
/// results from different hosts are never compared.
pub fn host_line(seed: u64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: available_parallelism={parallelism} cpu=\"{cpu}\" profile={profile} seed={seed}")
}

/// One reported figure: name, value, unit and how many samples it
/// summarises.
pub struct Figure {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The outcome of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    warnings: Vec<String>,
    /// Figures printed for people, under the names the workload's
    /// documentation uses.
    figures: Vec<Figure>,
    /// Behaviour counts: these repeat exactly for a seed.
    counts: Vec<(String, f64)>,
    /// The metrics of the JSON result line: name, value, unit.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            warnings: Vec::new(),
            figures: Vec::new(),
            counts: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts one operation or check; a failure is kept with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn warn(&mut self, what: String) {
        self.warnings.push(what);
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.figures.push(Figure {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn take_metrics(&mut self) -> Vec<(String, f64, &'static str)> {
        std::mem::take(&mut self.metrics)
    }

    /// True when something was checked, every check passed and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One result for several workloads, metrics named
    /// `<workload>.<metric>`.
    pub fn combine(outcomes: Vec<Outcome>) -> Outcome {
        let mut all = Outcome::new("all");
        for o in outcomes {
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.failures.extend(o.failures);
            for (name, value, unit) in o.metrics {
                all.metrics
                    .push((format!("{}.{name}", o.workload), value, unit));
            }
        }
        all
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.workload);
        for f in &self.figures {
            let _ = writeln!(
                s,
                "  {:<28} {:>14.4} {:<6} n={}",
                f.name, f.value, f.unit, f.samples
            );
        }
        if !self.counts.is_empty() {
            let counts: Vec<String> = self
                .counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(s, "  counts: {}", counts.join(" "));
        }
        let _ = writeln!(
            s,
            "  checks: attempted={} failed={} failed_share={:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        for w in &self.warnings {
            let _ = writeln!(s, "  WARNING: {w}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
