//! Shared experiment harness for regenerating every table and figure of
//! the paper's evaluation (Section 5). Each `src/bin/*` binary reproduces
//! one artifact; this library holds the common pieces:
//!
//! * [`table`] — aligned console tables and CSV emission (one CSV per
//!   experiment under `results/`);
//! * [`fit`] — the least-squares linear fit the paper used for `Wrep(d)`
//!   ("a linear data fit provided a very accurate model … with a
//!   correlation coefficient of 0.97");
//! * [`scenarios`] — the paper's platforms and workloads as named setups;
//! * [`curves`] — load-curve sweeps (throughput vs. number of clients)
//!   run in parallel across client counts with `adept_core::par_claim`;
//! * [`gate`] — the CI perf-regression gate comparing a `BENCH_JSON`
//!   smoke run against the committed `BENCH_planner.baseline.json`.
//!
//! Binaries honor two environment variables: `BENCH_FAST=1` shrinks client
//! sweeps and measurement windows (CI-friendly), and `RESULTS_DIR`
//! overrides the CSV output directory.

#![forbid(unsafe_code)]
#![warn(clippy::all)]

// audit: allow-file(unwrap, "bench harness: fail fast on impossible states; output
// feeds tables, not servers")
pub mod curves;
pub mod fit;
pub mod gate;
pub mod scenarios;
pub mod table;

pub use curves::{client_schedule, load_curve, CurvePoint};
pub use fit::{fit_linear, LinearFit};
pub use table::Table;

/// True when `BENCH_FAST=1`: smaller sweeps, shorter windows.
pub fn fast_mode() -> bool {
    std::env::var("BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Directory experiment CSVs are written to (`RESULTS_DIR` or
/// `<workspace>/results`).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&dir).expect("results directory is writable");
    dir
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_is_created() {
        let dir = super::results_dir();
        assert!(dir.exists());
    }
}
