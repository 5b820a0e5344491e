//! CI perf-regression gate over `BENCH_JSON` exports.
//!
//! The `bench-smoke` CI job runs `planner_scaling` with a short
//! per-benchmark budget and exports `(id, mean ns, samples)` records;
//! this module compares that run against the committed
//! `BENCH_planner.baseline.json` and fails the job on:
//!
//! * **ratio regressions** — a benchmark whose mean exceeds its baseline
//!   by more than [`NOISE_RATIO`]×. The ratio is deliberately generous:
//!   CI runners differ from the machine that recorded the baseline, and
//!   the smoke run is a trend tracker, not a rigorous estimator — the
//!   gate exists to catch order-of-magnitude hot-loop regressions, not
//!   5% drift. Records on either side with fewer than [`MIN_SAMPLES`]
//!   samples (the budget-truncated slow benchmarks) get the widened
//!   [`LOW_SAMPLE_RATIO`] bar instead;
//! * **missing benchmarks** — a baseline id absent from the current run
//!   (deleting a regressing bench must come with a baseline update);
//! * **absolute ceilings** — [`CEILINGS`] pins coarse upper bounds on
//!   latency-budget ids (the ROADMAP's `online_replan` budget at
//!   n = 10⁴), so regressions fail even if the baseline itself was
//!   recorded after the regression;
//! * **pair rules** — [`FASTER_THAN`] asserts one id stays cheaper than
//!   another *by a margin* within the *same* run
//!   (hardware-independent). This encodes the batched-mix acceptance
//!   bar (a 4-service mix plan at n = 400 must cost less than two
//!   independent single-service plans), the warm-replan acceptance
//!   bar (a warm steady-state `Controller::tick` must stay ≥ 5× under
//!   the cold one at both gated sizes) and the revision path's scale
//!   bar (a revision round on the 10⁵-node catalog must stay under 3×
//!   the same round on the 10⁴-node one);
//! * **quality floors** — [`QUALITY_FLOORS`] holds non-timing metric
//!   records (quality ratios the benches export via `report_metric`) at
//!   or above a floor. The `mix_vs_sweep` entries pin `MixPlanner` to
//!   ≥ 90% of the mix-aware sweep reference's objective, the paper's
//!   Table-4 "Heur. Perf." bar extended to service mixes.
//!
//! The records are parsed with a purpose-built scanner (the offline
//! build environment has no serde); the format is the vendored
//! criterion's one-object-per-line array.

// audit: allow-file(unwrap, "bench harness: fail fast on impossible states; output
// feeds tables, not servers")
use std::fmt;

/// Maximum tolerated current/baseline mean ratio before a benchmark
/// counts as regressed.
pub const NOISE_RATIO: f64 = 2.5;

/// Minimum sample count below which a record's mean is treated as
/// low-confidence. The smoke run's per-benchmark wall-clock budget
/// truncates slow benchmarks (the n = 1600 sweeps, the 10⁵–10⁶
/// `planner_scaling` points) to a handful of samples, so their means
/// carry more noise than the 10-sample records.
pub const MIN_SAMPLES: usize = 5;

/// The widened ratio applied when either side of a comparison has fewer
/// than [`MIN_SAMPLES`] samples: a 2–3 sample mean can swing 2× on a
/// shared CI runner without any code change, so the regression bar
/// doubles rather than paging on scheduler noise. Complexity regressions
/// on these ids are still caught by [`CEILINGS`].
pub const LOW_SAMPLE_RATIO: f64 = 5.0;

/// Coarse absolute ceilings (id, max mean ns). Each budget leaves ~20×
/// headroom over its locally recorded mean so slow CI hardware passes
/// while a complexity regression (e.g. an O(n) probe sneaking back into
/// the O(log n) loop, an O(n) scan per control tick, or the mix sweep's
/// composition pruning decaying into the unpruned walk) still fails.
pub const CEILINGS: &[(&str, f64)] = &[
    ("online_replan/10000", 25_000_000.0),
    ("online_replan/100000", 300_000_000.0),
    ("control_loop/100000", 1_800_000_000.0),
    // A served steady-state tick is one wire round trip + a journal
    // append over the ~56ns direct call; 1ms of budget catches a Nagle
    // regression (the delayed-ACK failure mode is ~40ms) outright.
    ("serve_tick/daemon/10000", 1_000_000.0),
    ("mix_vs_sweep/sweep-ref-2svc-2site/36", 15_000_000.0),
    ("mix_vs_sweep/sweep-ref-4svc-1site/48", 700_000_000.0),
    // The large-scale acceptance bars (ROADMAP "scale to 10⁵–10⁶"):
    // the heuristic must plan 10⁵ slots in ≤ 50 ms and 10⁶ in ≤ 2 s,
    // and the coarsen-then-refine multi-site sweep must stay within the
    // same 2 s envelope at 10⁵ (it runs ~150 ms locally; the flat sweep
    // it replaces took ~158 s, so the ceiling fails CI long before the
    // coarsening could silently stop engaging).
    ("planner_scaling/heuristic/100000", 50_000_000.0),
    ("planner_scaling/heuristic/1000000", 2_000_000_000.0),
    ("planner_scaling/sweep-multisite/100000", 2_000_000_000.0),
    // The accelerated mix composition walk (composition + agent-count
    // grid, warm incumbents, dominance pruning) must keep the 4-service
    // reference computable at production scale: ≤ 2 s at n = 10⁴
    // (measured ~230 ms locally, so the ceiling fails CI long before
    // the grid or the warm seeding could silently stop engaging).
    ("mix_sweep_scaling/accel-4svc/10000", 2_000_000_000.0),
    // A warm steady-state replan round is a memoized no-change answer:
    // O(services) plus the tick's forecaster/trigger bookkeeping,
    // measured 0.7–1.2 µs at n = 10⁵ (2-vCPU host). 100 µs of budget is
    // ~100× headroom for slow CI hardware while still failing the moment
    // anything O(n) sneaks back into the warm path (the cold round it
    // replaces, an O(plan) engine build and revision, is 4–8 µs there).
    ("warm_replan/warm/100000", 100_000.0),
];

/// Same-run ordering rules `(fast, slow, margin)`: the first id's mean
/// × `margin` must stay strictly below the second's. `margin` = 1.0 is
/// plain ordering; the `warm_replan` entries carry the warm start's
/// acceptance bar — warm steady-state replan rounds ≥ 5× faster than
/// cold. Since a cold round reads its spare nodes lazily instead of
/// sorting the catalog, cold costs 4–9 µs and warm 0.7–1.2 µs at both
/// sizes (2-vCPU host, three runs): 5.8–7.5× at 10⁴ and 5.6–6.5× at
/// 10⁵, so the bar has little slack left.
///
/// A margin below 1 bounds growth instead: `(big, small, 1/3)` keeps
/// the `big` id's mean under 3× the `small` one's. The revision path
/// (`online_replan`, `control_loop`, `warm_replan/cold`) reads its
/// spare nodes lazily, so a round on the 10⁵-node catalog costs about
/// what it costs on the 10⁴-node one: 0.94–1.71×, 0.73–1.55× and
/// 0.98–1.60× over six runs on a 2-vCPU host. A round that sorts the
/// whole catalog, as the reviser and GoDiet once did, read 12.1–12.4×,
/// 11.5–12.2× and 12.0–12.4× there (two runs).
/// Both sides of each ratio come from the same run, so the rule holds on
/// any host; the committed baseline's means, far above today's, would
/// let such a round pass the ratio check.
pub const FASTER_THAN: &[(&str, &str, f64)] = &[
    (
        "mix_scaling/mix-planner-4svc/400",
        "mix_scaling/independent-2svc/400",
        1.0,
    ),
    ("warm_replan/warm/10000", "warm_replan/cold/10000", 5.0),
    ("warm_replan/warm/100000", "warm_replan/cold/100000", 5.0),
    // The mix-sweep accelerators' bar: the accelerated walk ≥ 5× under
    // the exact layer-1-only walk at the old feasibility cap (measured
    // well above 10× locally).
    (
        "mix_sweep_scaling/accel-2svc/400",
        "mix_sweep_scaling/exact-2svc/400",
        5.0,
    ),
    ("online_replan/100000", "online_replan/10000", 1.0 / 3.0),
    ("control_loop/100000", "control_loop/10000", 1.0 / 3.0),
    (
        "warm_replan/cold/100000",
        "warm_replan/cold/10000",
        1.0 / 3.0,
    ),
];

/// Quality floors (id, min value): non-timing metric records (exported
/// by the benches through `report_metric`, carried in the `mean_ns`
/// field) that must stay **at or above** a floor, hardware-independent.
/// This encodes the mix planner's Table-4-style acceptance bar:
/// `MixPlanner` must reach ≥ 95% of the mix-aware sweep reference's
/// objective on the gated scenarios (measured 99.2% and 100.0%; the
/// floor started at 0.90 and was tightened once both scenarios held
/// comfortably above it).
///
/// The 2-site *weighted-sum* scenario remeasured by `mix_sweep_scaling`
/// is deliberately **not** gated: at n = 400 the heuristic reaches only
/// ~53% of the accelerated sweep reference (the sweep now explores
/// asymmetric splits the greedy heuristic cannot), well under the 0.90
/// bar for gating. The honest number lives in ROADMAP.md.
pub const QUALITY_FLOORS: &[(&str, f64)] = &[
    ("mix_vs_sweep/quality/2svc-2site", 0.95),
    ("mix_vs_sweep/quality/4svc-1site", 0.95),
    // The cross-tenant plan-cache scenario (four identical
    // registrations against one daemon) must answer at least half its
    // lookups from the shared cache — the deterministic yield is 0.75
    // (one canonical cold miss, three exact hits), so a drop below 0.5
    // means keying or lookup broke, not that the scenario got unlucky.
    ("warm_replan/cache-hit-rate/cross-tenant", 0.5),
];

/// One parsed benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark id, `group/function[/param]`.
    pub id: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Samples behind the mean. Records under [`MIN_SAMPLES`] get the
    /// widened [`LOW_SAMPLE_RATIO`] regression bar. Quality metrics
    /// always carry `1` (they are exact, not sampled) but are exempt
    /// from the ratio rule entirely.
    pub samples: usize,
}

/// A reason the gate fails.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Mean exceeded baseline by more than the applicable ratio
    /// ([`NOISE_RATIO`], or [`LOW_SAMPLE_RATIO`] for low-sample records).
    Regression {
        /// Benchmark id.
        id: String,
        /// Baseline mean (ns).
        baseline_ns: f64,
        /// Current mean (ns).
        current_ns: f64,
        /// The ratio bar that was applied (and exceeded).
        tolerance: f64,
    },
    /// A baseline id is absent from the current run.
    Missing {
        /// Benchmark id.
        id: String,
    },
    /// An absolute latency ceiling was exceeded (or its id is missing).
    CeilingExceeded {
        /// Benchmark id.
        id: String,
        /// Ceiling (ns).
        ceiling_ns: f64,
        /// Current mean (ns), `None` when the id did not run.
        current_ns: Option<f64>,
    },
    /// A same-run ordering rule failed (or an id is missing).
    PairViolated {
        /// Id required to be faster.
        fast: String,
        /// Id required to be slower.
        slow: String,
        /// Required speedup factor (1.0 = plain ordering).
        margin: f64,
        /// Means (ns) when both ran.
        means: Option<(f64, f64)>,
    },
    /// A quality metric fell below its floor (or its id is missing).
    QualityBelowFloor {
        /// Metric id.
        id: String,
        /// Required minimum value.
        floor: f64,
        /// Current value, `None` when the metric was not exported.
        value: Option<f64>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Regression {
                id,
                baseline_ns,
                current_ns,
                tolerance,
            } => write!(
                f,
                "REGRESSION {id}: {current_ns:.0} ns vs baseline {baseline_ns:.0} ns ({:.2}x > {tolerance}x)",
                current_ns / baseline_ns
            ),
            Violation::Missing { id } => write!(
                f,
                "MISSING {id}: present in the baseline but not in this run \
                 (update BENCH_planner.baseline.json if it was removed on purpose)"
            ),
            Violation::CeilingExceeded {
                id,
                ceiling_ns,
                current_ns: Some(ns),
            } => write!(
                f,
                "CEILING {id}: {ns:.0} ns exceeds the {ceiling_ns:.0} ns latency budget"
            ),
            Violation::CeilingExceeded {
                id,
                ceiling_ns,
                current_ns: None,
            } => write!(f, "CEILING {id}: did not run (budget {ceiling_ns:.0} ns)"),
            Violation::PairViolated {
                fast,
                slow,
                margin,
                means: Some((a, b)),
            } => {
                if *margin == 1.0 {
                    write!(f, "PAIR {fast} ({a:.0} ns) must stay below {slow} ({b:.0} ns)")
                } else if *margin < 1.0 {
                    write!(
                        f,
                        "PAIR {fast} ({a:.0} ns) must stay under {}x {slow} ({b:.0} ns)",
                        1.0 / margin
                    )
                } else {
                    write!(
                        f,
                        "PAIR {fast} ({a:.0} ns) must stay {margin}x below {slow} ({b:.0} ns)"
                    )
                }
            }
            Violation::PairViolated {
                fast,
                slow,
                means: None,
                ..
            } => {
                write!(f, "PAIR {fast} < {slow}: one of the ids did not run")
            }
            Violation::QualityBelowFloor {
                id,
                floor,
                value: Some(v),
            } => write!(f, "QUALITY {id}: {v:.4} below the {floor} floor"),
            Violation::QualityBelowFloor {
                id,
                floor,
                value: None,
            } => write!(f, "QUALITY {id}: metric missing (floor {floor})"),
        }
    }
}

/// Parses a `BENCH_JSON` export: a JSON array of
/// `{"id": "...", "mean_ns": <num>, "samples": <int>}` objects.
///
/// # Errors
/// A description of the first malformed record.
pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.contains("\"id\"") {
            continue;
        }
        let field = |key: &str| -> Result<&str, String> {
            let pat = format!("\"{key}\":");
            let at = line
                .find(&pat)
                .ok_or_else(|| format!("line {}: no {key} field: {line}", lineno + 1))?;
            Ok(line[at + pat.len()..].trim_start())
        };
        let id_rest = field("id")?;
        let id_rest = id_rest
            .strip_prefix('"')
            .ok_or_else(|| format!("line {}: id is not a string", lineno + 1))?;
        let id_end = id_rest
            .find('"')
            .ok_or_else(|| format!("line {}: unterminated id", lineno + 1))?;
        let id = id_rest[..id_end].to_string();
        let mean_rest = field("mean_ns")?;
        let mean_end = mean_rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(mean_rest.len());
        let mean_ns: f64 = mean_rest[..mean_end]
            .parse()
            .map_err(|e| format!("line {}: bad mean_ns: {e}", lineno + 1))?;
        // Older exports (pre-sample-guard baselines) may lack the field;
        // default to a confident count so they keep the strict ratio.
        let samples = match field("samples") {
            Err(_) => 10,
            Ok(rest) => {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end]
                    .parse()
                    .map_err(|e| format!("line {}: bad samples: {e}", lineno + 1))?
            }
        };
        records.push(BenchRecord {
            id,
            mean_ns,
            samples,
        });
    }
    if records.is_empty() {
        return Err("no benchmark records found".into());
    }
    Ok(records)
}

fn mean_of(records: &[BenchRecord], id: &str) -> Option<f64> {
    records.iter().find(|r| r.id == id).map(|r| r.mean_ns)
}

fn record_of<'a>(records: &'a [BenchRecord], id: &str) -> Option<&'a BenchRecord> {
    records.iter().find(|r| r.id == id)
}

/// Applies every rule; returns all violations (empty = gate passes).
pub fn check(current: &[BenchRecord], baseline: &[BenchRecord]) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Quality metrics have their own floor rule (which also reports a
    // missing metric); running them through the timing regression ratio
    // would diagnose a quality shift as a nonsensical slowdown.
    let is_quality = |id: &str| QUALITY_FLOORS.iter().any(|&(q, _)| q == id);
    for base in baseline.iter().filter(|b| !is_quality(&b.id)) {
        match record_of(current, &base.id) {
            None => violations.push(Violation::Missing {
                id: base.id.clone(),
            }),
            Some(cur) => {
                // Either side being under-sampled makes the *ratio*
                // noisy, so the wider bar applies when either is.
                let tolerance = if base.samples < MIN_SAMPLES || cur.samples < MIN_SAMPLES {
                    LOW_SAMPLE_RATIO
                } else {
                    NOISE_RATIO
                };
                if cur.mean_ns > base.mean_ns * tolerance {
                    violations.push(Violation::Regression {
                        id: base.id.clone(),
                        baseline_ns: base.mean_ns,
                        current_ns: cur.mean_ns,
                        tolerance,
                    });
                }
            }
        }
    }
    for &(id, ceiling_ns) in CEILINGS {
        match mean_of(current, id) {
            Some(ns) if ns <= ceiling_ns => {}
            other => violations.push(Violation::CeilingExceeded {
                id: id.to_string(),
                ceiling_ns,
                current_ns: other,
            }),
        }
    }
    for &(fast, slow, margin) in FASTER_THAN {
        match (mean_of(current, fast), mean_of(current, slow)) {
            (Some(a), Some(b)) if a * margin < b => {}
            (Some(a), Some(b)) => violations.push(Violation::PairViolated {
                fast: fast.to_string(),
                slow: slow.to_string(),
                margin,
                means: Some((a, b)),
            }),
            _ => violations.push(Violation::PairViolated {
                fast: fast.to_string(),
                slow: slow.to_string(),
                margin,
                means: None,
            }),
        }
    }
    for &(id, floor) in QUALITY_FLOORS {
        match mean_of(current, id) {
            Some(v) if v >= floor => {}
            other => violations.push(Violation::QualityBelowFloor {
                id: id.to_string(),
                floor,
                value: other,
            }),
        }
    }
    violations
}

/// Renders the per-id comparison table (sorted by ratio, worst first).
pub fn comparison_table(current: &[BenchRecord], baseline: &[BenchRecord]) -> String {
    let mut rows: Vec<(f64, String)> = baseline
        .iter()
        .filter_map(|b| {
            mean_of(current, &b.id).map(|cur| {
                let ratio = cur / b.mean_ns;
                (
                    ratio,
                    format!(
                        "{:<48} {:>14.0} {:>14.0} {:>7.2}x",
                        b.id, b.mean_ns, cur, ratio
                    ),
                )
            })
        })
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("ratios are finite"));
    let mut out = format!(
        "{:<48} {:>14} {:>14} {:>8}\n",
        "benchmark", "baseline ns", "current ns", "ratio"
    );
    for (_, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, mean: f64) -> BenchRecord {
        BenchRecord {
            id: id.into(),
            mean_ns: mean,
            samples: 10,
        }
    }

    fn passing_current() -> Vec<BenchRecord> {
        vec![
            rec("planner_heuristic/400", 500_000.0),
            rec("online_replan/10000", 50_000.0),
            rec("online_replan/100000", 80_000.0),
            rec("control_loop/10000", 100_000.0),
            rec("control_loop/100000", 115_000.0),
            rec("planner_scaling/heuristic/100000", 16_000_000.0),
            rec("planner_scaling/heuristic/1000000", 450_000_000.0),
            rec("planner_scaling/sweep-multisite/100000", 160_000_000.0),
            rec("mix_scaling/mix-planner-4svc/400", 450_000.0),
            rec("mix_scaling/independent-2svc/400", 1_000_000.0),
            rec("mix_vs_sweep/sweep-ref-2svc-2site/36", 500_000.0),
            rec("mix_vs_sweep/sweep-ref-4svc-1site/48", 30_000_000.0),
            rec("mix_vs_sweep/quality/2svc-2site", 0.99),
            rec("mix_vs_sweep/quality/4svc-1site", 1.0),
            rec("mix_sweep_scaling/accel-2svc/400", 33_000_000.0),
            rec("mix_sweep_scaling/accel-4svc/10000", 230_000_000.0),
            rec("mix_sweep_scaling/exact-2svc/400", 455_000_000.0),
            rec("serve_tick/direct/10000", 60.0),
            rec("serve_tick/daemon/10000", 15_000.0),
            rec("warm_replan/cold/10000", 6_000.0),
            rec("warm_replan/warm/10000", 900.0),
            rec("warm_replan/cold/100000", 6_000.0),
            rec("warm_replan/warm/100000", 1_000.0),
            rec("warm_replan/cache-hit-rate/cross-tenant", 0.75),
        ]
    }

    #[test]
    fn parses_the_vendored_criterion_format() {
        let text = r#"[
  {"id": "planner_heuristic/25", "mean_ns": 13259.8, "samples": 10},
  {"id": "online_replan/10000", "mean_ns": 1239321.75, "samples": 10}
]"#;
        let records = parse_records(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "planner_heuristic/25");
        assert!((records[1].mean_ns - 1_239_321.75).abs() < 1e-6);
        assert_eq!(records[0].samples, 10);
    }

    #[test]
    fn missing_samples_field_defaults_to_confident() {
        let text = r#"[{"id": "planner_heuristic/25", "mean_ns": 13259.8}]"#;
        let records = parse_records(text).unwrap();
        assert_eq!(records[0].samples, 10);
    }

    #[test]
    fn empty_or_garbage_is_an_error() {
        assert!(parse_records("[]").is_err());
        assert!(parse_records("{\"id\": 42}").is_err());
    }

    #[test]
    fn clean_run_passes() {
        let current = passing_current();
        let baseline = current.clone();
        assert!(check(&current, &baseline).is_empty());
    }

    #[test]
    fn noise_below_the_ratio_passes_and_regression_fails() {
        let mut current = passing_current();
        let baseline = current.clone();
        current[0].mean_ns *= 2.0; // within 2.5x: noise
        assert!(check(&current, &baseline).is_empty());
        current[0].mean_ns = baseline[0].mean_ns * 3.0; // beyond: regression
        let violations = check(&current, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { id, tolerance, .. }
                if id == "planner_heuristic/400" && *tolerance == NOISE_RATIO
        ));
        assert!(violations[0].to_string().contains("REGRESSION"));
    }

    #[test]
    fn low_sample_records_get_the_widened_bar() {
        let mut current = passing_current();
        let mut baseline = current.clone();
        // A 3x swing on a 3-sample record is noise, not a regression...
        baseline[0].samples = 3;
        current[0].mean_ns = baseline[0].mean_ns * 3.0;
        assert!(check(&current, &baseline).is_empty());
        // ...the widened bar still fires eventually...
        current[0].mean_ns = baseline[0].mean_ns * (LOW_SAMPLE_RATIO + 0.5);
        let violations = check(&current, &baseline);
        assert!(matches!(
            &violations[0],
            Violation::Regression { tolerance, .. } if *tolerance == LOW_SAMPLE_RATIO
        ));
        // ...and an under-sampled *current* side widens the bar too.
        let mut current = passing_current();
        let baseline = passing_current();
        current[0].samples = 2;
        current[0].mean_ns = baseline[0].mean_ns * 3.0;
        assert!(check(&current, &baseline).is_empty());
    }

    #[test]
    fn deleted_benchmark_fails() {
        let current = passing_current();
        let mut baseline = current.clone();
        baseline.push(rec("planner_sweep/400", 1.0e6));
        let violations = check(&current, &baseline);
        assert_eq!(
            violations,
            vec![Violation::Missing {
                id: "planner_sweep/400".into()
            }]
        );
    }

    #[test]
    fn replan_latency_ceiling_is_enforced() {
        let mut current = passing_current();
        let baseline = current.clone();
        current[1].mean_ns = 26_000_000.0; // above the 25 ms budget
        let violations = check(&current, &baseline);
        // The ceiling fires; the ratio rule fires too (26 ms >> baseline).
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::CeilingExceeded { .. })));
        // Removing the bench entirely also trips the ceiling.
        let current: Vec<BenchRecord> = passing_current()
            .into_iter()
            .filter(|r| r.id != "online_replan/10000")
            .collect();
        let violations = check(&current, &current.clone());
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::CeilingExceeded {
                current_ns: None,
                ..
            }
        )));
    }

    #[test]
    fn mix_must_stay_cheaper_than_independent_plans() {
        let mut current = passing_current();
        let baseline = current.clone();
        current
            .iter_mut()
            .find(|r| r.id == "mix_scaling/mix-planner-4svc/400")
            .unwrap()
            .mean_ns = 1_100_000.0; // mix slower than the pair
        let violations = check(&current, &baseline);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::PairViolated { means: Some(_), .. })));
    }

    #[test]
    fn warm_replan_must_beat_cold_by_the_margin() {
        // 3× faster passes plain ordering but fails the 5× margin.
        let mut current = passing_current();
        let baseline = current.clone();
        current
            .iter_mut()
            .find(|r| r.id == "warm_replan/warm/100000")
            .unwrap()
            .mean_ns = 6_000.0 / 3.0;
        let violations = check(&current, &baseline);
        let pair = violations
            .iter()
            .find(|v| {
                matches!(
                    v,
                    Violation::PairViolated { fast, margin, .. }
                        if fast == "warm_replan/warm/100000" && *margin == 5.0
                )
            })
            .expect("the margined pair fires");
        assert!(pair.to_string().contains("5x below"), "{pair}");
        // The ceiling on the warm id fires independently of the pair.
        let mut current = passing_current();
        current
            .iter_mut()
            .find(|r| r.id == "warm_replan/warm/100000")
            .unwrap()
            .mean_ns = 150_000.0;
        let violations = check(&current, &baseline);
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::CeilingExceeded { id, .. } if id == "warm_replan/warm/100000"
        )));
    }

    #[test]
    fn revision_rounds_must_not_scale_with_the_catalog() {
        let baseline = passing_current();
        for small in [
            "online_replan/10000",
            "control_loop/10000",
            "warm_replan/cold/10000",
        ] {
            let big = small.replace("/10000", "/100000");
            let mean = |current: &[BenchRecord], id: &str| mean_of(current, id).unwrap();
            let fired = |current: &[BenchRecord]| {
                check(current, &baseline)
                    .into_iter()
                    .find(|v| matches!(v, Violation::PairViolated { fast, .. } if *fast == big))
            };
            // Just under 3× passes; a catalog-sized sort per round (the
            // ~12× the reviser read when it sorted the catalog) fails.
            let mut current = passing_current();
            let base = mean(&current, small);
            current.iter_mut().find(|r| r.id == big).unwrap().mean_ns = 2.9 * base;
            assert!(fired(&current).is_none(), "{big} at 2.9x");
            current.iter_mut().find(|r| r.id == big).unwrap().mean_ns = 12.0 * base;
            let pair = fired(&current).expect("the scale rule fires");
            assert_eq!(
                pair.to_string(),
                format!(
                    "PAIR {big} ({:.0} ns) must stay under 3x {small} ({base:.0} ns)",
                    12.0 * base
                )
            );
        }
    }

    #[test]
    fn cache_hit_rate_floor_is_enforced() {
        let mut current = passing_current();
        let baseline = current.clone();
        current
            .iter_mut()
            .find(|r| r.id == "warm_replan/cache-hit-rate/cross-tenant")
            .unwrap()
            .mean_ns = 0.25;
        let violations = check(&current, &baseline);
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::QualityBelowFloor { id, value: Some(v), .. }
                if id == "warm_replan/cache-hit-rate/cross-tenant" && *v == 0.25
        )));
    }

    #[test]
    fn mix_quality_floor_is_enforced() {
        let mut current = passing_current();
        let baseline = current.clone();
        current
            .iter_mut()
            .find(|r| r.id == "mix_vs_sweep/quality/2svc-2site")
            .unwrap()
            .mean_ns = 0.85; // heuristic dropped below 90% of the reference
        let violations = check(&current, &baseline);
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::QualityBelowFloor {
                value: Some(v),
                ..
            } if *v == 0.85
        )));
        // Quality ids are exempt from the timing rules: a ratio moving
        // more than NOISE_RATIO from its baseline (here 0.99 -> 2.6,
        // a *good* move above the floor) must not be misdiagnosed as a
        // wall-clock regression.
        let mut current = passing_current();
        current
            .iter_mut()
            .find(|r| r.id == "mix_vs_sweep/quality/2svc-2site")
            .unwrap()
            .mean_ns = 2.6;
        assert!(check(&current, &baseline).is_empty());
        assert!(violations.iter().any(|v| v.to_string().contains("QUALITY")));
        // A quality metric vanishing from the run also fails.
        let current: Vec<BenchRecord> = passing_current()
            .into_iter()
            .filter(|r| r.id != "mix_vs_sweep/quality/4svc-1site")
            .collect();
        let violations = check(&current, &current.clone());
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::QualityBelowFloor { value: None, .. })));
    }

    #[test]
    fn table_sorts_worst_ratio_first() {
        // Ids chosen to not appear in the header row.
        let baseline = vec![rec("mild_drift", 100.0), rec("big_jump", 100.0)];
        let current = vec![rec("mild_drift", 120.0), rec("big_jump", 240.0)];
        let table = comparison_table(&current, &baseline);
        let worst_at = table.find("big_jump").unwrap();
        let mild_at = table.find("mild_drift").unwrap();
        assert!(worst_at < mild_at, "worst ratio first:\n{table}");
    }
}
