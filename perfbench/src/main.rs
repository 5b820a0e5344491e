//! The repository's benchmark: three seeded workloads driving the
//! `adept-serve` daemon through `ServeClient` and the planning library
//! directly, each answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tenant-day|what-if|pipeline-1e6|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs the workload again with spans around every call into
//! a layer and reports the per-layer metrics. The last line of standard
//! output is the JSON result. The exit code is non-zero when any check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod gen;
mod pipeline;
mod report;
mod tenant_day;
mod trace;
mod what_if;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["tenant-day", "what-if", "pipeline-1e6"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: want a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; want one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload. Scratch files (journals) live under `work` and the
/// traced run's spans are written to `spans_dir`, both inside the
/// checkout.
fn run_one(workload: &str, args: &Args, work: &Path, spans_dir: &Path) -> Outcome {
    if !args.trace {
        return match workload {
            "tenant-day" => tenant_day::run(args.seed, args.seconds, work),
            "what-if" => what_if::run(args.seed, args.seconds, work),
            _ => pipeline::run(args.seed, args.seconds),
        };
    }
    let tracer = Tracer::on();
    let mut out = match workload {
        "tenant-day" => tenant_day::traced(args.seed, work, &tracer),
        "what-if" => what_if::traced(args.seed, args.seconds, work, &tracer),
        _ => pipeline::traced(args.seed, args.seconds, &tracer),
    };
    let spans = spans_dir.join(format!("trace-{workload}-seed{}.jsonl", args.seed));
    match tracer.write(&spans) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans.display()
        ),
        Err(e) => out.warn(format!("could not write spans to {}: {e}", spans.display())),
    }
    complete_per_layer(&mut out);
    out
}

/// Puts every per-layer metric in catalogue order, zero where the
/// workload did not measure it, and warns where a layer predicted idle
/// on this workload recorded work.
fn complete_per_layer(out: &mut Outcome) {
    let measured = out.take_metrics();
    for (name, unit, idle_on) in trace::PER_LAYER {
        let value = measured
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |&(_, v, _)| v);
        if idle_on.contains(&out.workload) && value != 0.0 {
            out.warn(format!(
                "{name} = {value} on {}, where the layer is predicted idle",
                out.workload
            ));
        }
        out.metric(name, value, unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_line(args.seed));
    let base = PathBuf::from(".bench_build").join("perfbench");
    let work = base.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for w in workloads {
        let out = run_one(w, &args, &work.join(w), &base);
        print!("{}", out.render());
        outcomes.push(out);
    }
    let _ = std::fs::remove_dir_all(&work);

    let result = if outcomes.len() == 1 {
        outcomes.remove(0)
    } else {
        Outcome::combine(outcomes)
    };
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
