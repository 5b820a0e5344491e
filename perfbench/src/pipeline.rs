//! `pipeline-1e6`: the library path with no daemon. Each iteration
//! generates a fresh 4-site 10⁶-node grid, then runs
//! `HeuristicPlanner::plan` → `ModelParams::evaluate` →
//! `IncrementalEval::from_plan` → `SweepPlanner::plan` on it. The only
//! workload where the heuristic, sweep and batch kernels run at scale and
//! no serve layer runs.

use crate::gen;
use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::{self, Tracer};
use adept_core::model::{IncrementalEval, ModelParams};
use adept_core::planner::{HeuristicPlanner, Planner, SweepPlanner};
use adept_workload::{ClientDemand, Dgemm};
use std::time::{Duration, Instant};

/// A run makes at least this many iterations.
const MIN_ITERATIONS: usize = 3;

struct Iteration {
    generate: Duration,
    heuristic: Duration,
    pipeline: Duration,
    /// Agents and servers of the heuristic plan, then of the sweep's.
    shape: [usize; 4],
}

/// One iteration on the platform of `platform_seed`; checks that the
/// full Eq. 16 evaluation bit-equals the incremental engine and that the
/// sweep is never worse than the heuristic it refines.
fn iterate(
    platform_seed: u64,
    index: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Option<Iteration> {
    let service = Dgemm::new(310).service();
    let t0 = Instant::now();
    let platform = tracer.time("platform.generate", index, || {
        gen::pipeline_platform(platform_seed)
    });
    let generate = t0.elapsed();

    let t0 = Instant::now();
    let result = tracer.time("pipeline.iteration", index, || {
        let plan = tracer.time("core.heuristic.plan", index, || {
            HeuristicPlanner::paper().plan(&platform, &service, ClientDemand::Unbounded)
        })?;
        let heuristic = t0.elapsed();
        let (params, report) = tracer.time("core.throughput.evaluate", index, || {
            let params = ModelParams::from_platform(&platform);
            let report = params.evaluate(&platform, &plan, &service);
            (params, report)
        });
        let engine = tracer.time("core.incremental.build", index, || {
            IncrementalEval::from_plan(&params, &platform, &plan, &service)
        });
        let sweep = tracer.time("core.sweep.plan", index, || {
            SweepPlanner::default().plan(&platform, &service, ClientDemand::Unbounded)
        })?;
        let shape = [
            plan.agent_count(),
            plan.server_count(),
            sweep.agent_count(),
            sweep.server_count(),
        ];
        Ok::<_, adept_core::PlannerError>((
            heuristic,
            report.rho,
            engine.rho(),
            params,
            sweep,
            shape,
        ))
    });
    let pipeline = t0.elapsed();
    match result {
        Ok((heuristic, rho, engine_rho, params, sweep, shape)) => {
            out.check(rho.to_bits() == engine_rho.to_bits(), || {
                format!(
                    "platform {platform_seed:#x}: evaluate rho {rho} != engine rho {engine_rho}"
                )
            });
            let sweep_rho = params.evaluate(&platform, &sweep, &service).rho;
            out.check(sweep_rho >= rho, || {
                format!("platform {platform_seed:#x}: sweep rho {sweep_rho} < heuristic rho {rho}")
            });
            Some(Iteration {
                generate,
                heuristic,
                pipeline,
                shape,
            })
        }
        Err(e) => {
            out.check(false, || format!("platform {platform_seed:#x}: {e}"));
            None
        }
    }
}

/// The end-to-end run: iterations until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new("pipeline-1e6");
    let (mut generate, mut heuristic, mut pipeline, mut recover) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = f64::NAN;
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let platform_seed = gen::pipeline_platform_seed(seed, i);
        if let Some(it) = iterate(platform_seed, i as u64, &Tracer::off(), &mut out) {
            generate.push(it.generate.as_secs_f64());
            heuristic.push(ms(it.heuristic));
            pipeline.push(it.pipeline.as_secs_f64());
            recover.push((it.generate + it.heuristic).as_secs_f64());
            if i == 0 {
                peak_rss = report::peak_rss_mb();
                let [agents, servers, sweep_agents, sweep_servers] = it.shape;
                out.count("heuristic_agents", agents as f64);
                out.count("heuristic_servers", servers as f64);
                out.count("sweep_agents", sweep_agents as f64);
                out.count("sweep_servers", sweep_servers as f64);
            }
        }
        i += 1;
    }
    let total: f64 = pipeline.iter().sum();
    out.figure("setup_s", median(&generate), "s", generate.len());
    out.figure("peak_rss_mb", peak_rss, "MB", 1);
    out.figure("pipeline_s", median(&pipeline), "s", pipeline.len());
    out.figure(
        "pipeline_max_s",
        quantile(&pipeline, 0.99),
        "s",
        pipeline.len(),
    );
    out.figure(
        "heuristic_cold_ms",
        median(&heuristic),
        "ms",
        heuristic.len(),
    );
    out.figure("first_plan_s", median(&recover), "s", recover.len());
    out.count("iterations", pipeline.len() as f64);

    out.metric("setup_s", median(&generate), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("p50_ms", median(&pipeline) * 1e3, "ms");
    out.metric("p99_ms", quantile(&pipeline, 0.99) * 1e3, "ms");
    out.metric("ops_per_s", pipeline.len() as f64 / total, "1/s");
    out.metric("cold_ms", median(&heuristic), "ms");
    out
}

/// The traced run: each platform is generated twice and planned once
/// untraced and once traced, so the overhead of the spans is the
/// difference of the two medians on identical inputs.
pub fn traced(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::new("pipeline-1e6");
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let platform_seed = gen::pipeline_platform_seed(seed, i);
        if let Some(it) = iterate(platform_seed, i as u64, &Tracer::off(), &mut out) {
            plain.push(it.pipeline.as_secs_f64());
        }
        if let Some(it) = iterate(platform_seed, i as u64, tracer, &mut out) {
            spanned.push(it.pipeline.as_secs_f64());
        }
        i += 1;
    }
    let layers = trace::layers(&tracer.spans());
    let med = |name: &str, scale: f64| {
        layers
            .get(name)
            .map_or(0.0, |l| median(&l.durations) * scale)
    };
    out.metric(
        "core.heuristic.plan_ms",
        med("core.heuristic.plan", 1e3),
        "ms",
    );
    out.metric(
        "core.throughput.evaluate_us",
        med("core.throughput.evaluate", 1e6),
        "us",
    );
    out.metric(
        "core.incremental.build_ms",
        med("core.incremental.build", 1e3),
        "ms",
    );
    out.metric("core.sweep.plan_ms", med("core.sweep.plan", 1e3), "ms");
    out.metric("platform.generate_s", med("platform.generate", 1.0), "s");
    out.metric(
        "trace.overhead_share",
        median(&spanned) / median(&plain) - 1.0,
        "share",
    );
    let iteration_self = layers
        .get("pipeline.iteration")
        .map_or(0.0, |l| median(&l.self_times) * 1e3);
    out.figure("traced pipeline_s", median(&spanned), "s", spanned.len());
    out.figure("untraced pipeline_s", median(&plain), "s", plain.len());
    out.figure("  glue between stages", iteration_self, "ms", spanned.len());
    out
}
