//! **Answer digest** — one line per planner answer, for checking that a
//! change to the planners keeps every answer bit for bit.
//!
//! Each line names the planner, platform and inputs, then prints the
//! answer's ρ (or objective) as IEEE-754 bits, its agent and server
//! counts, the plan in breadth-first order as `node:role:parent`, and the
//! server→service assignment sorted by node. `SweepStats` are printed for
//! sequential mix sweeps only: a threaded walk shares its incumbent
//! across workers, so its counters depend on the schedule.
//!
//! It covers the heuristic (paper, rebalance, no conversion; unbounded
//! and demand-capped), the sweep with 1 and 3 threads, `plan_mix` under
//! both objectives, `best_mix_plan_stats` and `replan`/`replan_mix`, on
//! homogeneous, heterogenized and uniform-random clusters, 2–4-site grids
//! up to 4 × 6,000 nodes, a grid whose sites hold one node each, and the
//! 4 × 250,000-node grid of the benchmark's pipeline.
//!
//! ```text
//! cargo run --release -p adept-bench --bin answer_digest > answers.txt
//! ```
//!
//! Build it the same way at two commits and `cmp` the two outputs.

use adept_core::model::mix::ServerAssignment;
use adept_core::model::ModelParams;
use adept_core::planner::{
    HeuristicPlanner, MixObjective, MixPlan, MixPlanner, OnlinePlanner, Planner, SweepPlanner,
};
use adept_hierarchy::{DeploymentPlan, Role};
use adept_platform::generator::{
    heterogenized_cluster, lyon_cluster, multi_site_grid, uniform_random_cluster,
};
use adept_platform::{BackgroundLoad, CapacityProbe, MbitRate, MflopRate, Network, Platform};
use adept_platform::{Mflop, Seconds};
use adept_workload::{ClientDemand, Dgemm, MixDemand, ServiceMix, ServiceSpec};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

/// A planner error on these fixed inputs is itself a finding: `main`
/// stops with its message.
type Res<T = ()> = Result<T, Box<dyn Error>>;

/// The plan in breadth-first order from the root, children in stored
/// order, as `node:role:parent` (`-` for the root's parent).
fn bfs(plan: &DeploymentPlan) -> String {
    let mut out = String::new();
    let mut queue = VecDeque::from([plan.root()]);
    while let Some(slot) = queue.pop_front() {
        let role = match plan.role(slot) {
            Role::Agent => 'A',
            Role::Server => 'S',
        };
        let parent = plan
            .parent(slot)
            .map_or("-".to_string(), |p| plan.node(p).0.to_string());
        let _ = write!(out, "{}:{role}:{parent} ", plan.node(slot).0);
        queue.extend(plan.children(slot).iter().copied());
    }
    out
}

fn assignment(asg: &ServerAssignment) -> String {
    let mut out = String::new();
    for (node, service) in &asg.service_of {
        let _ = write!(out, "{}:{service} ", node.0);
    }
    out
}

/// One answer line.
fn line(out: &mut String, case: &str, value: f64, plan: &DeploymentPlan, asg: &str) {
    let _ = writeln!(
        out,
        "{case} | value={:016x} | agents={} servers={} | plan={}| asg={asg}",
        value.to_bits(),
        plan.agent_count(),
        plan.server_count(),
        bfs(plan),
    );
}

fn mix_line(out: &mut String, case: &str, m: &MixPlan) {
    line(
        out,
        case,
        m.objective_value,
        &m.plan,
        &format!(
            "{}| rho={:016x}",
            assignment(&m.assignment),
            m.report.rho.to_bits()
        ),
    );
}

fn rho(platform: &Platform, plan: &DeploymentPlan, service: &ServiceSpec) -> f64 {
    ModelParams::from_platform(platform)
        .evaluate(platform, plan, service)
        .rho
}

fn dgemm_mix(entries: &[(u32, f64)]) -> ServiceMix {
    ServiceMix::new(
        entries
            .iter()
            .map(|&(n, w)| (Dgemm::new(n).service(), w))
            .collect(),
    )
}

/// Three sites of one node each: no site seats a root and a server, so
/// both multi-site sweeps fall back to the scalarized flat family.
fn one_node_sites() -> Res<Platform> {
    let mut b = Platform::builder(Network::PerSitePair {
        intra: vec![MbitRate(100.0); 3],
        inter: MbitRate(10.0),
        latency: Seconds::ZERO,
    });
    for (s, power) in [380.0, 420.0, 300.0].into_iter().enumerate() {
        let site = b.add_site(format!("site-{s}"));
        b.add_node(format!("site-{s}-n0"), MflopRate(power), site)?;
    }
    Ok(b.build()?)
}

/// Single-service answers: three heuristic variants (unbounded, then the
/// paper heuristic capped at half its unbounded ρ), the sweep with 1 and
/// 3 threads, and one `replan` from the heuristic plan.
fn single_service(
    out: &mut String,
    name: &str,
    platform: &Platform,
    sizes: &[u32],
    deep: bool,
) -> Res {
    for &size in sizes {
        let svc = Dgemm::new(size).service();
        let case = format!("{name} dgemm-{size}");
        let planners: &[HeuristicPlanner] = if deep {
            &[
                HeuristicPlanner::paper(),
                HeuristicPlanner::with_rebalance(),
                HeuristicPlanner::without_conversion(),
            ]
        } else {
            &[HeuristicPlanner::paper()]
        };
        for planner in planners {
            let plan = planner.plan(platform, &svc, ClientDemand::Unbounded)?;
            let r = rho(platform, &plan, &svc);
            line(out, &format!("{case} {}", planner.name()), r, &plan, "");
        }
        let paper = HeuristicPlanner::paper().plan(platform, &svc, ClientDemand::Unbounded)?;
        let half = 0.5 * rho(platform, &paper, &svc);
        let capped = HeuristicPlanner::paper().plan(platform, &svc, ClientDemand::target(half))?;
        let r = rho(platform, &capped, &svc);
        line(out, &format!("{case} heuristic target/2"), r, &capped, "");
        for threads in [1usize, 3] {
            let (plan, r) = SweepPlanner::with_threads(threads).best_plan(platform, &svc)?;
            line(
                out,
                &format!("{case} sweep threads={threads}"),
                r,
                &plan,
                "",
            );
        }
        let replan = OnlinePlanner::default().replan(
            platform,
            &paper,
            &svc,
            ClientDemand::target(2.0 * half),
        );
        line(out, &format!("{case} replan"), replan.rho, &replan.plan, "");
    }
    Ok(())
}

/// Mix answers: `plan_mix` under both objectives, a `replan_mix` of the
/// weighted-min plan toward a new demand, and the mix sweep (stats for
/// the sequential run only).
fn mixes(
    out: &mut String,
    name: &str,
    platform: &Platform,
    mixes: &[(&str, &ServiceMix)],
    sweep: bool,
) -> Res {
    for (label, mix) in mixes {
        let case = format!("{name} {label}");
        for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
            let plan = MixPlanner::with_objective(objective).plan_mix_unbounded(platform, mix)?;
            mix_line(
                out,
                &format!("{case} plan_mix {}", objective.label()),
                &plan,
            );
            if objective == MixObjective::WeightedMin {
                let demand = MixDemand::targets(
                    (0..mix.len())
                        .map(|j| 0.6 * plan.report.rho * mix.share(j))
                        .collect(),
                );
                let replan = OnlinePlanner::default().replan_mix(
                    platform,
                    &plan.plan,
                    mix,
                    &plan.assignment,
                    &demand,
                )?;
                line(
                    out,
                    &format!("{case} replan_mix"),
                    replan.report.rho,
                    &replan.plan,
                    &assignment(&replan.assignment),
                );
            }
            if !sweep {
                continue;
            }
            for threads in [1usize, 3] {
                let (plan, stats) = SweepPlanner::with_threads(threads)
                    .best_mix_plan_stats(platform, mix, objective)?;
                let label = format!("{case} mix_sweep {} threads={threads}", objective.label());
                mix_line(out, &label, &plan);
                if threads == 1 {
                    let _ = writeln!(out, "{label} stats {stats:?}");
                }
            }
        }
    }
    Ok(())
}

fn main() -> Res {
    let start = Instant::now();
    let mut out = String::new();
    let sizes = [10u32, 100, 310, 1000];
    let two = dgemm_mix(&[(100, 1.0), (310, 1.0)]);
    let three = dgemm_mix(&[(310, 2.0), (700, 1.0), (1000, 1.0)]);
    let heavy = dgemm_mix(&[(700, 1.0), (1000, 2.0)]);
    let two = ("mix(100:1,310:1)", &two);
    let three = ("mix(310:2,700:1,1000:1)", &three);
    let heavy = ("mix(700:1,1000:2)", &heavy);
    let grid = |sites, per_site, inter, seed| {
        multi_site_grid(
            sites,
            per_site,
            MflopRate(400.0),
            MbitRate(100.0),
            MbitRate(inter),
            seed,
        )
    };
    let hetero = |n, seed| {
        heterogenized_cluster(
            "orsay",
            n,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            seed,
        )
    };

    let small: Vec<(&str, Platform)> = vec![
        ("lyon-45", lyon_cluster(45)),
        ("hetero-60", hetero(60, 42)),
        (
            "uniform-200",
            uniform_random_cluster("u", 200, MflopRate(50.0), MflopRate(800.0), 7),
        ),
        ("grid-2x20", grid(2, 20, 5.0, 11)),
        ("grid-3x30", grid(3, 30, 10.0, 5)),
        ("grid-4x25", grid(4, 25, 20.0, 9)),
        ("one-node-sites", one_node_sites()?),
    ];
    for (name, platform) in &small {
        single_service(&mut out, name, platform, &sizes, true)?;
        let fits: Vec<(&str, &ServiceMix)> = [two, three, heavy]
            .into_iter()
            .filter(|(_, m)| platform.node_count() > m.len())
            .collect();
        mixes(&mut out, name, platform, &fits, true)?;
    }

    // Coarsened lists: a flat cluster past the coarsening threshold, and
    // grids whose sites are.
    let hetero_big = hetero(20_000, 3);
    single_service(&mut out, "hetero-20000", &hetero_big, &[100, 310], false)?;
    mixes(&mut out, "hetero-20000", &hetero_big, &[two], true)?;
    let catalog = grid(2, 5_000, 10.0, 7);
    single_service(&mut out, "grid-2x5000", &catalog, &[100, 310], false)?;
    mixes(&mut out, "grid-2x5000", &catalog, &[three, heavy], false)?;
    mixes(&mut out, "grid-2x5000", &catalog, &[two], true)?;
    let grid_big = grid(4, 6_000, 10.0, 13);
    single_service(&mut out, "grid-4x6000", &grid_big, &[310], true)?;
    mixes(&mut out, "grid-4x6000", &grid_big, &[two], true)?;

    // The benchmark pipeline's 10⁶-node grid.
    let pipeline = grid(4, 250_000, 10.0, 0x5eed);
    single_service(&mut out, "grid-4x250000", &pipeline, &[310], false)?;
    mixes(&mut out, "grid-4x250000", &pipeline, &[three], false)?;

    // A service whose wapp is not a DGEMM's, on the catalog.
    let odd = ServiceSpec::new("odd", Mflop(123.456));
    let (plan, r) = SweepPlanner::sequential().best_plan(&catalog, &odd)?;
    line(&mut out, "grid-2x5000 odd sweep threads=1", r, &plan, "");

    print!("{out}");
    eprintln!(
        "{} answers in {:.1} s",
        out.lines().count(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}
