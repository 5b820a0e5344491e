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
//! both objectives, `best_mix_plan_stats`, `replan`/`replan_mix`, the
//! plan cache's near-tier revision (an unbounded-budget `replan_mix`)
//! and GoDiet's `deploy` and `migrate` under failure injection, with
//! their spare substitutions, on
//! homogeneous, heterogenized and uniform-random clusters, 2–4-site grids
//! up to 4 × 6,000 nodes, a grid whose sites hold one node each, and the
//! 4 × 250,000-node grid of the benchmark's pipeline. Sweep-only lines
//! cover inputs on which the sweep's agent-count loop stops at its tail
//! bound in each regime: a 6,000-node single-site list at DGEMM 10, 310
//! and 1000, `lyon_cluster(1000)` and a latency override. Each named
//! platform also gets one line with its `Platform::fingerprint`, so a
//! change to the generators or to `PlatformBuilder` that alters any host
//! name, power, site or link shows up even where no answer moves.
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
use adept_godiet::{DeployError, GoDiet, MigrationScript};
use adept_hierarchy::{DeploymentPlan, Role};
use adept_platform::generator::{
    heterogenized_cluster, lyon_cluster, multi_site_grid, uniform_random_cluster,
};
use adept_platform::NodeId;
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

/// One platform's line: its node and site counts and its fingerprint,
/// which hashes every host name, power and site and the network.
fn platform_line(out: &mut String, name: &str, platform: &Platform) {
    let _ = writeln!(
        out,
        "{name} platform | nodes={} sites={} | fingerprint={:016x}",
        platform.node_count(),
        platform.site_count(),
        platform.fingerprint(),
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
        sweeps(out, &case, platform, &svc, None)?;
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

/// The sweep's answer with 1 and 3 threads, under `params` when given
/// and the platform's own parameters otherwise.
fn sweeps(
    out: &mut String,
    case: &str,
    platform: &Platform,
    svc: &ServiceSpec,
    params: Option<ModelParams>,
) -> Res {
    for threads in [1usize, 3] {
        let planner = SweepPlanner {
            params,
            ..SweepPlanner::with_threads(threads)
        };
        let (plan, r) = planner.best_plan(platform, svc)?;
        line(
            out,
            &format!("{case} sweep threads={threads}"),
            r,
            &plan,
            "",
        );
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

/// One GoDiet line: the `(failed, spare)` substitutions and the plan
/// that ends up running, or the launch's error.
fn godiet_line(
    out: &mut String,
    case: &str,
    launched: Result<(Vec<(NodeId, NodeId)>, DeploymentPlan), DeployError>,
) {
    let _ = match launched {
        Ok((substitutions, plan)) => {
            let pairs: Vec<String> = substitutions
                .iter()
                .map(|(failed, spare)| format!("{}>{}", failed.0, spare.0))
                .collect();
            writeln!(
                out,
                "{case} | subs={} | plan={}",
                pairs.join(" "),
                bfs(&plan)
            )
        }
        Err(e) => writeln!(out, "{case} | err={e}"),
    };
}

/// GoDiet's failure injection for the revision lines, `(probability,
/// seed)`: both substitute spares on the small platforms.
const FAILURES: [(f64, u64); 2] = [(0.5, 7), (0.6, 3)];

/// Revisions of a running mix deployment: `plan_mix` at half the
/// unbounded ρ, revised with an unbounded budget toward 1.15× and 0.85×
/// that demand (the plan cache's near-tier call), then deployed and
/// migrated to each revision by GoDiet with failure injection, so spare
/// nodes substitute for elements that keep failing.
fn revisions(
    out: &mut String,
    name: &str,
    platform: &Platform,
    mixes: &[(&str, &ServiceMix)],
) -> Res {
    let reviser = OnlinePlanner {
        max_changes: usize::MAX,
        ..OnlinePlanner::default()
    };
    for (label, mix) in mixes {
        let case = format!("{name} {label}");
        let unbounded = MixPlanner::default().plan_mix_unbounded(platform, mix)?;
        let demand = |factor: f64| {
            MixDemand::targets(
                (0..mix.len())
                    .map(|j| factor * 0.5 * unbounded.report.rho * mix.share(j))
                    .collect(),
            )
        };
        let base = MixPlanner::default().plan_mix(platform, mix, &demand(1.0))?;
        mix_line(out, &format!("{case} plan_mix target/2"), &base);
        for (p, seed) in FAILURES {
            let tool = GoDiet::with_failures(p, seed);
            godiet_line(
                out,
                &format!("{case} deploy p={p} seed={seed}"),
                tool.deploy(platform, &base.plan)
                    .map(|r| (r.substitutions, r.plan)),
            );
        }
        for factor in [1.15, 0.85] {
            let replan =
                reviser.replan_mix(platform, &base.plan, mix, &base.assignment, &demand(factor))?;
            let near = format!("{case} near x{factor}");
            line(
                out,
                &near,
                replan.report.rho,
                &replan.plan,
                &assignment(&replan.assignment),
            );
            for (p, seed) in FAILURES {
                let migrated =
                    MigrationScript::compile(&base.plan, &replan.plan).and_then(|script| {
                        GoDiet::with_failures(p, seed).migrate(platform, &base.plan, &script)
                    });
                godiet_line(
                    out,
                    &format!("{near} migrate p={p} seed={seed}"),
                    migrated.map(|r| (r.substitutions, r.plan)),
                );
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
        platform_line(&mut out, name, platform);
        single_service(&mut out, name, platform, &sizes, true)?;
        let fits: Vec<(&str, &ServiceMix)> = [two, three, heavy]
            .into_iter()
            .filter(|(_, m)| platform.node_count() > m.len())
            .collect();
        mixes(&mut out, name, platform, &fits, true)?;
        if ["lyon-45", "grid-2x20", "grid-4x25", "one-node-sites"].contains(name) {
            revisions(&mut out, name, platform, &fits)?;
        }
    }

    // Sweeps whose agent-count loop stops at its tail bound in each
    // regime: a single-site list past the coarsening threshold at DGEMM
    // 10, 310 and 1000, the 1,000-node homogeneous cluster, and a latency
    // override; each sequential and threaded.
    let uniform_big = uniform_random_cluster("u", 6_000, MflopRate(50.0), MflopRate(800.0), 17);
    platform_line(&mut out, "uniform-6000", &uniform_big);
    for size in [10, 310, 1000] {
        let svc = Dgemm::new(size).service();
        sweeps(
            &mut out,
            &format!("uniform-6000 dgemm-{size}"),
            &uniform_big,
            &svc,
            None,
        )?;
    }
    let lyon_big = lyon_cluster(1000);
    platform_line(&mut out, "lyon-1000", &lyon_big);
    let svc = Dgemm::new(310).service();
    sweeps(&mut out, "lyon-1000 dgemm-310", &lyon_big, &svc, None)?;
    let (_, uniform) = &small[2];
    let latency = ModelParams::from_platform(uniform).with_latency(Seconds(1e-4));
    for size in sizes {
        let case = format!("uniform-200 latency=1e-4 dgemm-{size}");
        sweeps(
            &mut out,
            &case,
            uniform,
            &Dgemm::new(size).service(),
            Some(latency),
        )?;
    }

    // Coarsened lists: a flat cluster past the coarsening threshold, and
    // grids whose sites are.
    let hetero_big = hetero(20_000, 3);
    platform_line(&mut out, "hetero-20000", &hetero_big);
    single_service(&mut out, "hetero-20000", &hetero_big, &[100, 310], false)?;
    mixes(&mut out, "hetero-20000", &hetero_big, &[two], true)?;
    let catalog = grid(2, 5_000, 10.0, 7);
    platform_line(&mut out, "grid-2x5000", &catalog);
    single_service(&mut out, "grid-2x5000", &catalog, &[100, 310], false)?;
    mixes(&mut out, "grid-2x5000", &catalog, &[three, heavy], false)?;
    mixes(&mut out, "grid-2x5000", &catalog, &[two], true)?;
    revisions(&mut out, "grid-2x5000", &catalog, &[two, three])?;
    let grid_big = grid(4, 6_000, 10.0, 13);
    platform_line(&mut out, "grid-4x6000", &grid_big);
    single_service(&mut out, "grid-4x6000", &grid_big, &[310], true)?;
    mixes(&mut out, "grid-4x6000", &grid_big, &[two], true)?;

    // The benchmark pipeline's 10⁶-node grid.
    let pipeline = grid(4, 250_000, 10.0, 0x5eed);
    platform_line(&mut out, "grid-4x250000", &pipeline);
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
