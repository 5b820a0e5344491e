//! The mix-aware sweep reference at production scale: the accelerated
//! composition walk (coarsened composition grid, `MixPlanner` warm
//! incumbents, dominance pruning) planning a 4-service mix on a large
//! heterogeneous cluster, with its `SweepStats` search telemetry, next
//! to the `MixPlanner` heuristic it is the quality bar for.
//!
//! Run with `--release` (debug builds are much slower at this size):
//!
//! ```sh
//! cargo run --release --example mix_sweep_scale
//! ```
//!
//! Pass a node count to override the default:
//!
//! ```sh
//! cargo run --release --example mix_sweep_scale -- 10000
//! ```

use adept::prelude::*;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);

    let platform = generator::uniform_random_cluster("p", n, MflopRate(100.0), MflopRate(400.0), 7);
    let mix = ServiceMix::new(vec![
        (Dgemm::new(100).service(), 4.0),
        (Dgemm::new(220).service(), 2.0),
        (Dgemm::new(310).service(), 1.0),
        (Dgemm::new(450).service(), 1.0),
    ]);

    // The accelerated walk, with search telemetry: every visited grid
    // point is either expanded or pruned by exactly one of the three
    // pruning layers, so the counters explain where the speedup comes
    // from.
    let t = Instant::now();
    let (plan, stats) = SweepPlanner::default()
        .best_mix_plan_stats(&platform, &mix, MixObjective::WeightedMin)
        .expect("platform is large enough");
    let elapsed = t.elapsed();
    println!(
        "sweep      n = {n}: objective {:.3} req/s, {} agents / {} servers   {:>9.1?}",
        plan.objective_value,
        plan.plan.agent_count(),
        plan.plan.server_count(),
        elapsed
    );
    println!(
        "telemetry  visited {} = expanded {} + pruned {} \
         (bound {} / cap {} / dominance {}), {} refine steps",
        stats.visited,
        stats.expanded,
        stats.pruned(),
        stats.pruned_by_bound,
        stats.pruned_by_cap,
        stats.pruned_by_dominance,
        stats.refine_steps
    );

    // The heuristic the sweep is the quality bar for: the warm
    // incumbent seeding guarantees the sweep never returns less.
    let t = Instant::now();
    let heur = MixPlanner::default()
        .plan_mix_unbounded(&platform, &mix)
        .expect("platform is large enough");
    println!(
        "heuristic  objective {:.3} req/s ({:.1}% of the reference)   {:>9.1?}",
        heur.objective_value,
        100.0 * heur.objective_value / plan.objective_value,
        t.elapsed()
    );
}
