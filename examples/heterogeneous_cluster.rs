//! Heterogeneity changes the right deployment: the same 45 nodes, planned
//! as a homogeneous cluster and as a background-loaded heterogeneous one
//! (the paper's Section 5.3 methodology).
//!
//! ```text
//! cargo run --example heterogeneous_cluster
//! ```

use adept::prelude::*;

fn describe(platform: &Platform, label: &str) {
    let powers: Vec<f64> = platform.powers().iter().map(|w| w.value()).collect();
    let min = powers.iter().copied().fold(f64::INFINITY, f64::min);
    let max = powers.iter().copied().fold(0.0f64, f64::max);
    let mean = powers.iter().sum::<f64>() / powers.len() as f64;
    println!(
        "{label}: {} nodes, power min {min:.0} / mean {mean:.0} / max {max:.0} MFlop/s",
        powers.len()
    );
}

fn plan_and_report(platform: &Platform, service: &ServiceSpec) {
    let params = ModelParams::from_platform(platform);
    let plan = HeuristicPlanner::paper()
        .plan(platform, service, ClientDemand::Unbounded)
        .expect("45 nodes suffice");
    let report = params.evaluate(platform, &plan, service);
    let stats = HierarchyStats::of(&plan);
    println!("  heuristic plan: {stats}");
    println!("  prediction:     {report}");
    // Root node of the heterogeneous plan should be the strongest node.
    let root_power = platform.power(plan.node(plan.root()));
    println!("  root node power: {root_power}");
}

fn main() {
    let service = Dgemm::new(310).service();

    let homogeneous = generator::lyon_cluster(45);
    describe(&homogeneous, "homogeneous cluster");
    plan_and_report(&homogeneous, &service);

    println!();

    // Heterogenize exactly as the paper did: background matrix
    // multiplications on 3/4 of the nodes, then re-measure capacity with a
    // (noisy) Linpack-like probe.
    let heterogeneous = generator::heterogenized_cluster(
        "orsay",
        45,
        MflopRate(400.0),
        BackgroundLoad::default(),
        CapacityProbe::with_noise(0.02, 7),
        7,
    );
    describe(&heterogeneous, "heterogenized cluster");
    plan_and_report(&heterogeneous, &service);

    println!();
    println!("Note how the heterogeneous plan keeps the strongest nodes near the root");
    println!("(agents are scheduling-bound) and absorbs weak nodes as servers, where");
    println!("Eq. 10 lets them contribute proportionally to their power.");
}
