//! The paper's Section 5.3 scenario end to end: a 200-node heterogenized
//! Orsay-like cluster, three competing deployments (automatic, star,
//! balanced), model predictions, and a short simulated load test.
//!
//! ```text
//! cargo run --release --example grid5000_planning
//! ```

use adept::prelude::*;

fn main() {
    // 200 middleware nodes (Orsay) + 30 client nodes (Lyon), heterogenized
    // with the paper's background-load method.
    let (platform, orsay, lyon) = generator::grid5000(200, 30, 42);
    println!(
        "Grid'5000-like platform: {} nodes ({} middleware on {orsay}, {} clients on {lyon})",
        platform.node_count(),
        platform.nodes_on_site(orsay).len(),
        platform.nodes_on_site(lyon).len(),
    );

    // The planner only sees the middleware site.
    let mut builder = Platform::builder(platform.network().clone());
    let site = builder.add_site("orsay");
    for id in platform.nodes_on_site(orsay) {
        builder
            .add_node(platform.name(id), platform.power(id), site)
            .expect("names are unique");
    }
    let middleware = builder.build().expect("200 nodes");

    let service = Dgemm::new(310).service();
    let params = ModelParams::from_platform(&middleware);

    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(HeuristicPlanner::paper()),
        Box::new(StarPlanner),
        Box::new(BalancedPlanner::paper()),
    ];

    println!("\n== model predictions (Eq. 16) ==");
    let mut plans = Vec::new();
    for planner in &planners {
        let plan = planner
            .plan(&middleware, &service, ClientDemand::Unbounded)
            .expect("200 nodes suffice");
        let report = params.evaluate(&middleware, &plan, &service);
        let stats = HierarchyStats::of(&plan);
        println!("{:<10} {report}\n           {stats}", planner.name());
        plans.push((planner.name().to_string(), plan));
    }

    // Short simulated load test at a mid-range client count (the full
    // Figure 6 curves are regenerated by `cargo run -p bench --bin fig6`).
    println!("\n== simulated throughput at 300 clients ==");
    let config = SimConfig::paper().with_windows(Seconds(5.0), Seconds(20.0));
    for (name, plan) in &plans {
        let out = measure_throughput(&middleware, plan, &service, 300, &config);
        println!(
            "{name:<10} measured {:>8.2} req/s (mean response {:.3}s, {} requests)",
            out.throughput, out.mean_response_time, out.completed
        );
    }
}
