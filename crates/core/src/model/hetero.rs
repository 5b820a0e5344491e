//! Heterogeneous-communication extension — the paper's future work.
//!
//! "In this primary work we focus on heterogeneous computing resource and
//! consider homogeneous communication. In case of cluster it is not so far
//! from the reality but the results will be different when we consider
//! communications between clusters. We plan to deal with heterogeneous
//! communication in future works." (Section 4)
//!
//! This module generalizes Equations 1–16 to per-link bandwidths: every
//! message term is costed with the bandwidth of the specific link it
//! crosses (via [`Network::bandwidth_between`](adept_platform::Network::bandwidth_between) over the endpoints' sites)
//! instead of the global `B`. The homogeneous equations are recovered
//! exactly when the platform's network is uniform. The client side is a
//! site too: with [`ModelParams::client_site`] set, the root's parent
//! link and the Eq. 15 service-phase transfers cross the link to that
//! site; by default clients are assumed co-located with each endpoint's
//! own site gateway (the paper's setup).
//!
//! **Role in the stack.** [`evaluate_hetero`] is the O(n) from-scratch
//! *reference* implementation of the per-link model — the exact role
//! [`throughput::evaluate`](super::throughput::evaluate) plays for the
//! homogeneous model. The hot path is the site-aware
//! [`IncrementalEval`](super::IncrementalEval), which prefetches the
//! site-pair bandwidth table and maintains the same quantities as
//! O(log n) deltas; `tests/incremental_parity.rs` drives randomized
//! multi-site mutation sequences against this module at 1e-9 relative.
//! [`ModelParams::evaluate`] dispatches here automatically whenever the
//! platform's network is heterogeneous (and
//! [`site_aware`](ModelParams::site_aware) is left on), so planners,
//! tests and reports all price links the same way.
//!
//! The practical consequence the extension exposes: on a multi-site
//! platform, the homogeneous-`B` planner (which scalarizes the network to
//! its *minimum* bandwidth, see
//! [`Network::uniform_bandwidth`](adept_platform::Network::uniform_bandwidth)) either underestimates intra-site
//! deployments or overestimates cross-site edges; the hetero-aware
//! evaluation ranks cross-site hierarchies correctly, and the site-aware
//! planners exploit it. The `hetero_comm` bench quantifies the gap.

use super::ModelParams;
use crate::analysis::{Bottleneck, ThroughputReport};
use adept_hierarchy::{DeploymentPlan, Role, Slot};
use adept_platform::{Platform, Seconds};
use adept_workload::ServiceSpec;

/// Generalized Eq. 1+2+5: full cycle of an agent whose links may have
/// different bandwidths. The root has no parent slot: its parent link
/// goes to the client side — [`ModelParams::client_site`] when set,
/// otherwise the agent's own site (clients co-located with the root's
/// site gateway, as in the paper's setup where clients sat on a
/// dedicated cluster wired to the middleware site).
pub fn agent_cycle_hetero(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    slot: Slot,
) -> Seconds {
    let a = &params.calibration.agent;
    let my_site = platform.site_of(plan.node(slot));
    let parent_site = plan
        .parent(slot)
        .map(|p| platform.site_of(plan.node(p)))
        .unwrap_or_else(|| params.client_site.unwrap_or(my_site));
    let net = platform.network();
    let b_parent = net.bandwidth_between(my_site, parent_site);
    // Parent link: receive the request, send the reply (Eq. 1/2 first
    // terms).
    let mut total = a.sreq / b_parent + a.srep / b_parent + params.latency * 2.0;
    // Child links: send the request, receive the reply, per child.
    for &child in plan.children(slot) {
        let b_child = net.bandwidth_between(my_site, platform.site_of(plan.node(child)));
        total += a.sreq / b_child + a.srep / b_child + params.latency * 2.0;
    }
    // Eq. 5 computation is bandwidth-independent.
    let power = platform.power(plan.node(slot));
    total + params.calibration.agent.total_compute(plan.degree(slot)) / power
}

/// Generalized server prediction cycle (first term of Eq. 14): the
/// scheduling messages cross the server→parent link.
pub fn server_prediction_cycle_hetero(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    slot: Slot,
) -> Seconds {
    let s = &params.calibration.server;
    let my_site = platform.site_of(plan.node(slot));
    let parent_site = plan
        .parent(slot)
        .map(|p| platform.site_of(plan.node(p)))
        .unwrap_or(my_site);
    let b = platform.network().bandwidth_between(my_site, parent_site);
    let power = platform.power(plan.node(slot));
    s.sreq / b + s.srep / b + params.latency * 2.0 + s.wpre / power
}

/// Generalized Eq. 15: the service-phase transfer crosses the
/// client↔server link — [`ModelParams::client_site`] when set, otherwise
/// the server's own intra-site bandwidth (see [`agent_cycle_hetero`] for
/// the convention). The slowest client↔server transfer binds.
pub fn service_throughput_hetero(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
) -> f64 {
    let s = &params.calibration.server;
    let net = platform.network();
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut worst_transfer = Seconds::ZERO;
    let mut any = false;
    for slot in plan.servers() {
        any = true;
        let power = platform.power(plan.node(slot));
        numerator += s.wpre / service.wapp;
        denominator += power.value() / service.wapp.value();
        let site = platform.site_of(plan.node(slot));
        let b = net.bandwidth_between(site, params.client_site.unwrap_or(site));
        let transfer = s.sreq / b + s.srep / b + params.latency * 2.0;
        if transfer > worst_transfer {
            worst_transfer = transfer;
        }
    }
    if !any {
        return 0.0;
    }
    (worst_transfer + Seconds(numerator / denominator)).throughput()
}

/// Generalized Eq. 16 over a platform with per-link bandwidths.
pub fn evaluate_hetero(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
) -> ThroughputReport {
    let mut worst = Seconds::ZERO;
    let mut who = Bottleneck::ServiceCapacity;
    for slot in plan.slots() {
        let cycle = match plan.role(slot) {
            Role::Agent => agent_cycle_hetero(params, platform, plan, slot),
            Role::Server => server_prediction_cycle_hetero(params, platform, plan, slot),
        };
        if cycle > worst {
            worst = cycle;
            who = match plan.role(slot) {
                Role::Agent => Bottleneck::AgentSched {
                    slot,
                    node: plan.node(slot),
                },
                Role::Server => Bottleneck::ServerPrediction {
                    slot,
                    node: plan.node(slot),
                },
            };
        }
    }
    let rho_sched = worst.throughput();
    let rho_service = service_throughput_hetero(params, platform, plan, service);
    if rho_sched <= rho_service {
        ThroughputReport {
            rho: rho_sched,
            rho_sched,
            rho_service,
            bottleneck: who,
        }
    } else {
        ThroughputReport {
            rho: rho_service,
            rho_sched,
            rho_service,
            bottleneck: Bottleneck::ServiceCapacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::throughput;
    use adept_hierarchy::builder::star;
    use adept_platform::generator::lyon_cluster;
    use adept_platform::{MbitRate, MflopRate, Network, NodeId, Platform, SiteId};
    use adept_workload::Dgemm;

    fn two_site_platform(inter: f64) -> Platform {
        let mut b = Platform::builder(Network::PerSitePair {
            intra: vec![MbitRate(100.0), MbitRate(100.0)],
            inter: MbitRate(inter),
            latency: Seconds::ZERO,
        });
        let s0 = b.add_site("a");
        let s1 = b.add_site("b");
        for i in 0..4 {
            b.add_node(format!("a{i}"), MflopRate(400.0), s0).unwrap();
        }
        for i in 0..4 {
            b.add_node(format!("b{i}"), MflopRate(400.0), s1).unwrap();
        }
        b.build().unwrap()
    }

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn reduces_to_homogeneous_model_on_uniform_network() {
        let platform = lyon_cluster(8);
        let params = ModelParams::from_platform(&platform);
        let svc = Dgemm::new(310).service();
        let plan = star(&ids(8));
        let hom = throughput::evaluate(&params, &platform, &plan, &svc);
        let het = evaluate_hetero(&params, &platform, &plan, &svc);
        assert!((hom.rho - het.rho).abs() < 1e-9 * hom.rho);
        assert!((hom.rho_sched - het.rho_sched).abs() < 1e-9 * hom.rho_sched);
        assert!((hom.rho_service - het.rho_service).abs() < 1e-9 * hom.rho_service);
    }

    #[test]
    fn cross_site_children_cost_more() {
        let platform = two_site_platform(10.0); // slow inter-site link
        let params = ModelParams::new(MbitRate(100.0));
        // Intra-site star: agent n0 with servers n1..n3 (site a).
        let intra = star(&ids(4));
        // Cross-site star: agent n0 (site a) with servers n4..n7 (site b).
        let mut cross = adept_hierarchy::DeploymentPlan::with_root(NodeId(0));
        for i in 4..7 {
            cross.add_server(cross.root(), NodeId(i)).unwrap();
        }
        let a_intra = agent_cycle_hetero(&params, &platform, &intra, intra.root());
        let a_cross = agent_cycle_hetero(&params, &platform, &cross, cross.root());
        assert!(
            a_cross.value() > a_intra.value() * 2.0,
            "10x slower links must dominate: {a_intra} vs {a_cross}"
        );
    }

    #[test]
    fn homogeneous_scalarization_is_pessimistic_for_intra_site_plans() {
        // The baseline planner sees min-bandwidth (10 Mb/s) everywhere;
        // the hetero evaluation knows the intra-site plan never crosses
        // the slow link.
        let platform = two_site_platform(10.0);
        let svc = Dgemm::new(310).service();
        let intra = star(&ids(4));
        let params_scalar = ModelParams::from_platform(&platform); // B = min = 10
        let scalar_rho = throughput::evaluate(&params_scalar, &platform, &intra, &svc).rho;
        let hetero_rho = evaluate_hetero(&params_scalar, &platform, &intra, &svc).rho;
        assert!(
            hetero_rho > scalar_rho,
            "hetero model must credit intra-site links: {scalar_rho} vs {hetero_rho}"
        );
    }

    #[test]
    fn explicit_client_site_prices_the_client_links() {
        let platform = two_site_platform(10.0);
        let svc = Dgemm::new(310).service();
        let intra = star(&ids(4)); // entirely on site a
        let params = ModelParams::new(MbitRate(100.0));
        let default_rho = evaluate_hetero(&params, &platform, &intra, &svc).rho;
        // Clients declared on site a: identical to the default convention
        // for a site-a deployment (every client link is still intra-a).
        let co_located = params.with_client_site(SiteId(0));
        assert_eq!(
            evaluate_hetero(&co_located, &platform, &intra, &svc)
                .rho
                .to_bits(),
            default_rho.to_bits()
        );
        // Clients behind the 10 Mb/s WAN: the root's parent link and all
        // Eq. 15 transfers slow down, so throughput must drop.
        let remote = params.with_client_site(SiteId(1));
        let remote_rho = evaluate_hetero(&remote, &platform, &intra, &svc).rho;
        assert!(
            remote_rho < default_rho,
            "WAN clients must cost: {remote_rho} vs {default_rho}"
        );
    }

    #[test]
    fn bottleneck_moves_to_cross_site_agent() {
        let platform = two_site_platform(5.0);
        let params = ModelParams::new(MbitRate(100.0));
        let svc = Dgemm::new(10).service();
        // Root on site a; one mid-agent on site b with two servers on b.
        let mut plan = adept_hierarchy::DeploymentPlan::with_root(NodeId(0));
        let mid = plan.add_agent(plan.root(), NodeId(4)).unwrap();
        plan.add_server(mid, NodeId(5)).unwrap();
        plan.add_server(mid, NodeId(6)).unwrap();
        plan.add_server(plan.root(), NodeId(1)).unwrap();
        let report = evaluate_hetero(&params, &platform, &plan, &svc);
        // The mid-agent pays the slow parent link; with the tiny workload
        // the deployment is sched-limited at one of the agents touching
        // the slow link.
        assert!(report.is_sched_limited());
        match report.bottleneck {
            Bottleneck::AgentSched { node, .. } => {
                assert!(node == NodeId(4) || node == NodeId(0));
            }
            other => panic!("expected an agent bottleneck, got {other:?}"),
        }
    }
}
