//! Multi-service deployments — the paper's last future-work item
//! ("deploy several middlewares and/or applications on grid").
//!
//! The hierarchy is shared: every request, whatever its service, crosses
//! every agent, so `ρ_sched` (Eq. 14) is unchanged. The servers are
//! **partitioned**: a server hosts exactly one service of the mix and
//! only contributes to that service's Eq. 15 capacity. With request
//! shares `f_j`, the deployment sustains a completed-mix rate
//!
//! ```text
//! ρ = min( ρ_sched , min_j ρ_service_j / f_j )
//! ```
//!
//! — the service whose capacity is smallest *relative to its share* caps
//! the whole mix (requests are not reorderable across services). A
//! zero-share service never binds: no requests are ever routed to it.
//!
//! [`evaluate_mix`] produces that number (plus the per-service rates and
//! the binding service) by building a batched
//! [`IncrementalEval`](super::IncrementalEval) over the plan — the same
//! code path the planners probe, so a planner's accepted score and the
//! final evaluation cannot disagree.
//!
//! [`partition_servers`] chooses a partition for an *existing* plan:
//! servers are dealt out strongest-first, each to the service with the
//! currently smallest share-normalized capacity — the same waterfill idea
//! the planners use for degrees, and exchange-optimal for the max-min
//! objective for the same reason. (When the hierarchy itself is still to
//! be chosen, prefer [`MixPlanner`](crate::planner::MixPlanner), which
//! grows tree and partition together.) The waterfill keeps per-service
//! Eq. 10 running sums, so it costs O(n·S) instead of the O(n²·S)
//! recompute-per-step of the original implementation.

use super::{comm, throughput, ModelParams};
use adept_hierarchy::{DeploymentPlan, PlanError};
use adept_platform::{NodeId, Platform};
use adept_workload::ServiceMix;
use std::collections::BTreeMap;

/// Which service each server node hosts (index into the mix).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerAssignment {
    /// Service index per server node.
    pub service_of: BTreeMap<NodeId, usize>,
}

impl ServerAssignment {
    /// The service hosted by `node`, if it is an assigned server.
    pub fn service(&self, node: NodeId) -> Option<usize> {
        self.service_of.get(&node).copied()
    }

    /// Number of servers assigned to service `j`.
    pub fn count_for(&self, j: usize) -> usize {
        self.service_of.values().filter(|&&s| s == j).count()
    }
}

/// Evaluation of a multi-service deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct MixReport {
    /// Completed-mix throughput (requests/second, all services combined).
    pub rho: f64,
    /// Shared scheduling throughput (Eq. 14).
    pub rho_sched: f64,
    /// Per-service service throughput (Eq. 15 over the service's
    /// partition; 0.0 for a service with no servers).
    pub rho_service: Vec<f64>,
    /// Index of the binding service (`None` when scheduling binds).
    pub binding_service: Option<usize>,
}

/// Evaluates a deployment + assignment under a mix, through the batched
/// incremental evaluator (one shared scheduling phase, per-service
/// Eq. 15 sums).
///
/// Degenerate inputs evaluate rather than panic: a positive-share service
/// with no servers yields `rho_service[j] = 0` (and binds the mix at 0),
/// a zero-share service is reported but never binds, and a plan with no
/// servers at all (e.g. a single-node platform's lone root) yields
/// `rho = 0`.
///
/// # Errors
/// [`PlanError::ServerNotAssigned`] when a plan server is missing from
/// the assignment, [`PlanError::InvalidServiceIndex`] when an assignment
/// entry points outside the mix.
pub fn evaluate_mix(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    mix: &ServiceMix,
    assignment: &ServerAssignment,
) -> Result<MixReport, PlanError> {
    let eval = super::IncrementalEval::from_plan_mix(params, platform, plan, mix, assignment)?;
    Ok(eval.mix_report())
}

/// Partitions a plan's servers among the mix's services: strongest-first
/// waterfill onto the service with the smallest share-normalized
/// capacity. Zero-share services receive no servers (they demand
/// nothing).
///
/// # Errors
/// [`PlanError::NotEnoughServers`] when the plan holds fewer servers
/// than the mix has positive-share services (each needs at least one).
pub fn partition_servers(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    mix: &ServiceMix,
) -> Result<ServerAssignment, PlanError> {
    let mut servers: Vec<NodeId> = plan.servers().map(|s| plan.node(s)).collect();
    let needed = mix.demanded_services();
    if servers.len() < needed {
        return Err(PlanError::NotEnoughServers {
            needed,
            available: servers.len(),
        });
    }
    platform.sort_by_power_desc(&mut servers);

    // Per-service Eq. 10 running sums: the share-normalized capacity of
    // every candidate service is read in O(1) per step instead of
    // re-summing its whole partition.
    let transfer = comm::service_transfer_time(params).value();
    let wpre = params.calibration.server.wpre.value();
    let wapps: Vec<f64> = (0..mix.len())
        .map(|j| mix.service(j).wapp.value())
        .collect();
    let mut numerator = vec![1.0f64; mix.len()];
    let mut denominator = vec![0.0f64; mix.len()];
    let mut count = vec![0usize; mix.len()];

    let mut assignment = ServerAssignment::default();
    for node in servers {
        let starved = (0..mix.len())
            .filter(|&j| mix.share(j) > 0.0)
            .map(|j| {
                let rho = if count[j] == 0 {
                    0.0
                } else {
                    throughput::service_rate_from_sums(transfer, numerator[j], denominator[j])
                };
                (j, rho / mix.share(j))
            })
            // audit: allow(unwrap, "model invariant: validated platforms and
            // mixes keep rates, powers, and shares finite and positive")
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("rates are finite"))
            .map(|(j, _)| j)
            // audit: allow(unwrap, "model invariant: validated platforms and
            // mixes keep rates, powers, and shares finite and positive")
            .expect("a mix always has a positive-share service");
        numerator[starved] += wpre / wapps[starved];
        denominator[starved] += platform.power(node).value() / wapps[starved];
        count[starved] += 1;
        assignment.service_of.insert(node, starved);
    }
    Ok(assignment)
}

/// Reference evaluation used by the parity tests: per-service Eq. 15 via
/// the sequential [`hier_ser_pow`](throughput::hier_ser_pow) over each
/// partition, scheduling via the sequential scan — no incremental state.
pub fn evaluate_mix_full(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    mix: &ServiceMix,
    assignment: &ServerAssignment,
) -> MixReport {
    let (rho_sched, _) = throughput::sched_throughput(params, platform, plan);
    let mut rho_service = Vec::with_capacity(mix.len());
    for j in 0..mix.len() {
        let powers = plan.servers().filter_map(|s| {
            let node = plan.node(s);
            (assignment.service(node) == Some(j)).then(|| platform.power(node))
        });
        rho_service.push(throughput::hier_ser_pow(params, mix.service(j), powers));
    }
    let mut rho = rho_sched;
    let mut binding = None;
    for (j, &rs) in rho_service.iter().enumerate() {
        if mix.share(j) == 0.0 {
            continue;
        }
        let capped = rs / mix.share(j);
        if capped < rho {
            rho = capped;
            binding = Some(j);
        }
    }
    MixReport {
        rho,
        rho_sched,
        rho_service,
        binding_service: binding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::builder::star;
    use adept_platform::generator::lyon_cluster;
    use adept_platform::NodeId;
    use adept_workload::Dgemm;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn setup(n: u32) -> (Platform, DeploymentPlan, ModelParams) {
        let platform = lyon_cluster(n as usize);
        let plan = star(&ids(n));
        let params = ModelParams::from_platform(&platform);
        (platform, plan, params)
    }

    #[test]
    fn single_service_mix_matches_plain_evaluation() {
        let (platform, plan, params) = setup(9);
        let svc = Dgemm::new(310).service();
        let mix = ServiceMix::single(svc.clone());
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        assert_eq!(assignment.count_for(0), 8);
        let report = evaluate_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let plain = params.evaluate(&platform, &plan, &svc);
        assert!((report.rho - plain.rho).abs() < 1e-9 * plain.rho);
        assert!((report.rho_sched - plain.rho_sched).abs() < 1e-9);
    }

    #[test]
    fn partition_respects_shares() {
        // Equal services, 3:1 shares → ~3:1 servers.
        let (platform, plan, params) = setup(13);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 3.0),
            (Dgemm::new(310).service(), 1.0),
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        assert_eq!(assignment.count_for(0) + assignment.count_for(1), 12);
        assert_eq!(assignment.count_for(0), 9);
        assert_eq!(assignment.count_for(1), 3);
    }

    #[test]
    fn partition_gives_heavy_services_more_capacity() {
        // Same shares, 10x heavier service → far more servers.
        let (platform, plan, params) = setup(23);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0), // ~60 MFlop
            (Dgemm::new(144).service(), 1.0), // ~6 MFlop
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        assert!(
            assignment.count_for(0) > assignment.count_for(1) * 3,
            "heavy service got {} vs light {}",
            assignment.count_for(0),
            assignment.count_for(1)
        );
    }

    #[test]
    fn binding_service_is_reported() {
        let (platform, plan, params) = setup(5);
        // Give the heavy service a tiny share so it still binds.
        let mix = ServiceMix::new(vec![
            (Dgemm::new(1000).service(), 1.0),
            (Dgemm::new(10).service(), 1.0),
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        let report = evaluate_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        assert_eq!(report.binding_service, Some(0), "{report:?}");
        assert!(report.rho <= report.rho_sched);
        assert_eq!(report.rho_service.len(), 2);
    }

    #[test]
    fn mix_rho_never_exceeds_single_best_service_deployment() {
        // Sharing a platform across services cannot beat dedicating it to
        // the lightest service alone.
        let (platform, plan, params) = setup(11);
        let light = Dgemm::new(100).service();
        let mix = ServiceMix::new(vec![
            (light.clone(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        let mixed = evaluate_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let dedicated = params.evaluate(&platform, &plan, &light);
        assert!(mixed.rho <= dedicated.rho + 1e-9);
    }

    #[test]
    fn too_few_servers_is_an_error_not_a_panic() {
        let (platform, plan, params) = setup(2); // one server
        let mix = ServiceMix::new(vec![
            (Dgemm::new(10).service(), 1.0),
            (Dgemm::new(100).service(), 1.0),
        ]);
        assert_eq!(
            partition_servers(&params, &platform, &plan, &mix),
            Err(PlanError::NotEnoughServers {
                needed: 2,
                available: 1
            })
        );
    }

    #[test]
    fn zero_share_service_gets_no_servers_and_never_binds() {
        let (platform, plan, params) = setup(9);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 0.0), // installed, idle
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        assert_eq!(assignment.count_for(0), 8);
        assert_eq!(assignment.count_for(1), 0);
        let report = evaluate_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        assert_ne!(report.binding_service, Some(1));
        assert_eq!(report.rho_service[1], 0.0);
        assert!(report.rho > 0.0, "the idle service must not zero the mix");
        // And a single positive-share service only needs one server.
        let two = lyon_cluster(2);
        let tiny = star(&ids(2));
        let a = partition_servers(&params, &two, &tiny, &mix).unwrap();
        assert_eq!(a.count_for(0), 1);
    }

    #[test]
    fn serverless_plan_evaluates_to_zero_instead_of_panicking() {
        // A single-node platform's plan is a lone root: no servers.
        let platform = lyon_cluster(1);
        let params = ModelParams::from_platform(&platform);
        let plan = DeploymentPlan::with_root(NodeId(0));
        let mix = ServiceMix::single(Dgemm::new(310).service());
        let report = evaluate_mix(
            &params,
            &platform,
            &plan,
            &mix,
            &ServerAssignment::default(),
        )
        .unwrap();
        assert_eq!(report.rho, 0.0);
        assert_eq!(report.binding_service, Some(0));
        // Partitioning it is an error, not a panic.
        assert_eq!(
            partition_servers(&params, &platform, &plan, &mix),
            Err(PlanError::NotEnoughServers {
                needed: 1,
                available: 0
            })
        );
    }

    #[test]
    fn unassigned_server_is_reported() {
        let (platform, plan, params) = setup(4);
        let mix = ServiceMix::single(Dgemm::new(310).service());
        let err = evaluate_mix(
            &params,
            &platform,
            &plan,
            &mix,
            &ServerAssignment::default(),
        );
        assert!(matches!(err, Err(PlanError::ServerNotAssigned(_))));
    }

    #[test]
    fn incremental_and_full_mix_evaluations_agree() {
        let (platform, plan, params) = setup(17);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(100).service(), 2.0),
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let assignment = partition_servers(&params, &platform, &plan, &mix).unwrap();
        let inc = evaluate_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let full = evaluate_mix_full(&params, &platform, &plan, &mix, &assignment);
        assert!((inc.rho - full.rho).abs() <= 1e-9 * full.rho.max(1.0));
        assert_eq!(inc.binding_service, full.binding_service);
        for j in 0..mix.len() {
            assert!(
                (inc.rho_service[j] - full.rho_service[j]).abs()
                    <= 1e-9 * full.rho_service[j].max(1.0),
                "service {j}"
            );
        }
    }
}
