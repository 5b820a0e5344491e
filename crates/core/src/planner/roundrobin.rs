//! Round-robin comparator — the state of the art the paper's related work
//! credits to generic deployment tools.
//!
//! "ADAGE computes a deployment plan containing the mapping of each
//! process on resources (the schedulers are also plugins, so one can bring
//! its own, currently **only round-robin is implemented**)." (Section 2)
//!
//! The planner is deliberately model-blind: it fixes an agent fraction,
//! deals roles out in platform order (no power sorting), and spreads
//! children round-robin. It exists to show what Algorithm 1 buys over a
//! generic mapper.

use super::{Planner, PlannerError};
use adept_hierarchy::{DeploymentPlan, Slot};
use adept_platform::Platform;
use adept_workload::{ClientDemand, ServiceSpec};

/// Model-blind round-robin mapper (ADAGE-style).
#[derive(Debug, Clone, Copy)]
pub struct RoundRobinPlanner {
    /// One agent per this many nodes (≥ 2). The default (16) mimics a
    /// "one coordinator per rack" rule of thumb.
    pub nodes_per_agent: usize,
}

impl Default for RoundRobinPlanner {
    fn default() -> Self {
        Self {
            nodes_per_agent: 16,
        }
    }
}

impl Planner for RoundRobinPlanner {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn plan(
        &self,
        platform: &Platform,
        _service: &ServiceSpec,
        _demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        if self.nodes_per_agent < 2 {
            return Err(PlannerError::InvalidConfig(
                "round-robin needs at least 2 nodes per agent".into(),
            ));
        }
        let n = platform.node_count();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        // Platform order, no sorting: the first node of every group of
        // `nodes_per_agent` is an agent, the rest are servers. Capped at
        // n/2 so every agent is guaranteed a child.
        let agent_count = n.div_ceil(self.nodes_per_agent).clamp(1, n / 2);
        let nodes: Vec<_> = platform.ids().collect();
        let mut plan = DeploymentPlan::with_root(nodes[0]);
        let mut agents: Vec<Slot> = vec![plan.root()];
        // First pass: agents attach round-robin under earlier agents.
        for (i, &node) in nodes.iter().enumerate().skip(1).take(agent_count - 1) {
            let parent = agents[(i - 1) % agents.len()];
            // audit: allow(unwrap, "builder invariant: each node is handed out
            // once, so the insert cannot collide")
            let slot = plan.add_agent(parent, node).expect("distinct nodes insert");
            agents.push(slot);
        }
        // Second pass: servers deal out round-robin across all agents.
        for (i, &node) in nodes.iter().enumerate().skip(agent_count) {
            let parent = agents[i % agents.len()];
            plan.add_server(parent, node)
                // audit: allow(unwrap, "builder invariant: each node is handed
                // out once, so the insert cannot collide")
                .expect("distinct nodes insert");
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelParams;
    use crate::planner::HeuristicPlanner;
    use adept_hierarchy::validate::validate_relaxed;
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate};
    use adept_workload::Dgemm;

    #[test]
    fn round_robin_builds_valid_plans() {
        for n in [2usize, 5, 16, 33, 64] {
            let platform = lyon_cluster(n);
            let plan = RoundRobinPlanner::default()
                .plan(
                    &platform,
                    &Dgemm::new(310).service(),
                    ClientDemand::Unbounded,
                )
                .unwrap();
            assert_eq!(plan.len(), n, "uses every node");
            assert!(validate_relaxed(&plan).is_empty(), "n={n}");
        }
    }

    #[test]
    fn agent_fraction_respected() {
        let platform = lyon_cluster(32);
        let plan = RoundRobinPlanner { nodes_per_agent: 8 }
            .plan(
                &platform,
                &Dgemm::new(310).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 4);
        assert_eq!(plan.server_count(), 28);
    }

    #[test]
    fn heuristic_dominates_round_robin_on_heterogeneous_platforms() {
        // The point of the comparator: a model-blind mapper wastes strong
        // nodes and picks arbitrary degrees. In the service-limited
        // regime any shape with enough servers approaches capacity, so
        // round-robin may *tie* there (within a couple of percent); in
        // the agent-limited regime it loses badly.
        let platform = heterogenized_cluster(
            "x",
            48,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            13,
        );
        let params = ModelParams::from_platform(&platform);
        for size in [10u32, 310, 1000] {
            let svc = Dgemm::new(size).service();
            let rr = RoundRobinPlanner::default()
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let heur = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let rr_rho = params.evaluate(&platform, &rr, &svc).rho;
            let heur_rho = params.evaluate(&platform, &heur, &svc).rho;
            assert!(
                heur_rho >= rr_rho * 0.98,
                "dgemm-{size}: heuristic {heur_rho} must not lose to round-robin {rr_rho}"
            );
        }
        // Agent-limited case: the gap must be dramatic.
        let svc = Dgemm::new(10).service();
        let rr = RoundRobinPlanner::default()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let heur = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let rr_rho = params.evaluate(&platform, &rr, &svc).rho;
        let heur_rho = params.evaluate(&platform, &heur, &svc).rho;
        assert!(
            heur_rho > rr_rho * 2.0,
            "agent-limited: heuristic {heur_rho} should crush round-robin {rr_rho}"
        );
    }

    #[test]
    fn config_validation() {
        let platform = lyon_cluster(4);
        assert!(matches!(
            RoundRobinPlanner { nodes_per_agent: 1 }.plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded
            ),
            Err(PlannerError::InvalidConfig(_))
        ));
    }
}
