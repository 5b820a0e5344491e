//! The intuitive comparators of the paper's Section 5.3.
//!
//! > "The first deployment is a simple star type, where one node acts as an
//! > agent and all the rest are directly connected to the agent node. In
//! > the second deployment, we deployed a balanced graph, one top agent
//! > connected to 14 agents and each agent connected to 14 servers…"

use super::{Planner, PlannerError};
use adept_hierarchy::builder;
use adept_hierarchy::DeploymentPlan;
use adept_platform::Platform;
use adept_workload::{ClientDemand, ServiceSpec};

/// Star deployment: the most powerful node is the agent, every other node
/// is a server attached to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StarPlanner;

impl Planner for StarPlanner {
    fn name(&self) -> &str {
        "star"
    }

    fn plan(
        &self,
        platform: &Platform,
        _service: &ServiceSpec,
        _demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        if platform.node_count() < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: platform.node_count(),
            });
        }
        Ok(builder::star(&platform.ids_by_power_desc()))
    }
}

/// Balanced two-level deployment: the most powerful node as root, the next
/// `mid_agents` nodes as middle agents, the rest as servers distributed
/// evenly. The paper's Figure 6/7 comparator uses 14 middle agents on 200
/// nodes.
#[derive(Debug, Clone, Copy)]
pub struct BalancedPlanner {
    /// Number of middle agents.
    pub mid_agents: usize,
}

impl BalancedPlanner {
    /// The paper's configuration (14 middle agents).
    pub fn paper() -> Self {
        Self { mid_agents: 14 }
    }
}

impl Default for BalancedPlanner {
    fn default() -> Self {
        Self::paper()
    }
}

impl Planner for BalancedPlanner {
    fn name(&self) -> &str {
        "balanced"
    }

    fn plan(
        &self,
        platform: &Platform,
        _service: &ServiceSpec,
        _demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        if self.mid_agents == 0 {
            return Err(PlannerError::InvalidConfig(
                "balanced planner needs at least one middle agent".into(),
            ));
        }
        let needed = 1 + 2 * self.mid_agents;
        if platform.node_count() < needed {
            return Err(PlannerError::NotEnoughNodes {
                needed,
                available: platform.node_count(),
            });
        }
        Ok(builder::balanced_two_level(
            &platform.ids_by_power_desc(),
            self.mid_agents,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_platform::generator::{lyon_cluster, uniform_random_cluster};
    use adept_platform::MflopRate;
    use adept_workload::Dgemm;

    #[test]
    fn star_planner_uses_strongest_as_agent() {
        let platform = uniform_random_cluster("u", 10, MflopRate(100.0), MflopRate(900.0), 5);
        let plan = StarPlanner
            .plan(
                &platform,
                &Dgemm::new(100).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        let root_power = platform.power(plan.node(plan.root()));
        for w in platform.powers() {
            assert!(w.value() <= root_power.value() + 1e-9);
        }
        assert_eq!(plan.server_count(), 9);
    }

    #[test]
    fn star_planner_needs_two_nodes() {
        let platform = lyon_cluster(1);
        assert_eq!(
            StarPlanner
                .plan(
                    &platform,
                    &Dgemm::new(10).service(),
                    ClientDemand::Unbounded
                )
                .unwrap_err(),
            PlannerError::NotEnoughNodes {
                needed: 2,
                available: 1
            }
        );
    }

    #[test]
    fn balanced_planner_paper_shape_on_200_nodes() {
        let platform = lyon_cluster(200);
        let plan = BalancedPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(310).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 15);
        assert_eq!(plan.server_count(), 185);
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.degree(plan.root()), 14);
    }

    #[test]
    fn balanced_planner_rejects_small_platforms() {
        let platform = lyon_cluster(10);
        assert!(matches!(
            BalancedPlanner::paper().plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded
            ),
            Err(PlannerError::NotEnoughNodes { needed: 29, .. })
        ));
    }

    #[test]
    fn balanced_planner_rejects_zero_agents() {
        let platform = lyon_cluster(10);
        assert!(matches!(
            BalancedPlanner { mid_agents: 0 }.plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded
            ),
            Err(PlannerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn planner_names() {
        assert_eq!(StarPlanner.name(), "star");
        assert_eq!(BalancedPlanner::paper().name(), "balanced");
    }
}
