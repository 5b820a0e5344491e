//! Deployment planners.
//!
//! * [`HeuristicPlanner`] — the paper's contribution (Section 4,
//!   Algorithm 1): greedy construction from nodes sorted by scheduling
//!   power, with server→agent conversion (`shift_nodes`). Its growth
//!   loop is [`MixPlanner`]'s, run on a one-service mix; that loop and
//!   the [`improve`] pass probe moves as O(log n) deltas on the
//!   incremental engine; clone-and-full-evaluate versions of both exist
//!   only as the references of their parity tests.
//! * [`HomogeneousCsdPlanner`] — the authors' prior work \[10\]: the
//!   optimal **complete spanning d-ary tree** for homogeneous clusters,
//!   degree chosen under the model (Table 4's "Homo. Deg." column).
//! * [`SweepPlanner`] — a model-guided search over (agent count, server
//!   count) with balanced degree distribution; the strongest reference we
//!   can compute in polynomial time, used as Table 4's "optimal". Its
//!   mix-aware form ([`SweepPlanner::best_mix_plan`], module
//!   [`sweep_mix`]) sweeps agent count × per-service server-count
//!   compositions and is the quality bar [`MixPlanner`] is judged by.
//! * [`StarPlanner`] and [`BalancedPlanner`] — the intuitive comparators of
//!   Section 5.3 (Figures 6–7).
//! * [`improve`] — the iterative bottleneck-removal pass of the authors'
//!   earlier work \[7\], usable as a repair step after any planner.
//! * [`MixPlanner`] — multi-service extension: one growth loop planning
//!   tree and server→service partition jointly on the batched
//!   incremental evaluator.
//! * [`OnlinePlanner`] — bounded-disruption revision of a running plan
//!   for per-service demand vectors ([`OnlinePlanner::replan_mix`]);
//!   single-service revision ([`OnlinePlanner::replan`]) runs the same
//!   round on a one-service mix.
//! * [`revise`] — the unified revision entry point: the [`Revise`]
//!   trait over which the autonomic control loop is generic, with the
//!   budgeted [`OnlinePlanner`] as its backend, and the
//!   grow/reassign/convert-grow/shrink loop skeleton the online planner
//!   runs on.

pub mod baselines;
pub mod heuristic;
pub mod homogeneous;
pub mod improve;
pub mod mix;
pub mod online;
pub(crate) mod realize;
pub mod revise;
pub mod roundrobin;
pub mod sweep;
pub mod sweep_mix;

pub use baselines::{BalancedPlanner, StarPlanner};
pub use heuristic::HeuristicPlanner;
pub use homogeneous::HomogeneousCsdPlanner;
pub use mix::{MixObjective, MixPlan, MixPlanner};
pub use online::{MixReplan, OnlinePlanner, Replan, WarmCache};
pub use revise::{Revise, ReviseError};
pub use roundrobin::RoundRobinPlanner;
pub use sweep::SweepPlanner;
pub use sweep_mix::{for_each_composition, SweepStats};

use crate::model::ModelParams;
use adept_hierarchy::DeploymentPlan;
use adept_platform::Platform;
use adept_workload::{ClientDemand, MixDemand, ServiceSpec};
use std::fmt;

/// Errors raised by planners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// The platform does not hold enough nodes for this planner.
    NotEnoughNodes {
        /// Minimum nodes the planner needs.
        needed: usize,
        /// Nodes available on the platform.
        available: usize,
    },
    /// A planner-specific configuration problem.
    InvalidConfig(String),
    /// A plan-level error surfaced through a planner (e.g. a plan and
    /// server assignment the incremental engine cannot load).
    Plan(adept_hierarchy::PlanError),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::NotEnoughNodes { needed, available } => write!(
                f,
                "not enough nodes: planner needs {needed}, platform has {available}"
            ),
            PlannerError::InvalidConfig(msg) => write!(f, "invalid planner config: {msg}"),
            PlannerError::Plan(e) => write!(f, "planner hit a plan error: {e}"),
        }
    }
}

impl std::error::Error for PlannerError {}

impl From<adept_hierarchy::PlanError> for PlannerError {
    fn from(e: adept_hierarchy::PlanError) -> Self {
        PlannerError::Plan(e)
    }
}

/// A deployment planner: maps a platform, a service and a client demand to
/// a hierarchy.
pub trait Planner {
    /// Short name for reports ("heuristic", "star", ...).
    fn name(&self) -> &str;

    /// Produces a deployment plan.
    ///
    /// # Errors
    /// [`PlannerError`] when the platform is too small or the planner is
    /// misconfigured.
    fn plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError>;
}

/// Relative tolerance of the planners' strict-improvement tests: a move
/// is taken only when it beats the incumbent by more than this share,
/// which keeps a greedy from cycling on floating-point noise.
pub(crate) const EPS: f64 = 1e-9;

/// Resolves the model parameters a planner should use: an explicit override
/// or the platform's own network description with the default calibration.
pub(crate) fn resolve_params(overridden: Option<ModelParams>, platform: &Platform) -> ModelParams {
    overridden.unwrap_or_else(|| ModelParams::from_platform(platform))
}

/// The one-service [`MixDemand`] of a [`ClientDemand`]: `Target(0.0)` is
/// met by any deployment and `Target(∞)` is unbounded.
///
/// # Errors
/// [`PlannerError::InvalidConfig`] for a NaN or negative target rate.
pub(crate) fn single_demand(demand: ClientDemand) -> Result<MixDemand, PlannerError> {
    MixDemand::try_targets(vec![demand.rate()])
        .map_err(|e| PlannerError::InvalidConfig(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = PlannerError::NotEnoughNodes {
            needed: 2,
            available: 1,
        };
        assert!(e.to_string().contains("needs 2"));
        assert!(PlannerError::InvalidConfig("x".into())
            .to_string()
            .contains("invalid planner config"));
    }

    #[test]
    fn malformed_client_demand_is_a_typed_error() {
        use adept_platform::generator::lyon_cluster;
        use adept_workload::Dgemm;
        let platform = lyon_cluster(20);
        let svc = Dgemm::new(1000).service();
        let running = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        for rate in [f64::NAN, -1.0] {
            let demand = ClientDemand::Target(rate);
            assert!(
                matches!(
                    HeuristicPlanner::paper().plan(&platform, &svc, demand),
                    Err(PlannerError::InvalidConfig(_))
                ),
                "heuristic, target {rate}"
            );
            assert!(
                matches!(
                    OnlinePlanner::default().revise(&platform, &running, &svc, demand),
                    Err(ReviseError::Planner(PlannerError::InvalidConfig(_)))
                ),
                "online, target {rate}"
            );
        }
        // A zero target is met by any deployment: the heuristic stops at
        // the seed pair and the reviser only shrinks.
        let zero = ClientDemand::Target(0.0);
        let seed = HeuristicPlanner::paper()
            .plan(&platform, &svc, zero)
            .unwrap();
        assert_eq!((seed.agent_count(), seed.server_count()), (1, 1));
        let shrunk = OnlinePlanner::default()
            .revise(&platform, &running, &svc, zero)
            .unwrap();
        assert!(shrunk.plan.server_count() < running.server_count());
        // An infinite target is unbounded.
        let unbounded = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Target(f64::INFINITY))
            .unwrap();
        assert!(unbounded.structurally_eq(&running));
    }
}
