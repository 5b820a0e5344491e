//! Deployment planners.
//!
//! * [`HeuristicPlanner`] — the paper's contribution (Section 4,
//!   Algorithm 1): greedy construction from nodes sorted by scheduling
//!   power, with server→agent conversion (`shift_nodes`).
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
//!   budgeted [`OnlinePlanner`] and the unbounded [`Rebalancer`] as
//!   backends, and the grow/reassign/convert-grow/shrink loop skeleton
//!   the online planner runs on.

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
pub use revise::{Rebalancer, Revise, ReviseError};
pub use roundrobin::RoundRobinPlanner;
pub use sweep::SweepPlanner;
pub use sweep_mix::{for_each_composition, SweepStats};

use crate::model::ModelParams;
use adept_hierarchy::DeploymentPlan;
use adept_platform::Platform;
use adept_workload::{ClientDemand, ServiceSpec};
use std::fmt;

/// How the [`HeuristicPlanner`] growth loop and the [`improve`] pass
/// evaluate candidate moves.
///
/// The default, [`EvalStrategy::Incremental`], probes each move through
/// [`IncrementalEval`](crate::model::IncrementalEval) — an O(log n)
/// delta-apply, read `ρ`, undo. [`EvalStrategy::FullClone`] keeps the
/// original clone-the-plan-and-re-run-Eq.-16 probes; it exists as an
/// ablation baseline so benchmarks (`planner_scaling`'s `eval_strategy`
/// group) measure the speedup instead of asserting it. Both strategies
/// commit the same moves, so the produced plans' throughputs agree to
/// float-associativity (≤ 1e-9 relative). [`OnlinePlanner`] always
/// probes incrementally; its clone-and-full-evaluate counterpart is a
/// reference inside its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// O(log n) delta + undo probes on the incremental engine (default).
    #[default]
    Incremental,
    /// O(n) clone + full Eq. 13–16 re-evaluation per probe (ablation).
    FullClone,
}

impl EvalStrategy {
    /// Short label for bench ids and reports.
    pub fn label(self) -> &'static str {
        match self {
            EvalStrategy::Incremental => "incremental",
            EvalStrategy::FullClone => "full-clone",
        }
    }
}

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
    /// A plan-level error surfaced through a planner (e.g. a
    /// [`SweepPlanner::max_agents`](sweep::SweepPlanner::max_agents) cap
    /// leaving no server: [`adept_hierarchy::PlanError::NotEnoughServers`]).
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

/// Resolves the model parameters a planner should use: an explicit override
/// or the platform's own network description with the default calibration.
pub(crate) fn resolve_params(overridden: Option<ModelParams>, platform: &Platform) -> ModelParams {
    overridden.unwrap_or_else(|| ModelParams::from_platform(platform))
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
}
