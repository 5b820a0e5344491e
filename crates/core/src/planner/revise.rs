//! The unified revision entry point.
//!
//! The budgeted online replanner revises a *running* deployment; its
//! single-service round is a one-service mix round. Its grow / reassign
//! / convert-grow / shrink probe loop lives here (the crate-private
//! `drive` function over the `ReviseOps` move trait), and the public
//! [`Revise`] trait gives callers — most importantly the autonomic
//! controller in `adept-control` — one entry point to the revision
//! backend: [`OnlinePlanner`](super::OnlinePlanner), incremental
//! revision under a disruption budget. The controller holds a
//! `Box<dyn Revise>`, so a caller can wrap the planner (to time it,
//! say) without the controller knowing.

use super::online::{MixReplan, Replan, WarmCache};
use super::PlannerError;
use crate::model::mix::ServerAssignment;
use adept_hierarchy::{DeploymentPlan, PlanError};
use adept_platform::Platform;
use adept_workload::{ClientDemand, MixDemand, ServiceMix, ServiceSpec};
use std::fmt;

/// The candidate moves of one revision round. Implementations probe the
/// move against their evaluation state and **commit it on success**,
/// returning the number of node-level changes spent; `None` means the
/// move does not help (or is not applicable) and nothing changed.
pub(crate) trait ReviseOps {
    /// True when the current deployment satisfies the demand.
    fn met(&self) -> bool;
    /// Attach one fresh node as a server (1 change).
    fn grow(&mut self) -> Option<usize>;
    /// Reinstall a server for another service (1 change, tree
    /// untouched). Only meaningful for multi-service revision.
    fn reassign(&mut self) -> Option<usize> {
        None
    }
    /// Promote a server to an agent and attach a fresh node under it
    /// (2 changes).
    fn convert_grow(&mut self) -> Option<usize>;
    /// Retire a server the demand does not need (1 change).
    fn shrink(&mut self) -> Option<usize>;
}

/// The shared revision skeleton: while the demand is unmet, growth moves
/// in escalating disruption order (grow, reassign, convert-grow); once
/// met, shrink moves release machines — all within `budget` node-level
/// changes. Stops early when no move helps.
pub(crate) fn drive(ops: &mut impl ReviseOps, budget: usize) {
    let mut left = budget;
    while left > 0 {
        if !ops.met() {
            if let Some(spent) = ops.grow() {
                left = left.saturating_sub(spent);
                continue;
            }
            if let Some(spent) = ops.reassign() {
                left = left.saturating_sub(spent);
                continue;
            }
            if left >= 2 {
                if let Some(spent) = ops.convert_grow() {
                    left = left.saturating_sub(spent);
                    continue;
                }
            }
            break; // no growth move helps
        } else {
            match ops.shrink() {
                Some(spent) => left = left.saturating_sub(spent),
                None => break, // every remaining server is needed
            }
        }
    }
}

/// Errors raised by a revision backend.
#[derive(Debug, Clone, PartialEq)]
pub enum ReviseError {
    /// The running state is inconsistent (stale assignment, bad slot).
    Plan(PlanError),
    /// A from-scratch backend could not plan at all.
    Planner(PlannerError),
}

impl fmt::Display for ReviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReviseError::Plan(e) => write!(f, "revision failed: {e}"),
            ReviseError::Planner(e) => write!(f, "revision failed: {e}"),
        }
    }
}

impl std::error::Error for ReviseError {}

impl From<PlanError> for ReviseError {
    fn from(e: PlanError) -> Self {
        ReviseError::Plan(e)
    }
}

impl From<PlannerError> for ReviseError {
    fn from(e: PlannerError) -> Self {
        ReviseError::Planner(e)
    }
}

/// A revision backend: revises a running deployment toward a (possibly
/// changed) demand and reports the transition as a
/// [`PlanDiff`](adept_hierarchy::PlanDiff)-carrying result. The
/// autonomic control loop is generic over this trait.
pub trait Revise {
    /// Short name for reports ("online", ...).
    fn name(&self) -> &str;

    /// Revises a running single-service deployment.
    ///
    /// # Errors
    /// [`ReviseError`] when the backend cannot produce a plan.
    fn revise(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<Replan, ReviseError>;

    /// Revises a running multi-service deployment for a per-service
    /// demand vector.
    ///
    /// # Errors
    /// [`ReviseError`] when the running state is inconsistent or the
    /// backend cannot produce a plan.
    fn revise_mix(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
    ) -> Result<MixReplan, ReviseError>;

    /// [`revise_mix`](Revise::revise_mix) with engine-state reuse: the
    /// backend seeds its search from state cached in `warm` (see
    /// [`WarmCache`]) instead of rebuilding its evaluation from scratch
    /// on steady-state rounds. The contract is strict: the answer must
    /// be **bit-identical** to [`revise_mix`](Revise::revise_mix) on the
    /// same inputs — warm state accelerates the search, never changes
    /// it.
    ///
    /// The *caller* owns invalidation: any mutation of the running
    /// plan, mix, or assignment outside this method must be followed by
    /// [`WarmCache::invalidate`].
    ///
    /// # Errors
    /// [`ReviseError`] when the running state is inconsistent or the
    /// backend cannot produce a plan.
    fn revise_mix_warm(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
        warm: &mut WarmCache,
    ) -> Result<MixReplan, ReviseError>;
}

impl Revise for super::OnlinePlanner {
    fn name(&self) -> &str {
        "online"
    }

    fn revise(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<Replan, ReviseError> {
        // Validated first, so `replan` cannot panic on the demand.
        super::single_demand(demand)?;
        Ok(self.replan(platform, running, service, demand))
    }

    fn revise_mix(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
    ) -> Result<MixReplan, ReviseError> {
        Ok(self.replan_mix(platform, running, mix, assignment, demand)?)
    }

    fn revise_mix_warm(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
        warm: &mut WarmCache,
    ) -> Result<MixReplan, ReviseError> {
        Ok(self.replan_mix_warm(platform, running, mix, assignment, demand, warm)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{HeuristicPlanner, OnlinePlanner, Planner};
    use adept_platform::generator::lyon_cluster;
    use adept_workload::Dgemm;

    /// A scripted ops fake: records the call sequence, succeeds when the
    /// script says so.
    struct Scripted {
        met: Vec<bool>,
        grow_ok: usize,
        convert_ok: usize,
        shrink_ok: usize,
        calls: Vec<&'static str>,
        step: usize,
    }

    impl ReviseOps for Scripted {
        fn met(&self) -> bool {
            self.met[self.step.min(self.met.len() - 1)]
        }
        fn grow(&mut self) -> Option<usize> {
            self.calls.push("grow");
            if self.grow_ok > 0 {
                self.grow_ok -= 1;
                self.step += 1;
                Some(1)
            } else {
                None
            }
        }
        fn convert_grow(&mut self) -> Option<usize> {
            self.calls.push("convert");
            if self.convert_ok > 0 {
                self.convert_ok -= 1;
                self.step += 1;
                Some(2)
            } else {
                None
            }
        }
        fn shrink(&mut self) -> Option<usize> {
            self.calls.push("shrink");
            if self.shrink_ok > 0 {
                self.shrink_ok -= 1;
                self.step += 1;
                Some(1)
            } else {
                None
            }
        }
    }

    #[test]
    fn drive_escalates_grow_then_convert_and_respects_the_budget() {
        let mut ops = Scripted {
            met: vec![false],
            grow_ok: 1,
            convert_ok: 5,
            shrink_ok: 0,
            calls: Vec::new(),
            step: 0,
        };
        // Budget 4: grow (1) + convert (2) + convert blocked (needs 2,
        // 1 left) -> loop ends without calling convert again.
        drive(&mut ops, 4);
        assert_eq!(ops.calls, vec!["grow", "grow", "convert", "grow"]);
    }

    #[test]
    fn drive_shrinks_only_while_met_and_stops_on_stall() {
        let mut ops = Scripted {
            met: vec![true],
            grow_ok: 0,
            convert_ok: 0,
            shrink_ok: 2,
            calls: Vec::new(),
            step: 0,
        };
        drive(&mut ops, 10);
        assert_eq!(ops.calls, vec!["shrink", "shrink", "shrink"]);
    }

    #[test]
    fn online_planner_behind_the_trait_matches_direct_calls() {
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let running = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::target(1.0))
            .unwrap();
        let planner = OnlinePlanner::default();
        let direct = planner.replan(&platform, &running, &svc, ClientDemand::target(3.0));
        let via: &dyn Revise = &planner;
        assert_eq!(via.name(), "online");
        let traited = via
            .revise(&platform, &running, &svc, ClientDemand::target(3.0))
            .unwrap();
        assert!(traited.plan.structurally_eq(&direct.plan));
        assert_eq!(traited.diff, direct.diff);
    }

    #[test]
    fn revise_error_display_and_conversion() {
        let e: ReviseError = PlanError::CannotRemoveRoot.into();
        assert!(e.to_string().contains("revision failed"));
        let e: ReviseError = PlannerError::NotEnoughNodes {
            needed: 3,
            available: 1,
        }
        .into();
        assert!(e.to_string().contains("not enough nodes"));
    }
}
