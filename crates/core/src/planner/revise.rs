//! The unified revision entry point.
//!
//! Two code paths revise a *running* deployment: the budgeted online
//! replanner, whose single-service round is a one-service mix round,
//! and the improver's unbounded-disruption rebalance. The online
//! replanner's grow / reassign / convert-grow / shrink probe loop lives
//! here (the crate-private `drive` function over the `ReviseOps` move
//! trait), and the public [`Revise`] trait gives callers — most
//! importantly the autonomic controller in `adept-control` — one entry
//! point to swap revision backends behind:
//!
//! * [`OnlinePlanner`](super::OnlinePlanner) — incremental revision
//!   under a disruption budget (the default for live traffic);
//! * [`Rebalancer`] — the improver's revision path: maximal model
//!   quality, no disruption bound (maintenance windows, cold restarts).

use super::improve;
use super::online::{MixReplan, Replan, WarmCache};
use super::{MixPlanner, PlannerError};
use crate::model::mix::ServerAssignment;
use crate::model::ModelParams;
use adept_hierarchy::{DeploymentPlan, PlanDiff, PlanError};
use adept_platform::{NodeId, Platform};
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
/// changed) demand and reports the transition as a [`PlanDiff`]-carrying
/// result. The autonomic control loop is generic over this trait.
pub trait Revise {
    /// Short name for reports ("online", "rebalance", ...).
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

    /// [`revise_mix`](Revise::revise_mix) with engine-state reuse: a
    /// backend that can seed its search from state cached in `warm`
    /// (see [`WarmCache`]) overrides this to skip rebuilding its
    /// evaluation from scratch on steady-state rounds. The contract is
    /// strict: the answer must be **bit-identical** to
    /// [`revise_mix`](Revise::revise_mix) on the same inputs — warm
    /// state accelerates the search, never changes it. The default
    /// implementation invalidates `warm` and delegates cold, so
    /// backends without reusable state (e.g. [`Rebalancer`]) stay
    /// correct for free.
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
    ) -> Result<MixReplan, ReviseError> {
        warm.invalidate();
        self.revise_mix(platform, running, mix, assignment, demand)
    }
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

/// The improver's revision path behind the [`Revise`] entry point:
/// single-service revision runs the iterative bottleneck-removal pass
/// ([`improve::rebalance`]), mix revision re-plans jointly from scratch
/// with the [`MixPlanner`]. Both optimize with **no disruption bound** —
/// the diff may rewire the whole tree — which is the right trade in a
/// maintenance window and the wrong one under live traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalancer {
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
}

impl Revise for Rebalancer {
    fn name(&self) -> &str {
        "rebalance"
    }

    fn revise(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<Replan, ReviseError> {
        let params = super::resolve_params(self.params, platform);
        let plan = improve::rebalance(&params, platform, running, service, demand);
        let rho = params.evaluate(platform, &plan, service).rho;
        Ok(Replan {
            diff: PlanDiff::between(running, &plan),
            plan,
            rho,
        })
    }

    fn revise_mix(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
    ) -> Result<MixReplan, ReviseError> {
        let planner = MixPlanner {
            params: self.params,
            ..MixPlanner::default()
        };
        let got = planner.plan_mix(platform, mix, demand)?;
        // A live deployment cannot hot-swap its master agent, but the
        // from-scratch planner roots wherever it likes (e.g. after a
        // deploy-time spare substituted the root). Re-root the revised
        // plan on the running root — swapping the two node ids — so the
        // diff stays compilable into a migration script.
        let run_root = running.node(running.root());
        let new_root = got.plan.node(got.plan.root());
        let (plan, assignment_new, report) = if new_root == run_root {
            (got.plan, got.assignment, got.report)
        } else {
            let plan = swap_nodes(&got.plan, new_root, run_root);
            let mut assignment_new = got.assignment;
            // If the running root served somewhere in the revised plan,
            // the displaced planner-root takes that position over.
            if let Some(service) = assignment_new.service_of.remove(&run_root) {
                assignment_new.service_of.insert(new_root, service);
            }
            let params = super::resolve_params(self.params, platform);
            let report =
                crate::model::mix::evaluate_mix(&params, platform, &plan, mix, &assignment_new)?;
            (plan, assignment_new, report)
        };
        // Servers present in both deployments whose hosted service
        // changed are reinstalls, like the online path's reassignments.
        let reassigned: Vec<(NodeId, usize, usize)> = assignment_new
            .service_of
            .iter()
            .filter_map(|(&node, &to)| {
                assignment
                    .service(node)
                    .filter(|&from| from != to)
                    .map(|from| (node, from, to))
            })
            .collect();
        Ok(MixReplan {
            diff: PlanDiff::between(running, &plan),
            plan,
            assignment: assignment_new,
            reassigned,
            report,
        })
    }
}

/// Rebuilds `plan` with the platform nodes `a` and `b` exchanged. When
/// `b` is not in the plan, `a` is simply replaced by `b`.
fn swap_nodes(plan: &DeploymentPlan, a: NodeId, b: NodeId) -> DeploymentPlan {
    let swap = |n: NodeId| {
        if n == a {
            b
        } else if n == b {
            a
        } else {
            n
        }
    };
    let mut rebuilt = DeploymentPlan::with_root(swap(plan.node(plan.root())));
    let mut map = std::collections::HashMap::new();
    map.insert(plan.root(), rebuilt.root());
    for s in plan.bfs_order().into_iter().skip(1) {
        // audit: allow(unwrap, "plan-surgery invariant documented in the
        // expect message; the revision parity tests exercise this path")
        let parent = map[&plan.parent(s).expect("non-root has a parent")];
        let node = swap(plan.node(s));
        let slot = match plan.role(s) {
            adept_hierarchy::Role::Agent => rebuilt
                .add_agent(parent, node)
                // audit: allow(unwrap, "plan-surgery invariant documented in
                // the expect message; the revision parity tests exercise this
                // path")
                .expect("swapping two ids preserves uniqueness"),
            adept_hierarchy::Role::Server => rebuilt
                .add_server(parent, node)
                // audit: allow(unwrap, "plan-surgery invariant documented in
                // the expect message; the revision parity tests exercise this
                // path")
                .expect("swapping two ids preserves uniqueness"),
        };
        map.insert(s, slot);
    }
    rebuilt
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
    fn rebalancer_revision_diff_is_executable() {
        // The improver path reports an unbounded diff; applying it to
        // the running plan must reconstruct the revised plan exactly
        // (the diff is the migration artifact).
        let platform = lyon_cluster(40);
        let svc = Dgemm::new(310).service();
        let running = crate::planner::StarPlanner
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let revised = Rebalancer::default()
            .revise(&platform, &running, &svc, ClientDemand::Unbounded)
            .unwrap();
        let before = ModelParams::from_platform(&platform)
            .evaluate(&platform, &running, &svc)
            .rho;
        assert!(revised.rho > before, "rebalance must improve the star");
        let patched = revised.diff.apply(&running).unwrap();
        assert!(patched.structurally_eq(&revised.plan));
    }

    #[test]
    fn rebalancer_mix_revision_reports_reinstalls() {
        let platform = lyon_cluster(24);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let planner = MixPlanner::default();
        let got = planner
            .plan_mix(&platform, &mix, &MixDemand::targets(vec![2.0, 0.2]))
            .unwrap();
        // Demand flips: the from-scratch reviser re-plans and any server
        // kept on both plans but switching service shows as a reinstall.
        let demand = MixDemand::targets(vec![0.2, 0.4]);
        let revised = Rebalancer::default()
            .revise_mix(&platform, &got.plan, &mix, &got.assignment, &demand)
            .unwrap();
        let rates = revised.report.rho_service.clone();
        assert!(demand.satisfied_by(revised.report.rho_sched, &rates));
        for &(node, from, to) in &revised.reassigned {
            assert_eq!(got.assignment.service(node), Some(from));
            assert_eq!(revised.assignment.service(node), Some(to));
            assert_ne!(from, to);
        }
    }

    #[test]
    fn rebalancer_mix_revision_keeps_the_running_root() {
        // The running deployment is rooted on a node the from-scratch
        // planner would never pick (e.g. a spare that substituted a
        // failed root at deploy time). The revised plan must stay
        // rooted there — a live migration cannot hot-swap the master
        // agent — and its diff must compile into a migration script.
        let platform = lyon_cluster(20);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let mut running = DeploymentPlan::with_root(adept_platform::NodeId(5));
        let mut asg = ServerAssignment::default();
        for (i, node) in [0u32, 1, 2].into_iter().enumerate() {
            let id = adept_platform::NodeId(node);
            running.add_server(running.root(), id).unwrap();
            asg.service_of.insert(id, i % 2);
        }
        let demand = MixDemand::targets(vec![1.0, 0.4]);
        let revised = Rebalancer::default()
            .revise_mix(&platform, &running, &mix, &asg, &demand)
            .unwrap();
        assert_eq!(
            revised.plan.node(revised.plan.root()),
            adept_platform::NodeId(5),
            "the master agent stays in place"
        );
        adept_godiet_compile_check(&running, &revised.plan);
        let rates = revised.report.rho_service.clone();
        assert!(demand.satisfied_by(revised.report.rho_sched, &rates));
    }

    /// The compile rule the controller relies on, restated locally (the
    /// core crate does not depend on godiet): the revised plan keeps
    /// the running root, so the transition contains no root change.
    fn adept_godiet_compile_check(running: &DeploymentPlan, revised: &DeploymentPlan) {
        assert_eq!(
            running.node(running.root()),
            revised.node(revised.root()),
            "root changes are not migratable"
        );
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
