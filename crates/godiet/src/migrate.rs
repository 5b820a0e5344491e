//! Incremental migration of a *running* deployment.
//!
//! Full redeployment kills every element and relaunches the tree; a
//! replanning round that adds two servers must not pay that. This module
//! compiles the structural difference between the running plan and a
//! revised plan into an ordered [`MigrationScript`] — the first-class
//! migration artifact — which [`GoDiet`] then executes
//! stage by stage against the running deployment, with the same failure
//! injection and spare-node substitution as a full launch.
//!
//! Ordering rules (verified by [`MigrationScript::verify`]):
//!
//! 1. **Build-up phase** — launches of new elements, promote-restarts
//!    (server → agent) and re-attachments, staged by depth in the *new*
//!    plan: a parent is always running in its new role before a child
//!    registers with it (the launch-stage rule of
//!    [`launch_stages`](crate::launch::launch_stages), applied to the
//!    changed subset).
//! 2. **Tear-down phase** — stops of leaving elements, deepest first
//!    (children before parents), after every surviving child has been
//!    re-attached elsewhere.
//! 3. **Demotion phase** — restarts of agents returning to server duty,
//!    last, deepest (old-plan) first: an agent can only step down once
//!    all of its former children are gone, and a chain of nested
//!    demoting agents unwinds child-before-parent.

// audit: allow-file(unwrap, "the migration verifier checks every action against the
// target plan before apply; each expect documents a verified invariant")
use crate::deploy::{DeployError, GoDiet, LAUNCH_LATENCY};
use adept_hierarchy::{DeploymentPlan, NodeChange, PlanDiff, Role, Slot};
use adept_platform::{NodeId, Platform, Seconds};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One step of a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationAction {
    /// Start a new element on `node`, registering with `parent`.
    Launch {
        /// Platform node joining the deployment.
        node: NodeId,
        /// Role it comes up in.
        role: Role,
        /// Parent node it registers with.
        parent: NodeId,
    },
    /// Stop the element on `node`; the machine leaves the deployment.
    Stop {
        /// Node leaving.
        node: NodeId,
        /// Role it had.
        role: Role,
    },
    /// Stop and relaunch the element on `node` in a new role (a rerole
    /// is a reinstall: a SeD cannot become an agent in place).
    Restart {
        /// Node changing role.
        node: NodeId,
        /// Role before.
        from: Role,
        /// Role after.
        to: Role,
        /// Parent it re-registers with.
        parent: NodeId,
    },
    /// Re-register the running element on `node` with a new parent
    /// (control-plane message; the element itself keeps running).
    Reattach {
        /// Node whose parent changes.
        node: NodeId,
        /// The new parent node.
        new_parent: NodeId,
    },
}

impl MigrationAction {
    /// The node the action operates on.
    pub fn node(&self) -> NodeId {
        match *self {
            MigrationAction::Launch { node, .. }
            | MigrationAction::Stop { node, .. }
            | MigrationAction::Restart { node, .. }
            | MigrationAction::Reattach { node, .. } => node,
        }
    }
}

impl fmt::Display for MigrationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MigrationAction::Launch { node, role, parent } => {
                write!(f, "launch {role} on {node} under {parent}")
            }
            MigrationAction::Stop { node, role } => write!(f, "stop {role} on {node}"),
            MigrationAction::Restart {
                node,
                from,
                to,
                parent,
            } => write!(f, "restart {node} as {to} (was {from}) under {parent}"),
            MigrationAction::Reattach { node, new_parent } => {
                write!(f, "reattach {node} under {new_parent}")
            }
        }
    }
}

/// An ordered, executable migration: the compiled form of a
/// [`PlanDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationScript {
    /// Actions per stage; stages run sequentially, actions within a
    /// stage concurrently.
    pub stages: Vec<Vec<MigrationAction>>,
    /// The plan the migration converges to (before any mid-migration
    /// spare substitution).
    pub target: DeploymentPlan,
}

impl MigrationScript {
    /// Compiles the transition from `running` to `target` into ordered
    /// stages.
    ///
    /// # Errors
    /// [`DeployError::ScriptUncompilable`] when the transition replaces
    /// or re-roles the root: a live deployment cannot hot-swap its
    /// master agent — that is a full redeployment, not a migration.
    pub fn compile(running: &DeploymentPlan, target: &DeploymentPlan) -> Result<Self, DeployError> {
        let diff = PlanDiff::between(running, target);
        let old_root = running.node(running.root());
        let new_root = target.node(target.root());
        if old_root != new_root {
            return Err(DeployError::ScriptUncompilable(format!(
                "root changes {old_root} -> {new_root}; migrate cannot hot-swap the master agent"
            )));
        }
        let new_slot: HashMap<NodeId, Slot> = target.slots().map(|s| (target.node(s), s)).collect();
        let old_slot: HashMap<NodeId, Slot> =
            running.slots().map(|s| (running.node(s), s)).collect();

        // Build-up actions bucketed by depth in the new plan; stops and
        // demotions by depth in the old plan (they unwind what exists).
        let mut up: BTreeMap<usize, Vec<MigrationAction>> = BTreeMap::new();
        let mut stops: BTreeMap<usize, Vec<MigrationAction>> = BTreeMap::new();
        let mut demotions: BTreeMap<usize, Vec<MigrationAction>> = BTreeMap::new();
        for (&node, change) in &diff.changes {
            match *change {
                NodeChange::Added { role, parent } => {
                    let parent = parent.expect("non-root additions carry a parent");
                    let depth = target.level(new_slot[&node]);
                    up.entry(depth).or_default().push(MigrationAction::Launch {
                        node,
                        role,
                        parent,
                    });
                }
                NodeChange::Removed { role } => {
                    let depth = running.level(old_slot[&node]);
                    stops
                        .entry(depth)
                        .or_default()
                        .push(MigrationAction::Stop { node, role });
                }
                NodeChange::Rerole { from, to, parent } => {
                    let parent = parent.expect("the root never re-roles (checked above)");
                    let action = MigrationAction::Restart {
                        node,
                        from,
                        to,
                        parent,
                    };
                    match to {
                        // Promotions join the build-up, staged by their
                        // depth in the new plan like fresh launches.
                        Role::Agent => {
                            let depth = target.level(new_slot[&node]);
                            up.entry(depth).or_default().push(action);
                        }
                        // Demotions are staged by OLD-plan depth so a
                        // chain of nested demoting agents steps down
                        // child-before-parent (deepest first), exactly
                        // like the stop ordering.
                        Role::Server => {
                            let depth = running.level(old_slot[&node]);
                            demotions.entry(depth).or_default().push(action);
                        }
                    }
                }
                NodeChange::Reparented { to, .. } => {
                    let new_parent = to.expect("only the root has no parent");
                    let depth = target.level(new_slot[&node]);
                    up.entry(depth)
                        .or_default()
                        .push(MigrationAction::Reattach { node, new_parent });
                }
            }
        }

        let mut stages: Vec<Vec<MigrationAction>> = Vec::new();
        stages.extend(up.into_values());
        // Tear-down: deepest first, so children stop before parents.
        stages.extend(stops.into_values().rev());
        // Demotions likewise unwind deepest first: a nested demoting
        // agent steps down before the former parent it hung under.
        stages.extend(demotions.into_values().rev());
        Ok(Self {
            stages,
            target: target.clone(),
        })
    }

    /// Total number of actions.
    pub fn len(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// True when the script does nothing (plans already agree).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Dry-runs the script against `running` and checks every ordering
    /// invariant: an element only ever registers with a parent that is
    /// up *as an agent* at that stage, agents only stop or step down
    /// once childless, and the final state equals the target plan.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn verify(&self, running: &DeploymentPlan) -> Result<(), String> {
        // node -> (role, parent) of the live state.
        let mut state: BTreeMap<NodeId, (Role, Option<NodeId>)> = running
            .slots()
            .map(|s| {
                (
                    running.node(s),
                    (running.role(s), running.parent(s).map(|p| running.node(p))),
                )
            })
            .collect();
        let attached_children = |state: &BTreeMap<NodeId, (Role, Option<NodeId>)>, node| {
            state
                .values()
                .filter(|&&(_, parent)| parent == Some(node))
                .count()
        };
        for (i, stage) in self.stages.iter().enumerate() {
            // Registration targets are checked against the state at the
            // *start* of the stage: within a stage actions run
            // concurrently, so a parent launched in stage i is only
            // usable from stage i+1 on.
            let at_start = state.clone();
            let up = |parent: NodeId| match at_start.get(&parent) {
                Some(&(Role::Agent, _)) => Ok(()),
                Some(_) => Err(format!("stage {i}: parent {parent} is not an agent")),
                None => Err(format!("stage {i}: parent {parent} is not running")),
            };
            for action in stage {
                match *action {
                    MigrationAction::Launch { node, role, parent } => {
                        up(parent)?;
                        if state.insert(node, (role, Some(parent))).is_some() {
                            return Err(format!("stage {i}: {node} launched twice"));
                        }
                    }
                    MigrationAction::Stop { node, role } => {
                        if attached_children(&at_start, node) > 0 {
                            return Err(format!("stage {i}: stopping {node} orphans children"));
                        }
                        match state.remove(&node) {
                            Some((r, _)) if r == role => {}
                            _ => return Err(format!("stage {i}: {node} is not a running {role}")),
                        }
                    }
                    MigrationAction::Restart {
                        node,
                        from,
                        to,
                        parent,
                    } => {
                        up(parent)?;
                        if to == Role::Server && attached_children(&at_start, node) > 0 {
                            return Err(format!("stage {i}: demoting {node} orphans children"));
                        }
                        match state.get_mut(&node) {
                            Some(entry) if entry.0 == from => *entry = (to, Some(parent)),
                            _ => return Err(format!("stage {i}: {node} is not a running {from}")),
                        }
                    }
                    MigrationAction::Reattach { node, new_parent } => {
                        up(new_parent)?;
                        match state.get_mut(&node) {
                            Some(entry) => entry.1 = Some(new_parent),
                            None => return Err(format!("stage {i}: {node} is not running")),
                        }
                    }
                }
            }
        }
        for s in self.target.slots() {
            let node = self.target.node(s);
            let want = (
                self.target.role(s),
                self.target.parent(s).map(|p| self.target.node(p)),
            );
            match state.remove(&node) {
                Some(got) if got == want => {}
                other => {
                    return Err(format!(
                        "final state of {node} is {other:?}, target wants {want:?}"
                    ))
                }
            }
        }
        if let Some((&node, _)) = state.iter().next() {
            return Err(format!("{node} still running but absent from the target"));
        }
        Ok(())
    }
}

impl fmt::Display for MigrationScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no migration needed");
        }
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "stage {i}:")?;
            for action in stage {
                writeln!(f, "  {action}")?;
            }
        }
        Ok(())
    }
}

/// Outcome of executing a [`MigrationScript`].
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The plan actually running after the migration (differs from the
    /// script's target by any mid-migration spare substitutions).
    pub plan: DeploymentPlan,
    /// Stages executed.
    pub stages: usize,
    /// Launch attempts performed (launches + restarts, incl. failures).
    pub launches: u32,
    /// Failed launch attempts.
    pub failures: u32,
    /// Elements stopped (tear-downs; restarts not counted).
    pub stops: u32,
    /// `(planned_node, spare_node)` substitutions performed when a
    /// launch kept failing mid-migration.
    pub substitutions: Vec<(NodeId, NodeId)>,
    /// Wall-clock migration makespan: stages run sequentially, actions
    /// within a stage concurrently, each launch attempt costing the
    /// launch latency (stops are control-plane messages, free).
    pub makespan: Seconds,
}

impl GoDiet {
    /// Executes a migration script against the running deployment:
    /// launches, restarts and re-attachments stage by stage, with the
    /// same deterministic failure injection, bounded retries, and
    /// spare-node substitution as a full [`deploy`](GoDiet::deploy).
    /// Spares are platform nodes used by neither the running plan nor
    /// the target.
    ///
    /// When a planned element keeps failing, a spare substitutes for it
    /// *mid-migration*: later actions that register with the failed
    /// node are transparently redirected to the spare, and the reported
    /// plan reflects the substitution.
    ///
    /// # Errors
    /// [`DeployError::ScriptMismatch`] when a precondition does not
    /// hold against `running` (the script was compiled from another
    /// plan); [`DeployError::LaunchFailed`] when an element exhausts
    /// its retries with no spare left.
    pub fn migrate(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        script: &MigrationScript,
    ) -> Result<MigrationReport, DeployError> {
        script
            .verify(running)
            .map_err(DeployError::ScriptMismatch)?;
        for s in script.target.slots() {
            let node = script.target.node(s);
            if node.index() >= platform.node_count() {
                return Err(DeployError::InvalidPlan(format!(
                    "target node {node} is not on the platform"
                )));
            }
        }
        let mut spares = crate::deploy::Spares::new(platform, |id| {
            running.uses_node(id) || script.target.uses_node(id)
        });

        let mut launches = 0u32;
        let mut failures = 0u32;
        let mut stops = 0u32;
        let mut substitutions: Vec<(NodeId, NodeId)> = Vec::new();
        let mut makespan = 0.0f64;
        // planned node -> node actually hosting it (spare substitution).
        let mut alias: HashMap<NodeId, NodeId> = HashMap::new();

        for stage in &script.stages {
            let mut stage_attempts_max = 0u32;
            for action in stage {
                match *action {
                    MigrationAction::Launch { node, .. }
                    | MigrationAction::Restart { node, .. } => {
                        let slot = script
                            .target
                            .slots()
                            .find(|&s| script.target.node(s) == node)
                            .expect("verify checked the action against the target");
                        let started = self.start_element(
                            slot,
                            node,
                            &mut spares,
                            &mut launches,
                            &mut failures,
                            &mut substitutions,
                        )?;
                        if started.node != node {
                            alias.insert(node, started.node);
                        }
                        stage_attempts_max = stage_attempts_max.max(started.attempts);
                    }
                    MigrationAction::Reattach { .. } => {
                        // Re-registration is one control message; it
                        // occupies the stage but cannot fail.
                        stage_attempts_max = stage_attempts_max.max(1);
                    }
                    MigrationAction::Stop { .. } => {
                        stops += 1;
                    }
                }
            }
            makespan += LAUNCH_LATENCY.value() * f64::from(stage_attempts_max);
        }

        // The running plan converges to the target, with substituted
        // nodes standing in for the elements that kept failing.
        let mut plan = script.target.clone();
        for (&planned, &actual) in &alias {
            let slot = plan
                .slots()
                .find(|&s| plan.node(s) == planned)
                .expect("alias keys are target nodes");
            plan = crate::deploy::substitute(&plan, slot, actual);
        }
        Ok(MigrationReport {
            plan,
            stages: script.stages.len(),
            launches,
            failures,
            stops,
            substitutions,
            makespan: Seconds(makespan),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::builder::{balanced_two_level, star};
    use adept_platform::generator::lyon_cluster;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn empty_migration_for_identical_plans() {
        let p = star(&ids(5));
        let script = MigrationScript::compile(&p, &p.clone()).unwrap();
        assert!(script.is_empty());
        assert_eq!(script.to_string(), "no migration needed");
        let report = GoDiet::default()
            .migrate(&lyon_cluster(6), &p, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&p));
        assert_eq!(report.launches, 0);
        assert_eq!(report.makespan, Seconds(0.0));
    }

    #[test]
    fn growth_migration_launches_only_the_new_servers() {
        let old = star(&ids(4));
        let mut new = star(&ids(4));
        new.add_server(new.root(), NodeId(7)).unwrap();
        new.add_server(new.root(), NodeId(8)).unwrap();
        let script = MigrationScript::compile(&old, &new).unwrap();
        assert_eq!(script.len(), 2);
        assert_eq!(script.stages.len(), 1, "same depth: one stage");
        script.verify(&old).unwrap();
        let report = GoDiet::default()
            .migrate(&lyon_cluster(10), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
        assert_eq!(report.launches, 2, "running elements are not relaunched");
        assert_eq!(report.stops, 0);
        // One stage, one attempt: one latency tick — vs 2 for a full
        // redeploy of the two-level tree.
        assert!((report.makespan.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn promote_and_grow_orders_parent_before_child() {
        // Convert server 1 to an agent and hang a fresh server off it —
        // the online replanner's convert-grow move.
        let old = star(&ids(3));
        let mut new = star(&ids(3));
        new.convert_to_agent(Slot(1)).unwrap();
        new.add_server(Slot(1), NodeId(7)).unwrap();
        let script = MigrationScript::compile(&old, &new).unwrap();
        script.verify(&old).unwrap();
        assert_eq!(script.stages.len(), 2);
        assert!(matches!(
            script.stages[0][0],
            MigrationAction::Restart {
                to: Role::Agent,
                ..
            }
        ));
        assert!(matches!(
            script.stages[1][0],
            MigrationAction::Launch { .. }
        ));
        let report = GoDiet::default()
            .migrate(&lyon_cluster(8), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
    }

    #[test]
    fn teardown_stops_children_before_parents_and_demotes_last() {
        // old: root -> a1 -> {s2, s3}; new: root -> s1 (a1 demoted, its
        // children gone).
        let mut old = DeploymentPlan::with_root(NodeId(0));
        let a1 = old.add_agent(old.root(), NodeId(1)).unwrap();
        old.add_server(a1, NodeId(2)).unwrap();
        old.add_server(a1, NodeId(3)).unwrap();
        let mut new = DeploymentPlan::with_root(NodeId(0));
        new.add_server(new.root(), NodeId(1)).unwrap();
        let script = MigrationScript::compile(&old, &new).unwrap();
        script.verify(&old).unwrap();
        // Stops of s2/s3 precede the demotion restart of a1.
        let stop_stage = script
            .stages
            .iter()
            .position(|st| st.iter().any(|a| matches!(a, MigrationAction::Stop { .. })))
            .unwrap();
        let demote_stage = script
            .stages
            .iter()
            .position(|st| {
                st.iter().any(|a| {
                    matches!(
                        a,
                        MigrationAction::Restart {
                            to: Role::Server,
                            ..
                        }
                    )
                })
            })
            .unwrap();
        assert!(stop_stage < demote_stage);
        let report = GoDiet::default()
            .migrate(&lyon_cluster(5), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
        assert_eq!(report.stops, 2);
    }

    #[test]
    fn chained_demotions_unwind_child_before_parent() {
        // old: root(0) -> A(1) -> B(2) -> s(3); new: flat star — both
        // nested agents demote. B must step down before A, so the
        // demotion stages follow OLD-plan depth, deepest first.
        let mut old = DeploymentPlan::with_root(NodeId(0));
        let a = old.add_agent(old.root(), NodeId(1)).unwrap();
        let b = old.add_agent(a, NodeId(2)).unwrap();
        old.add_server(b, NodeId(3)).unwrap();
        let new = star(&ids(4));
        let script = MigrationScript::compile(&old, &new).unwrap();
        script.verify(&old).unwrap();
        let demoted_at = |node: u32| {
            script
                .stages
                .iter()
                .position(|st| {
                    st.iter().any(|act| {
                        matches!(
                            *act,
                            MigrationAction::Restart {
                                node: n,
                                to: Role::Server,
                                ..
                            } if n == NodeId(node)
                        )
                    })
                })
                .expect("both agents demote")
        };
        assert!(demoted_at(2) < demoted_at(1), "B steps down before A");
        let report = GoDiet::default()
            .migrate(&lyon_cluster(5), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
    }

    #[test]
    fn reattach_waits_for_its_new_parent() {
        // s2 moves under a freshly promoted agent: the reattach must
        // come in a later stage than the promotion.
        let old = star(&ids(4));
        let mut new = star(&ids(4));
        new.convert_to_agent(Slot(1)).unwrap();
        new.move_child(Slot(2), Slot(1)).unwrap();
        let script = MigrationScript::compile(&old, &new).unwrap();
        script.verify(&old).unwrap();
        let report = GoDiet::default()
            .migrate(&lyon_cluster(6), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
    }

    #[test]
    fn deep_stop_chain_unwinds_leaf_first() {
        let old = balanced_two_level(&ids(7), 2); // root -> 2 agents -> 4 servers
        let new = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        // Everything except root and node 1 leaves; node 1 (an agent in
        // `old`) demotes to a server.
        let script = MigrationScript::compile(&old, &new).unwrap();
        script.verify(&old).unwrap();
        let report = GoDiet::default()
            .migrate(&lyon_cluster(7), &old, &script)
            .unwrap();
        assert!(report.plan.structurally_eq(&new));
    }

    #[test]
    fn root_replacement_is_uncompilable() {
        let old = star(&ids(3));
        let mut new = DeploymentPlan::with_root(NodeId(9));
        new.add_server(new.root(), NodeId(1)).unwrap();
        let err = MigrationScript::compile(&old, &new).unwrap_err();
        assert!(matches!(err, DeployError::ScriptUncompilable(_)));
        assert!(err.to_string().contains("master agent"));
    }

    #[test]
    fn mismatched_script_is_rejected() {
        let old = star(&ids(4));
        let mut new = star(&ids(4));
        new.add_server(new.root(), NodeId(7)).unwrap();
        let script = MigrationScript::compile(&old, &new).unwrap();
        // Execute against a different running plan: node 7 is already up.
        let err = GoDiet::default()
            .migrate(&lyon_cluster(9), &new, &script)
            .unwrap_err();
        assert!(matches!(err, DeployError::ScriptMismatch(_)));
    }

    #[test]
    fn failing_launch_substitutes_a_spare_mid_migration() {
        let platform = lyon_cluster(20);
        let old = star(&ids(4));
        let mut new = star(&ids(4));
        for i in [7u32, 8, 9, 10] {
            new.add_server(new.root(), NodeId(i)).unwrap();
        }
        // High failure probability: at least one of the four launches
        // will exhaust its retries and take a spare.
        let tool = GoDiet::with_failures(0.75, 11);
        let report = tool
            .migrate(
                &platform,
                &old,
                &MigrationScript::compile(&old, &new).unwrap(),
            )
            .unwrap();
        assert!(report.failures > 0);
        assert!(
            !report.substitutions.is_empty(),
            "p=0.75 over 4 launches with 3 attempts each must substitute (seeded)"
        );
        for &(planned, spare) in &report.substitutions {
            assert!(new.uses_node(planned));
            assert!(!new.uses_node(spare) && !old.uses_node(spare));
            assert!(report.plan.uses_node(spare));
            assert!(!report.plan.uses_node(planned));
        }
        assert_eq!(report.plan.len(), new.len(), "shape preserved");
        // Determinism: same seed, same outcome.
        let again = tool
            .migrate(
                &platform,
                &old,
                &MigrationScript::compile(&old, &new).unwrap(),
            )
            .unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn migration_without_spares_fails_cleanly() {
        let platform = lyon_cluster(5);
        let old = star(&ids(4));
        let mut new = star(&ids(4));
        new.add_server(new.root(), NodeId(4)).unwrap(); // uses the last node
        let tool = GoDiet::with_failures(0.97, 5);
        let err = tool
            .migrate(
                &platform,
                &old,
                &MigrationScript::compile(&old, &new).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::LaunchFailed { .. }));
    }
}
