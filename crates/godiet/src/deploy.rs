//! Staged deployment with failure injection and spare substitution.

use crate::launch::launch_stages;
use adept_hierarchy::xml::{parse_xml, XmlError};
use adept_hierarchy::{validate::validate_on, DeploymentPlan, Slot};
use adept_platform::{NodeId, Platform, Seconds, SpareCursor};
use std::fmt;

/// Errors raised by [`GoDiet::deploy`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// The descriptor failed to parse.
    Xml(XmlError),
    /// The plan failed validation against the platform.
    InvalidPlan(String),
    /// An element could not be started and no spare node was available.
    LaunchFailed {
        /// The plan slot that could not be brought up.
        slot: Slot,
        /// The node whose launches kept failing.
        node: NodeId,
        /// Attempts made (initial + retries).
        attempts: u32,
    },
    /// A migration script's preconditions do not hold against the
    /// running deployment it is being executed on.
    ScriptMismatch(String),
    /// The requested transition cannot be expressed as a live migration
    /// (e.g. it replaces the root agent).
    ScriptUncompilable(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Xml(e) => write!(f, "descriptor error: {e}"),
            DeployError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            DeployError::LaunchFailed {
                slot,
                node,
                attempts,
            } => write!(
                f,
                "element {slot} on {node} failed to start after {attempts} attempts and no spare node remains"
            ),
            DeployError::ScriptMismatch(msg) => {
                write!(f, "migration script does not match the running deployment: {msg}")
            }
            DeployError::ScriptUncompilable(msg) => {
                write!(f, "transition is not migratable: {msg}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

impl From<XmlError> for DeployError {
    fn from(e: XmlError) -> Self {
        DeployError::Xml(e)
    }
}

/// Outcome of a deployment run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// The plan actually running (may differ from the input by spare
    /// substitutions).
    pub plan: DeploymentPlan,
    /// Number of launch stages (tree depth).
    pub stages: usize,
    /// Launch attempts performed (including failures).
    pub launches: u32,
    /// Failed launch attempts.
    pub failures: u32,
    /// `(failed_node, spare_node)` substitutions performed.
    pub substitutions: Vec<(NodeId, NodeId)>,
    /// Wall-clock launch makespan: stages run sequentially, elements
    /// within a stage concurrently, each attempt costing the 0.5 s launch
    /// latency.
    pub makespan: Seconds,
}

/// Time to start one element (fork + ssh + registration).
pub(crate) const LAUNCH_LATENCY: Seconds = Seconds(0.5);

/// Retries on the same node before substituting a spare.
const MAX_RETRIES: u32 = 2;

/// The deployment tool. The default injects no failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct GoDiet {
    /// Probability that a single launch attempt fails.
    pub failure_probability: f64,
    /// Seed for deterministic failure injection.
    pub seed: u64,
}

impl GoDiet {
    /// A tool with failure injection enabled.
    pub fn with_failures(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "failure probability must be in [0,1), got {probability}"
        );
        Self {
            failure_probability: probability,
            seed,
        }
    }

    /// Deterministic per-attempt failure decision (SplitMix64 over
    /// seed/node/attempt).
    fn attempt_fails(&self, node: NodeId, attempt: u32) -> bool {
        if self.failure_probability == 0.0 {
            return false;
        }
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node.0) + 1))
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(u64::from(attempt) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.failure_probability
    }

    /// Brings one element up: attempts on `node` with bounded retries,
    /// substituting spares (recorded in `substitutions`) when a node
    /// keeps failing. This is the per-element engine shared by the
    /// full-tree [`deploy`](GoDiet::deploy) and the incremental
    /// [`migrate`](GoDiet::migrate) paths.
    ///
    /// Returns the node the element finally started on and the attempt
    /// streak on that node (the element's contribution to its stage's
    /// makespan).
    pub(crate) fn start_element(
        &self,
        slot: Slot,
        mut node: NodeId,
        spares: &mut Spares<'_, impl Fn(NodeId) -> bool>,
        launches: &mut u32,
        failures: &mut u32,
        substitutions: &mut Vec<(NodeId, NodeId)>,
    ) -> Result<StartedElement, DeployError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            *launches += 1;
            if !self.attempt_fails(node, attempts) {
                return Ok(StartedElement { node, attempts });
            }
            *failures += 1;
            if attempts > MAX_RETRIES {
                // Substitute a spare and start over on it.
                match spares.pop() {
                    Some(spare) => {
                        substitutions.push((node, spare));
                        node = spare;
                        attempts = 0;
                    }
                    None => {
                        return Err(DeployError::LaunchFailed {
                            slot,
                            node,
                            attempts,
                        });
                    }
                }
            }
        }
    }

    /// Deploys a plan on a platform: validates, computes launch stages,
    /// starts every element (with failure injection), substitutes spares
    /// for nodes that keep failing, and reports the running deployment.
    ///
    /// # Errors
    /// [`DeployError::InvalidPlan`] if the plan does not validate against
    /// the platform (relaxed arity rules are accepted; unknown nodes are
    /// not); [`DeployError::LaunchFailed`] when an element exhausts its
    /// retries and no spare node remains.
    pub fn deploy(
        &self,
        platform: &Platform,
        plan: &DeploymentPlan,
    ) -> Result<DeploymentReport, DeployError> {
        // Membership errors are fatal; arity warnings are GoDIET's
        // problem only insofar as elements would fail to register — the
        // simulator accepts relaxed plans, so accept them here too.
        let fatal: Vec<String> = validate_on(plan, platform)
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    adept_hierarchy::ValidationError::NodeNotOnPlatform(_)
                        | adept_hierarchy::ValidationError::RootHasNoChildren
                )
            })
            .map(|e| e.to_string())
            .collect();
        if !fatal.is_empty() {
            return Err(DeployError::InvalidPlan(fatal.join("; ")));
        }

        let mut spares = Spares::new(platform, |id| plan.uses_node(id));

        let mut running = plan.clone();
        let mut launches = 0u32;
        let mut failures = 0u32;
        let mut substitutions = Vec::new();
        let mut makespan = 0.0f64;

        let stages = launch_stages(plan);
        for stage in &stages {
            // Elements in a stage launch concurrently; the stage takes as
            // long as its slowest element (attempts are sequential per
            // element).
            let mut stage_attempts_max = 0u32;
            for &slot in stage {
                let node = running.node(slot);
                let started = self.start_element(
                    slot,
                    node,
                    &mut spares,
                    &mut launches,
                    &mut failures,
                    &mut substitutions,
                )?;
                if started.node != node {
                    running = substitute(&running, slot, started.node);
                }
                stage_attempts_max = stage_attempts_max.max(started.attempts);
            }
            makespan += LAUNCH_LATENCY.value() * f64::from(stage_attempts_max.max(1));
        }

        Ok(DeploymentReport {
            plan: running,
            stages: stages.len(),
            launches,
            failures,
            substitutions,
            makespan: Seconds(makespan),
        })
    }

    /// Parses a GoDIET-style XML descriptor and deploys it.
    ///
    /// # Errors
    /// XML errors plus everything [`GoDiet::deploy`] can raise.
    pub fn deploy_xml(
        &self,
        platform: &Platform,
        descriptor: &str,
    ) -> Result<DeploymentReport, DeployError> {
        let plan = parse_xml(descriptor)?;
        self.deploy(platform, &plan)
    }
}

/// A successfully started element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StartedElement {
    /// The node it came up on (a spare when the planned node failed).
    pub node: NodeId,
    /// Attempt streak on that node (its stage-makespan contribution).
    pub attempts: u32,
}

/// Spare pool: platform nodes for which `used` is false, popped most
/// powerful first (ties to the lower id). A [`SpareCursor`] reads them
/// from the platform's stored order, so a launch that never substitutes
/// reads no node at all.
pub(crate) struct Spares<'a, F> {
    platform: &'a Platform,
    used: F,
    cursor: SpareCursor,
}

impl<'a, F: Fn(NodeId) -> bool> Spares<'a, F> {
    pub(crate) fn new(platform: &'a Platform, used: F) -> Self {
        Self {
            platform,
            used,
            cursor: SpareCursor::new(platform),
        }
    }

    /// Takes the most powerful spare left.
    fn pop(&mut self) -> Option<NodeId> {
        let spare = self.cursor.strongest(self.platform, &self.used)?;
        self.cursor.take(self.platform, spare);
        Some(spare)
    }
}

/// Returns a copy of `plan` with the platform node of `slot` replaced by
/// `spare`, preserving the tree shape.
pub(crate) fn substitute(plan: &DeploymentPlan, slot: Slot, spare: NodeId) -> DeploymentPlan {
    let mut rebuilt = DeploymentPlan::with_root(if slot == plan.root() {
        spare
    } else {
        plan.node(plan.root())
    });
    // Rebuild in BFS order, mapping old slots to new ones.
    let order = plan.bfs_order();
    let mut map = std::collections::HashMap::new();
    map.insert(plan.root(), rebuilt.root());
    for &s in order.iter().skip(1) {
        // audit: allow(unwrap, "rebuild maps preserve node-id uniqueness; the
        // diff tests pin this")
        let parent_new = map[&plan.parent(s).expect("non-root has a parent")];
        let node = if s == slot { spare } else { plan.node(s) };
        let new_slot = match plan.role(s) {
            adept_hierarchy::Role::Agent => rebuilt
                .add_agent(parent_new, node)
                // audit: allow(unwrap, "rebuild maps preserve node-id
                // uniqueness; the diff tests pin this")
                .expect("rebuild preserves uniqueness"),
            adept_hierarchy::Role::Server => rebuilt
                .add_server(parent_new, node)
                // audit: allow(unwrap, "rebuild maps preserve node-id
                // uniqueness; the diff tests pin this")
                .expect("rebuild preserves uniqueness"),
        };
        map.insert(s, new_slot);
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::builder::{balanced_two_level, star};
    use adept_hierarchy::xml::write_xml;
    use adept_platform::generator::lyon_cluster;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn failure_free_deploy_keeps_plan() {
        let platform = lyon_cluster(10);
        let plan = star(&ids(6));
        let report = GoDiet::default().deploy(&platform, &plan).unwrap();
        assert!(report.plan.structurally_eq(&plan));
        assert_eq!(report.stages, 2);
        assert_eq!(report.launches, 6);
        assert_eq!(report.failures, 0);
        assert!(report.substitutions.is_empty());
        // Two stages, one attempt each, 0.5 s latency.
        assert!((report.makespan.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xml_pipeline_deploys() {
        let platform = lyon_cluster(8);
        let plan = balanced_two_level(&ids(8), 2);
        let xml = write_xml(&plan, Some(&platform));
        let report = GoDiet::default().deploy_xml(&platform, &xml).unwrap();
        assert!(report.plan.structurally_eq(&plan));
        assert_eq!(report.stages, 3);
    }

    #[test]
    fn bad_xml_is_reported() {
        let platform = lyon_cluster(4);
        let err = GoDiet::default()
            .deploy_xml(&platform, "<deployment>")
            .unwrap_err();
        assert!(matches!(err, DeployError::Xml(_)));
    }

    #[test]
    fn plan_outside_platform_rejected() {
        let platform = lyon_cluster(3);
        let plan = star(&ids(6));
        let err = GoDiet::default().deploy(&platform, &plan).unwrap_err();
        assert!(matches!(err, DeployError::InvalidPlan(_)));
    }

    #[test]
    fn failures_trigger_retries_and_substitutions() {
        let platform = lyon_cluster(30);
        let plan = star(&ids(10)); // 20 spare nodes
        let tool = GoDiet::with_failures(0.4, 7);
        let report = tool.deploy(&platform, &plan).unwrap();
        assert!(report.failures > 0, "with p=0.4 some launches must fail");
        assert_eq!(report.plan.len(), plan.len(), "shape preserved");
        // Substituted nodes must come from outside the original plan.
        for &(failed, spare) in &report.substitutions {
            assert!(plan.uses_node(failed));
            assert!(!plan.uses_node(spare));
        }
        // And the running plan must still be deployable on the platform.
        assert!(validate_on(&report.plan, &platform)
            .iter()
            .all(|e| !matches!(e, adept_hierarchy::ValidationError::NodeNotOnPlatform(_))));
    }

    #[test]
    fn no_spares_means_launch_failed() {
        let platform = lyon_cluster(4);
        let plan = star(&ids(4)); // no spares at all
                                  // High failure probability: some element will exhaust retries.
        let tool = GoDiet::with_failures(0.95, 3);
        let err = tool.deploy(&platform, &plan).unwrap_err();
        assert!(matches!(err, DeployError::LaunchFailed { .. }));
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let platform = lyon_cluster(20);
        let plan = star(&ids(10));
        let tool = GoDiet::with_failures(0.3, 99);
        let a = tool.deploy(&platform, &plan).unwrap();
        let b = tool.deploy(&platform, &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn substitute_preserves_shape() {
        let plan = balanced_two_level(&ids(10), 3);
        let replaced = substitute(&plan, Slot(1), NodeId(42));
        assert_eq!(replaced.len(), plan.len());
        assert_eq!(replaced.agent_count(), plan.agent_count());
        assert!(replaced.uses_node(NodeId(42)));
        assert!(!replaced.uses_node(plan.node(Slot(1))));
    }

    #[test]
    fn substitute_root_works() {
        let plan = star(&ids(4));
        let replaced = substitute(&plan, Slot(0), NodeId(9));
        assert_eq!(replaced.node(replaced.root()), NodeId(9));
        assert_eq!(replaced.server_count(), 3);
    }

    #[test]
    #[should_panic(expected = "failure probability must be in")]
    fn bad_probability_rejected() {
        let _ = GoDiet::with_failures(1.5, 0);
    }
}
