//! Structural validation of deployment plans.
//!
//! The strict rules come from the paper's Section 1:
//!
//! * the root is an agent with **one or more** children and no parent;
//! * every non-root agent has exactly one parent and **two or more**
//!   children;
//! * every server has exactly one parent (an agent) and no children;
//! * no platform node plays two roles.
//!
//! [`validate`] enforces all of them. [`validate_relaxed`] drops the
//! "non-root agents need ≥ 2 children" rule, which BFS-filled complete
//! spanning d-ary trees can violate at their boundary and which affects
//! neither the model nor the simulator.
//!
//! Plans can also be validated **against a platform** ([`validate_on`]):
//! every plan node must exist there.

use crate::plan::Role;
use crate::plan::{DeploymentPlan, Slot};
use adept_platform::{NodeId, Platform};
use std::collections::BTreeMap;
use std::fmt;

/// A structural defect found in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root has no children at all.
    RootHasNoChildren,
    /// A non-root agent has no children at all. Such an agent can never
    /// answer a scheduling request (there is nothing to aggregate), so
    /// even relaxed validation rejects it — a deployment containing one
    /// would deadlock every request that reaches it.
    ChildlessAgent {
        /// Offending slot.
        slot: Slot,
    },
    /// A non-root agent has fewer than two children (strict mode only).
    AgentHasTooFewChildren {
        /// Offending slot.
        slot: Slot,
        /// Its child count.
        children: usize,
    },
    /// A plan node does not exist on the platform it is validated against.
    NodeNotOnPlatform(NodeId),
    /// Multi-service deployments: a server carries no service assignment.
    ServerWithoutService(NodeId),
    /// Multi-service deployments: a service assignment names a node that
    /// is not one of the plan's servers (a stale or misdirected entry).
    AssignedNodeNotAServer(NodeId),
    /// Multi-service deployments: an assignment references a service
    /// index outside the mix.
    ServiceIndexOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Its assigned service index.
        index: usize,
        /// Number of services in the mix.
        services: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::RootHasNoChildren => {
                write!(f, "root agent has no children")
            }
            ValidationError::ChildlessAgent { slot } => {
                write!(f, "non-root agent {slot} has no children")
            }
            ValidationError::AgentHasTooFewChildren { slot, children } => write!(
                f,
                "non-root agent {slot} has {children} child(ren); the hierarchy rules require at least 2"
            ),
            ValidationError::NodeNotOnPlatform(n) => {
                write!(f, "plan references node {n} which is not on the platform")
            }
            ValidationError::ServerWithoutService(n) => {
                write!(f, "server node {n} has no service assignment")
            }
            ValidationError::AssignedNodeNotAServer(n) => {
                write!(f, "assignment names node {n} which is not a plan server")
            }
            ValidationError::ServiceIndexOutOfRange {
                node,
                index,
                services,
            } => write!(
                f,
                "node {node} assigned to service {index}, but the mix has only {services}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Strict validation per the paper's hierarchy rules. Returns all defects.
///
/// Note that several rules (single parent, agents-only parents, servers are
/// leaves, node uniqueness, acyclicity) are enforced by
/// [`DeploymentPlan`]'s construction API and therefore cannot fail here;
/// only the arity rules remain to be checked.
pub fn validate(plan: &DeploymentPlan) -> Vec<ValidationError> {
    let mut errors = validate_relaxed(plan);
    for slot in plan.agents() {
        if slot != plan.root() && plan.degree(slot) < 2 {
            errors.push(ValidationError::AgentHasTooFewChildren {
                slot,
                children: plan.degree(slot),
            });
        }
    }
    errors
}

/// Relaxed validation: requires the root to have at least one child and
/// every other agent to have at least one as well (a childless interior
/// agent would deadlock requests — see
/// [`ValidationError::ChildlessAgent`]). Single-child non-root agents,
/// which the strict paper rules forbid, are accepted.
pub fn validate_relaxed(plan: &DeploymentPlan) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    if plan.degree(plan.root()) == 0 {
        errors.push(ValidationError::RootHasNoChildren);
    }
    for slot in plan.agents() {
        if slot != plan.root() && plan.degree(slot) == 0 {
            errors.push(ValidationError::ChildlessAgent { slot });
        }
    }
    errors
}

/// Validates a server→service assignment of a multi-service deployment
/// against a plan: every plan server must be assigned, every assigned node
/// must be a plan server, and every service index must lie inside the mix.
/// Structural plan defects are **not** re-checked here — combine with
/// [`validate`] / [`validate_relaxed`] as needed.
pub fn validate_assignment(
    plan: &DeploymentPlan,
    service_of: &BTreeMap<NodeId, usize>,
    services: usize,
) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let mut server_nodes = std::collections::HashSet::new();
    for slot in plan.slots() {
        if plan.role(slot) != Role::Server {
            continue;
        }
        let node = plan.node(slot);
        server_nodes.insert(node);
        match service_of.get(&node) {
            None => errors.push(ValidationError::ServerWithoutService(node)),
            Some(&index) if index >= services => {
                errors.push(ValidationError::ServiceIndexOutOfRange {
                    node,
                    index,
                    services,
                });
            }
            Some(_) => {}
        }
    }
    for (&node, _) in service_of.iter() {
        if !server_nodes.contains(&node) {
            errors.push(ValidationError::AssignedNodeNotAServer(node));
        }
    }
    errors
}

/// Validates (strictly) and additionally checks every plan node exists on
/// the platform.
pub fn validate_on(plan: &DeploymentPlan, platform: &Platform) -> Vec<ValidationError> {
    let mut errors = validate(plan);
    for slot in plan.slots() {
        let node = plan.node(slot);
        if node.index() >= platform.node_count() {
            errors.push(ValidationError::NodeNotOnPlatform(node));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csd_tree, star};
    use adept_platform::generator::lyon_cluster;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn star_is_strictly_valid() {
        assert!(validate(&star(&ids(5))).is_empty());
    }

    #[test]
    fn lone_root_is_invalid() {
        let p = DeploymentPlan::with_root(NodeId(0));
        assert_eq!(validate(&p), vec![ValidationError::RootHasNoChildren]);
        assert_eq!(
            validate_relaxed(&p),
            vec![ValidationError::RootHasNoChildren]
        );
    }

    #[test]
    fn agent_with_one_child_fails_strict_passes_relaxed() {
        let mut p = DeploymentPlan::with_root(NodeId(0));
        let a = p.add_agent(p.root(), NodeId(1)).unwrap();
        p.add_server(a, NodeId(2)).unwrap();
        let strict = validate(&p);
        assert_eq!(
            strict,
            vec![ValidationError::AgentHasTooFewChildren {
                slot: a,
                children: 1
            }]
        );
        assert!(validate_relaxed(&p).is_empty());
    }

    #[test]
    fn csd_boundary_is_relaxed_valid() {
        // Some CSD fills create a single-child agent at the boundary.
        for n in 3..40u32 {
            for d in 2..8usize {
                let p = csd_tree(&ids(n), d);
                assert!(
                    validate_relaxed(&p).is_empty(),
                    "csd({n},{d}) should be relaxed-valid"
                );
            }
        }
    }

    #[test]
    fn childless_interior_agent_fails_even_relaxed() {
        let mut p = DeploymentPlan::with_root(NodeId(0));
        let a = p.add_agent(p.root(), NodeId(1)).unwrap();
        p.add_server(p.root(), NodeId(2)).unwrap();
        let relaxed = validate_relaxed(&p);
        assert_eq!(relaxed, vec![ValidationError::ChildlessAgent { slot: a }]);
        assert!(validate(&p).contains(&ValidationError::ChildlessAgent { slot: a }));
    }

    #[test]
    fn platform_membership_checked() {
        let platform = lyon_cluster(3);
        let p = star(&ids(5)); // references n3, n4 which don't exist
        let errs = validate_on(&p, &platform);
        assert!(errs.contains(&ValidationError::NodeNotOnPlatform(NodeId(3))));
        assert!(errs.contains(&ValidationError::NodeNotOnPlatform(NodeId(4))));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ValidationError::AgentHasTooFewChildren {
            slot: Slot(3),
            children: 1,
        };
        assert!(e.to_string().contains("#3"));
        assert!(e.to_string().contains("at least 2"));
    }

    #[test]
    fn assignment_validation_catches_all_defect_kinds() {
        let p = star(&ids(4)); // root n0, servers n1..n3
        let mut service_of = BTreeMap::new();
        service_of.insert(NodeId(1), 0);
        service_of.insert(NodeId(2), 5); // out of range for 2 services
        service_of.insert(NodeId(0), 1); // the root is not a server
                                         // n3 left unassigned
        let errs = validate_assignment(&p, &service_of, 2);
        assert!(errs.contains(&ValidationError::ServerWithoutService(NodeId(3))));
        assert!(errs.contains(&ValidationError::AssignedNodeNotAServer(NodeId(0))));
        assert!(errs.contains(&ValidationError::ServiceIndexOutOfRange {
            node: NodeId(2),
            index: 5,
            services: 2
        }));
        assert_eq!(errs.len(), 3);
    }

    #[test]
    fn complete_assignment_is_valid() {
        let p = star(&ids(4));
        let mut service_of = BTreeMap::new();
        for (i, s) in p.servers().enumerate() {
            service_of.insert(p.node(s), i % 2);
        }
        assert!(validate_assignment(&p, &service_of, 2).is_empty());
    }

    #[test]
    fn roles_reported_in_plan_are_consistent() {
        let p = star(&ids(4));
        assert_eq!(p.role(p.root()), Role::Agent);
        for s in p.servers() {
            assert_eq!(p.role(s), Role::Server);
        }
    }
}
