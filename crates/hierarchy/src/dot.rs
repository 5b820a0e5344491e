//! Graphviz DOT rendering of deployment plans — handy for inspecting the
//! hierarchies the planners produce (the paper presents its Figure 6
//! deployment exactly this way: "top agent connected with 9 agents…").

use crate::plan::{DeploymentPlan, Role};
use adept_platform::Platform;
use std::fmt::Write as _;

/// Renders a plan as a DOT digraph. Agents are boxes, servers ellipses;
/// when a platform is given, labels carry host names and powers.
pub fn to_dot(plan: &DeploymentPlan, platform: Option<&Platform>) -> String {
    let mut out = String::with_capacity(plan.len() * 64 + 128);
    out.push_str("digraph deployment {\n  rankdir=TB;\n  node [fontsize=10];\n");
    for slot in plan.slots() {
        let node = plan.node(slot);
        let label = match platform.filter(|p| node.index() < p.node_count()) {
            Some(p) => format!("{}\\n{} MFlop/s", p.name(node), p.power(node).value()),
            None => format!("{node}"),
        };
        let shape = match plan.role(slot) {
            Role::Agent => "box",
            Role::Server => "ellipse",
        };
        let _ = writeln!(out, "  n{} [label=\"{label}\", shape={shape}];", node.0);
    }
    for slot in plan.slots() {
        for &child in plan.children(slot) {
            let _ = writeln!(out, "  n{} -> n{};", plan.node(slot).0, plan.node(child).0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{balanced_two_level, star};
    use adept_platform::generator::lyon_cluster;
    use adept_platform::NodeId;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let plan = balanced_two_level(&ids(10), 3);
        let dot = to_dot(&plan, None);
        assert!(dot.starts_with("digraph deployment {"));
        for i in 0..10 {
            assert!(dot.contains(&format!("n{i} [label=")), "node {i} missing");
        }
        // 9 edges in a 10-node tree.
        assert_eq!(dot.matches(" -> ").count(), 9);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_shapes_reflect_roles() {
        let plan = star(&ids(3));
        let dot = to_dot(&plan, None);
        assert!(dot.contains("n0 [label=\"n0\", shape=box]"));
        assert!(dot.contains("n1 [label=\"n1\", shape=ellipse]"));
    }

    #[test]
    fn dot_with_platform_uses_names() {
        let platform = lyon_cluster(3);
        let plan = star(&ids(3));
        let dot = to_dot(&plan, Some(&platform));
        assert!(dot.contains("lyon-0"));
        assert!(dot.contains("400 MFlop/s"));
    }

    #[test]
    fn dot_labels_carry_each_nodes_host_name() {
        let platform =
            adept_platform::catalog::multi_site(&["lyon", "orsay"], adept_platform::MbitRate(20.0))
                .unwrap();
        let picked = [NodeId(0), NodeId(55), NodeId(56), NodeId(271)];
        let plan = star(&picked);
        let dot = to_dot(&plan, Some(&platform));
        for (id, name) in picked.into_iter().zip([
            "sagittaire-0.lyon",
            "sagittaire-55.lyon",
            "gdx-0.orsay",
            "gdx-215.orsay",
        ]) {
            let power = platform.power(id).value();
            let label = format!("n{} [label=\"{name}\\n{power} MFlop/s\"", id.0);
            assert!(dot.contains(&label), "{label} missing from\n{dot}");
        }
        // An id outside the platform keeps its bare label.
        let dot = to_dot(&star(&[NodeId(0), NodeId(400)]), Some(&platform));
        assert!(dot.contains("n400 [label=\"n400\""));
    }
}
