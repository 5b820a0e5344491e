//! The deployment plan: a rooted tree of agents and servers over platform
//! nodes.
//!
//! The representation is **structure-of-arrays**: per-slot node, role and
//! parent live in parallel `Vec`s indexed by [`Slot`], and all child lists
//! share one contiguous arena (`children` + per-slot `(start, len, cap)`
//! ranges) instead of one heap `Vec` per entry. Traversals are
//! allocation-free, clones are flat `memcpy`s, and building a plan of n
//! entries costs O(1) allocations instead of O(n) — the layout that keeps
//! `realize`/`PlanDiff::apply` linear at n = 10⁵–10⁶ slots. When a slot's
//! child block fills up it relocates to the arena's end with doubled
//! capacity (amortized O(1) per attach; the abandoned block is bounded
//! garbage, at most half the arena). The bulk constructor
//! [`DeploymentPlan::from_parts`] sizes every block exactly from a parent
//! array in one counting pass.
//!
//! Every entry maps to a distinct platform
//! [`adept_platform::NodeId`] (the paper never shares a machine
//! between two middleware elements).

// audit: allow-file(unwrap, "plan surgery keeps nodes/parents consistent by
// construction; each expect documents the invariant and the proptest suite
// exercises the mutation paths")
use adept_platform::NodeId;
use std::collections::HashSet;
use std::fmt;

/// Role of a node in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Scheduler element (the paper's `a ∈ A`): forwards requests down,
    /// aggregates replies up.
    Agent,
    /// Service daemon (the paper's `s ∈ S`, a SeD): predicts and executes.
    Server,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Agent => write!(f, "agent"),
            Role::Server => write!(f, "server"),
        }
    }
}

/// Index of an entry inside a [`DeploymentPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub usize);

impl Slot {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors raised by plan mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The platform node is already used by another entry.
    NodeAlreadyUsed(NodeId),
    /// The slot does not exist.
    InvalidSlot(Slot),
    /// The referenced parent entry is a server; only agents have children.
    ParentIsServer(Slot),
    /// Attempted to convert an entry that is not a server.
    NotAServer(Slot),
    /// Attempted to convert an entry that is not an agent.
    NotAnAgent(Slot),
    /// Attempted to demote an agent that still has children.
    AgentHasChildren(Slot),
    /// Attempted to remove the root.
    CannotRemoveRoot,
    /// Reparenting would make an entry its own ancestor.
    WouldCreateCycle(Slot),
    /// A multi-service operation referenced a service index outside the
    /// mix.
    InvalidServiceIndex {
        /// The out-of-range index.
        index: usize,
        /// How many services the mix holds.
        services: usize,
    },
    /// A server of a multi-service deployment has no service assignment.
    ServerNotAssigned(NodeId),
    /// A multi-service deployment does not hold enough servers to give
    /// every demanded service at least one.
    NotEnoughServers {
        /// Servers required (one per service with positive share).
        needed: usize,
        /// Servers available in the plan.
        available: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NodeAlreadyUsed(n) => write!(f, "node {n} already used in the plan"),
            PlanError::InvalidSlot(s) => write!(f, "invalid plan slot {s}"),
            PlanError::ParentIsServer(s) => write!(f, "parent slot {s} is a server"),
            PlanError::NotAServer(s) => write!(f, "slot {s} is not a server"),
            PlanError::NotAnAgent(s) => write!(f, "slot {s} is not an agent"),
            PlanError::AgentHasChildren(s) => {
                write!(f, "agent slot {s} still has children")
            }
            PlanError::CannotRemoveRoot => write!(f, "cannot remove the root agent"),
            PlanError::WouldCreateCycle(s) => {
                write!(f, "reparenting slot {s} would create a cycle")
            }
            PlanError::InvalidServiceIndex { index, services } => {
                write!(f, "service index {index} out of range (mix has {services})")
            }
            PlanError::ServerNotAssigned(n) => {
                write!(f, "server node {n} has no service assignment")
            }
            PlanError::NotEnoughServers { needed, available } => write!(
                f,
                "not enough servers for the mix: need {needed}, plan has {available}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A rooted hierarchy of agents and servers.
///
/// Invariants maintained by construction:
/// * exactly one root (slot 0), an agent with no parent;
/// * every non-root entry has exactly one parent, which is an agent;
/// * every platform node appears at most once;
/// * servers have no children.
///
/// The paper's additional rule (non-root agents have ≥ 2 children, root has
/// ≥ 1) is checked by [`validate`](crate::validate::validate) rather than by
/// construction, because the heuristic legitimately passes through
/// intermediate states that violate it.
///
/// See the module docs for the structure-of-arrays layout.
#[derive(Clone)]
pub struct DeploymentPlan {
    nodes: Vec<NodeId>,
    roles: Vec<Role>,
    parents: Vec<Option<Slot>>,
    /// Arena offset of each slot's child block.
    child_start: Vec<usize>,
    /// Live children within the block.
    child_len: Vec<usize>,
    /// Allocated block size (`len ≤ cap`).
    child_cap: Vec<usize>,
    /// Shared child arena; `Slot(usize::MAX)` marks unused capacity.
    arena: Vec<Slot>,
    used: HashSet<NodeId>,
}

impl PartialEq for DeploymentPlan {
    /// Logical equality: same entries (node, role, parent) and the same
    /// child order per slot — arena layout (block placement, spare
    /// capacity, relocation garbage) is representation, not state.
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.roles == other.roles
            && self.parents == other.parents
            && self.slots().all(|s| self.children(s) == other.children(s))
    }
}

impl fmt::Debug for DeploymentPlan {
    /// Prints what [`PartialEq`] compares: each slot's node, role, parent
    /// and children. The arena layout and the node set, whose hash order
    /// differs from one plan to the next, are left out, so equal plans
    /// print alike.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DeploymentPlan ")?;
        f.debug_map()
            .entries(self.slots().map(|s| {
                let i = s.index();
                (
                    s,
                    (
                        self.nodes[i],
                        self.roles[i],
                        self.parents[i],
                        self.children(s),
                    ),
                )
            }))
            .finish()
    }
}

impl DeploymentPlan {
    /// A plan with a lone root agent.
    pub fn with_root(root: NodeId) -> Self {
        let mut used = HashSet::new();
        used.insert(root);
        Self {
            nodes: vec![root],
            roles: vec![Role::Agent],
            parents: vec![None],
            child_start: vec![0],
            child_len: vec![0],
            child_cap: vec![0],
            arena: Vec::new(),
            used,
        }
    }

    /// Builds a plan in one pass from parallel per-slot arrays — the bulk
    /// constructor behind `realize` and `PlanDiff::apply`. Child blocks
    /// are sized exactly by a counting pass over `parents` (no relocation
    /// garbage); each slot's children end up in ascending slot order,
    /// which equals insertion order for any plan grown by appends.
    ///
    /// # Errors
    /// [`PlanError::NotAnAgent`] when slot 0 is a server or a parent is,
    /// wrapped as [`PlanError::ParentIsServer`];
    /// [`PlanError::InvalidSlot`] when slot 0 has a parent, a non-root
    /// slot has none, or a parent index is out of range;
    /// [`PlanError::NodeAlreadyUsed`] on a duplicate platform node;
    /// [`PlanError::WouldCreateCycle`] when some entry is unreachable
    /// from the root (a parent cycle).
    ///
    /// # Panics
    /// Panics when the arrays are empty or differ in length.
    pub fn from_parts(
        nodes: Vec<NodeId>,
        roles: Vec<Role>,
        parents: Vec<Option<Slot>>,
    ) -> Result<Self, PlanError> {
        let n = nodes.len();
        assert!(n > 0, "a plan always holds at least the root");
        assert!(
            roles.len() == n && parents.len() == n,
            "one role and one parent per slot"
        );
        if roles[0] != Role::Agent {
            return Err(PlanError::NotAnAgent(Slot(0)));
        }
        if parents[0].is_some() {
            return Err(PlanError::InvalidSlot(Slot(0)));
        }
        let mut used = HashSet::with_capacity(n);
        for &node in &nodes {
            if !used.insert(node) {
                return Err(PlanError::NodeAlreadyUsed(node));
            }
        }
        // Counting pass: exact child block per slot.
        let mut child_len = vec![0usize; n];
        for (i, &parent) in parents.iter().enumerate().skip(1) {
            let Some(p) = parent else {
                return Err(PlanError::InvalidSlot(Slot(i)));
            };
            if p.0 >= n {
                return Err(PlanError::InvalidSlot(p));
            }
            if roles[p.0] != Role::Agent {
                return Err(PlanError::ParentIsServer(p));
            }
            child_len[p.0] += 1;
        }
        let mut child_start = vec![0usize; n];
        let mut offset = 0usize;
        for i in 0..n {
            child_start[i] = offset;
            offset += child_len[i];
        }
        let mut arena = vec![Slot(usize::MAX); offset];
        let mut fill = vec![0usize; n];
        for (i, &parent) in parents.iter().enumerate().skip(1) {
            let p = parent.expect("validated above").0;
            arena[child_start[p] + fill[p]] = Slot(i);
            fill[p] += 1;
        }
        let plan = Self {
            nodes,
            roles,
            parents,
            child_cap: child_len.clone(),
            child_start,
            child_len,
            arena,
            used,
        };
        // Reachability: a parent array can encode a cycle detached from
        // the root; BFS must visit every slot.
        let mut seen = 1usize;
        let mut queue = std::collections::VecDeque::from([plan.root()]);
        let mut visited = vec![false; n];
        visited[0] = true;
        while let Some(s) = queue.pop_front() {
            for &c in plan.children(s) {
                if !visited[c.0] {
                    visited[c.0] = true;
                    seen += 1;
                    queue.push_back(c);
                }
            }
        }
        if seen != n {
            let orphan = visited.iter().position(|&v| !v).expect("seen < n");
            return Err(PlanError::WouldCreateCycle(Slot(orphan)));
        }
        Ok(plan)
    }

    /// Appends `child` to `parent`'s child block, relocating the block to
    /// the arena's end with doubled capacity when full (amortized O(1)).
    fn push_child(&mut self, parent: usize, child: Slot) {
        let len = self.child_len[parent];
        if len == self.child_cap[parent] {
            let new_cap = (self.child_cap[parent] * 2).max(4);
            let old_start = self.child_start[parent];
            let new_start = self.arena.len();
            self.arena.reserve(new_cap);
            for i in 0..len {
                let v = self.arena[old_start + i];
                self.arena.push(v);
            }
            self.arena.resize(new_start + new_cap, Slot(usize::MAX));
            self.child_start[parent] = new_start;
            self.child_cap[parent] = new_cap;
        }
        self.arena[self.child_start[parent] + len] = child;
        self.child_len[parent] = len + 1;
    }

    /// Removes `child` from `parent`'s child block, preserving the order
    /// of the remaining children.
    fn remove_child(&mut self, parent: usize, child: Slot) {
        let start = self.child_start[parent];
        let len = self.child_len[parent];
        let block = &mut self.arena[start..start + len];
        if let Some(pos) = block.iter().position(|&c| c == child) {
            block.copy_within(pos + 1.., pos);
            self.child_len[parent] = len - 1;
        }
    }

    /// The paper's smallest deployment: one agent, one server (Algorithm 1,
    /// step 7).
    pub fn agent_server(agent: NodeId, server: NodeId) -> Self {
        let mut plan = Self::with_root(agent);
        plan.add_server(Slot(0), server)
            .expect("fresh plan accepts a server");
        plan
    }

    /// The root slot (always `Slot(0)`).
    #[inline]
    pub fn root(&self) -> Slot {
        Slot(0)
    }

    /// Number of entries (agents + servers).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the plan holds only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn check(&self, slot: Slot) -> Result<(), PlanError> {
        if slot.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(PlanError::InvalidSlot(slot))
        }
    }

    /// Adds a server under `parent`.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::ParentIsServer`], or
    /// [`PlanError::NodeAlreadyUsed`].
    pub fn add_server(&mut self, parent: Slot, node: NodeId) -> Result<Slot, PlanError> {
        self.add(parent, node, Role::Server)
    }

    /// Adds an agent under `parent`.
    ///
    /// # Errors
    /// Same conditions as [`DeploymentPlan::add_server`].
    pub fn add_agent(&mut self, parent: Slot, node: NodeId) -> Result<Slot, PlanError> {
        self.add(parent, node, Role::Agent)
    }

    fn add(&mut self, parent: Slot, node: NodeId, role: Role) -> Result<Slot, PlanError> {
        self.check(parent)?;
        if self.roles[parent.0] != Role::Agent {
            return Err(PlanError::ParentIsServer(parent));
        }
        if self.used.contains(&node) {
            return Err(PlanError::NodeAlreadyUsed(node));
        }
        let slot = Slot(self.nodes.len());
        self.nodes.push(node);
        self.roles.push(role);
        self.parents.push(Some(parent));
        self.child_start.push(self.arena.len());
        self.child_len.push(0);
        self.child_cap.push(0);
        self.push_child(parent.0, slot);
        self.used.insert(node);
        Ok(slot)
    }

    /// Converts a server into an agent — the paper's `shift_nodes`
    /// procedure ("if any server is converted as an agent", Table 1). The
    /// entry keeps its node and parent; it can now receive children.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] or [`PlanError::NotAServer`].
    pub fn convert_to_agent(&mut self, slot: Slot) -> Result<(), PlanError> {
        self.check(slot)?;
        if self.roles[slot.0] != Role::Server {
            return Err(PlanError::NotAServer(slot));
        }
        self.roles[slot.0] = Role::Agent;
        Ok(())
    }

    /// Converts a childless non-root agent back into a server — the inverse
    /// of [`DeploymentPlan::convert_to_agent`], used by incremental planners
    /// to retract a speculative promotion.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::NotAnAgent`],
    /// [`PlanError::CannotRemoveRoot`] for the root, or
    /// [`PlanError::AgentHasChildren`] when children are still attached.
    pub fn convert_to_server(&mut self, slot: Slot) -> Result<(), PlanError> {
        if slot.0 == 0 {
            return Err(PlanError::CannotRemoveRoot);
        }
        self.check(slot)?;
        if self.roles[slot.0] != Role::Agent {
            return Err(PlanError::NotAnAgent(slot));
        }
        if self.child_len[slot.0] != 0 {
            return Err(PlanError::AgentHasChildren(slot));
        }
        self.roles[slot.0] = Role::Server;
        Ok(())
    }

    /// Reparents `child` (and its whole subtree) under `new_parent` — the
    /// `move_child` delta of the incremental evaluation engine. A no-op when
    /// `new_parent` already is the parent.
    ///
    /// # Errors
    /// [`PlanError::CannotRemoveRoot`] for the root,
    /// [`PlanError::InvalidSlot`], [`PlanError::ParentIsServer`] when the
    /// target is a server, or [`PlanError::WouldCreateCycle`] when the
    /// target sits inside `child`'s subtree.
    pub fn move_child(&mut self, child: Slot, new_parent: Slot) -> Result<(), PlanError> {
        if child.0 == 0 {
            return Err(PlanError::CannotRemoveRoot);
        }
        self.check(child)?;
        self.check(new_parent)?;
        if self.roles[new_parent.0] != Role::Agent {
            return Err(PlanError::ParentIsServer(new_parent));
        }
        // Walk up from the target: hitting `child` means the target lives
        // inside the moved subtree.
        let mut cursor = Some(new_parent);
        while let Some(s) = cursor {
            if s == child {
                return Err(PlanError::WouldCreateCycle(child));
            }
            cursor = self.parents[s.0];
        }
        let old_parent = self.parents[child.0].expect("non-root entries always have a parent");
        if old_parent == new_parent {
            return Ok(());
        }
        self.remove_child(old_parent.0, child);
        self.push_child(new_parent.0, child);
        self.parents[child.0] = Some(new_parent);
        Ok(())
    }

    /// Removes the most recently added entry (Algorithm 1, step 30 removes
    /// a child from the last agent when throughput degraded). The vacated
    /// platform node can be reused afterwards.
    ///
    /// Removal is restricted to the **last added** entry, which is exactly
    /// how the heuristic uses it (it retracts its most recent addition);
    /// this keeps the index-based representation hole-free. Children always
    /// carry larger indices than their parent, so the last entry never has
    /// children.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] if `slot` is not the last entry,
    /// [`PlanError::CannotRemoveRoot`] for the root.
    pub fn remove_last(&mut self, slot: Slot) -> Result<NodeId, PlanError> {
        if slot.0 == 0 {
            return Err(PlanError::CannotRemoveRoot);
        }
        if slot.0 != self.nodes.len() - 1 {
            return Err(PlanError::InvalidSlot(slot));
        }
        debug_assert!(
            self.child_len[slot.0] == 0,
            "children always have larger indices than their parent"
        );
        let node = self.nodes.pop().expect("len >= 2 checked above");
        self.roles.pop();
        let parent = self.parents.pop().expect("popped with nodes");
        self.child_start.pop();
        self.child_len.pop();
        self.child_cap.pop();
        if let Some(p) = parent {
            self.remove_child(p.0, slot);
        }
        self.used.remove(&node);
        Ok(node)
    }

    /// Platform node of an entry.
    ///
    /// # Panics
    /// Panics on an invalid slot.
    #[inline]
    pub fn node(&self, slot: Slot) -> NodeId {
        self.nodes[slot.0]
    }

    /// Role of an entry.
    ///
    /// # Panics
    /// Panics on an invalid slot.
    #[inline]
    pub fn role(&self, slot: Slot) -> Role {
        self.roles[slot.0]
    }

    /// Parent of an entry (`None` for the root).
    ///
    /// # Panics
    /// Panics on an invalid slot.
    #[inline]
    pub fn parent(&self, slot: Slot) -> Option<Slot> {
        self.parents[slot.0]
    }

    /// Children of an entry, in insertion order.
    ///
    /// # Panics
    /// Panics on an invalid slot.
    #[inline]
    pub fn children(&self, slot: Slot) -> &[Slot] {
        let start = self.child_start[slot.0];
        &self.arena[start..start + self.child_len[slot.0]]
    }

    /// Number of children (the paper's `d_i`).
    ///
    /// # Panics
    /// Panics on an invalid slot.
    #[inline]
    pub fn degree(&self, slot: Slot) -> usize {
        self.child_len[slot.0]
    }

    /// All slots, in insertion order.
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.nodes.len()).map(Slot)
    }

    /// Slots of all agents.
    pub fn agents(&self) -> impl Iterator<Item = Slot> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == Role::Agent)
            .map(|(i, _)| Slot(i))
    }

    /// Slots of all servers.
    pub fn servers(&self) -> impl Iterator<Item = Slot> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == Role::Server)
            .map(|(i, _)| Slot(i))
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.roles.iter().filter(|&&r| r == Role::Agent).count()
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.roles.iter().filter(|&&r| r == Role::Server).count()
    }

    /// Platform nodes of all servers, in insertion order.
    pub fn server_nodes(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .zip(&self.nodes)
            .filter(|(&r, _)| r == Role::Server)
            .map(|(_, &n)| n)
            .collect()
    }

    /// True if the platform node is used anywhere in the plan.
    #[inline]
    pub fn uses_node(&self, node: NodeId) -> bool {
        self.used.contains(&node)
    }

    /// Depth of the tree: 1 for a lone root, 2 for a star, etc.
    pub fn depth(&self) -> usize {
        fn rec(plan: &DeploymentPlan, s: Slot) -> usize {
            1 + plan
                .children(s)
                .iter()
                .map(|&c| rec(plan, c))
                .max()
                .unwrap_or(0)
        }
        rec(self, self.root())
    }

    /// Depth of a slot below the root (root = 0).
    pub fn level(&self, slot: Slot) -> usize {
        let mut lvl = 0;
        let mut cur = slot;
        while let Some(p) = self.parent(cur) {
            lvl += 1;
            cur = p;
        }
        lvl
    }

    /// Slots in breadth-first order from the root.
    pub fn bfs_order(&self) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root());
        while let Some(s) = queue.pop_front() {
            out.push(s);
            queue.extend(self.children(s).iter().copied());
        }
        out
    }

    /// True if two plans describe the same hierarchy over the same platform
    /// nodes: identical parent and role for every node, regardless of slot
    /// numbering or child insertion order. This is the right equality for
    /// round-trip tests (XML and adjacency serialization do not preserve
    /// slot order).
    pub fn structurally_eq(&self, other: &DeploymentPlan) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let describe = |plan: &DeploymentPlan| {
            let mut map = std::collections::BTreeMap::new();
            for s in plan.slots() {
                map.insert(
                    plan.node(s),
                    (plan.parent(s).map(|p| plan.node(p)), plan.role(s)),
                );
            }
            map
        };
        describe(self) == describe(other)
    }

    /// An ASCII rendering of the tree, for logs and examples.
    pub fn render(&self) -> String {
        fn rec(plan: &DeploymentPlan, s: Slot, prefix: &str, last: bool, out: &mut String) {
            let branch = if s.0 == 0 {
                ""
            } else if last {
                "└── "
            } else {
                "├── "
            };
            out.push_str(prefix);
            out.push_str(branch);
            out.push_str(&format!("{} {}\n", plan.role(s), plan.node(s)));
            let child_prefix = if s.0 == 0 {
                String::new()
            } else {
                format!("{prefix}{}", if last { "    " } else { "│   " })
            };
            let kids = plan.children(s);
            for (i, &c) in kids.iter().enumerate() {
                rec(plan, c, &child_prefix, i + 1 == kids.len(), out);
            }
        }
        let mut out = String::new();
        rec(self, self.root(), "", true, &mut out);
        out
    }
}

impl fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: {} agents, {} servers, depth {}",
            self.agent_count(),
            self.server_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn root_only_plan() {
        let p = DeploymentPlan::with_root(n(0));
        assert_eq!(p.len(), 1);
        assert!(p.is_empty());
        assert_eq!(p.role(p.root()), Role::Agent);
        assert_eq!(p.parent(p.root()), None);
        assert_eq!(p.depth(), 1);
    }

    #[test]
    fn debug_output_is_the_same_for_equal_plans() {
        // Each plan's node set hashes with its own random keys; the
        // printed form must not follow that order.
        let build = || {
            let mut p = DeploymentPlan::with_root(n(0));
            let agents: Vec<Slot> = (1..4)
                .map(|i| p.add_agent(p.root(), n(i)).unwrap())
                .collect();
            for i in 4..12u32 {
                p.add_server(agents[i as usize % 3], n(i)).unwrap();
            }
            assert_eq!(p.len(), 12);
            format!("{p:?}")
        };
        let first = build();
        for _ in 0..8 {
            assert_eq!(build(), first);
        }
    }

    #[test]
    fn agent_server_pair() {
        let p = DeploymentPlan::agent_server(n(0), n(1));
        assert_eq!(p.agent_count(), 1);
        assert_eq!(p.server_count(), 1);
        assert_eq!(p.depth(), 2);
        assert_eq!(p.degree(p.root()), 1);
        assert_eq!(p.server_nodes(), vec![n(1)]);
    }

    #[test]
    fn from_parts_matches_incremental_build() {
        let mut by_add = DeploymentPlan::with_root(n(0));
        let a = by_add.add_agent(Slot(0), n(1)).unwrap();
        by_add.add_server(Slot(0), n(2)).unwrap();
        by_add.add_server(a, n(3)).unwrap();
        by_add.add_server(a, n(4)).unwrap();

        let bulk = DeploymentPlan::from_parts(
            vec![n(0), n(1), n(2), n(3), n(4)],
            vec![
                Role::Agent,
                Role::Agent,
                Role::Server,
                Role::Server,
                Role::Server,
            ],
            vec![
                None,
                Some(Slot(0)),
                Some(Slot(0)),
                Some(Slot(1)),
                Some(Slot(1)),
            ],
        )
        .unwrap();
        assert_eq!(bulk, by_add);
        assert_eq!(bulk.children(Slot(0)), &[Slot(1), Slot(2)]);
        assert_eq!(bulk.children(Slot(1)), &[Slot(3), Slot(4)]);
        assert_eq!(bulk.bfs_order(), by_add.bfs_order());
    }

    #[test]
    fn from_parts_rejects_server_root() {
        let err = DeploymentPlan::from_parts(
            vec![n(0), n(1)],
            vec![Role::Server, Role::Agent],
            vec![None, Some(Slot(0))],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::NotAnAgent(Slot(0)));
    }

    #[test]
    fn from_parts_rejects_server_parent() {
        let err = DeploymentPlan::from_parts(
            vec![n(0), n(1), n(2)],
            vec![Role::Agent, Role::Server, Role::Server],
            vec![None, Some(Slot(0)), Some(Slot(1))],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::ParentIsServer(Slot(1)));
    }

    #[test]
    fn from_parts_rejects_duplicate_node() {
        let err = DeploymentPlan::from_parts(
            vec![n(0), n(0)],
            vec![Role::Agent, Role::Server],
            vec![None, Some(Slot(0))],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::NodeAlreadyUsed(n(0)));
    }

    #[test]
    fn from_parts_rejects_detached_cycle() {
        // Slots 1 and 2 parent each other: valid in-range agent parents,
        // but unreachable from the root.
        let err = DeploymentPlan::from_parts(
            vec![n(0), n(1), n(2)],
            vec![Role::Agent, Role::Agent, Role::Agent],
            vec![None, Some(Slot(2)), Some(Slot(1))],
        )
        .unwrap_err();
        assert_eq!(err, PlanError::WouldCreateCycle(Slot(1)));
    }

    #[test]
    fn from_parts_plan_stays_mutable() {
        let mut p = DeploymentPlan::from_parts(
            vec![n(0), n(1)],
            vec![Role::Agent, Role::Server],
            vec![None, Some(Slot(0))],
        )
        .unwrap();
        // Exact-capacity child blocks must still grow via relocation.
        let s = p.add_server(Slot(0), n(2)).unwrap();
        assert_eq!(p.children(Slot(0)), &[Slot(1), s]);
        assert_eq!(p.remove_last(s), Ok(n(2)));
        assert_eq!(p.children(Slot(0)), &[Slot(1)]);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut p = DeploymentPlan::with_root(n(0));
        assert_eq!(
            p.add_server(Slot(0), n(0)),
            Err(PlanError::NodeAlreadyUsed(n(0)))
        );
    }

    #[test]
    fn server_cannot_parent() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        assert_eq!(
            p.add_server(Slot(1), n(2)),
            Err(PlanError::ParentIsServer(Slot(1)))
        );
    }

    #[test]
    fn invalid_slot_rejected() {
        let mut p = DeploymentPlan::with_root(n(0));
        assert_eq!(
            p.add_server(Slot(9), n(1)),
            Err(PlanError::InvalidSlot(Slot(9)))
        );
    }

    #[test]
    fn convert_server_to_agent_allows_children() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.convert_to_agent(Slot(1)).unwrap();
        assert_eq!(p.role(Slot(1)), Role::Agent);
        let s = p.add_server(Slot(1), n(2)).unwrap();
        assert_eq!(p.parent(s), Some(Slot(1)));
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn convert_agent_fails() {
        let mut p = DeploymentPlan::with_root(n(0));
        assert_eq!(
            p.convert_to_agent(Slot(0)),
            Err(PlanError::NotAServer(Slot(0)))
        );
    }

    #[test]
    fn remove_last_frees_node() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        let s = p.add_server(Slot(0), n(2)).unwrap();
        assert_eq!(p.remove_last(s).unwrap(), n(2));
        assert_eq!(p.server_count(), 1);
        assert!(!p.uses_node(n(2)));
        // The node can be reused.
        p.add_server(Slot(0), n(2)).unwrap();
        assert!(p.uses_node(n(2)));
    }

    #[test]
    fn remove_non_last_rejected() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.add_server(Slot(0), n(2)).unwrap();
        assert_eq!(p.remove_last(Slot(1)), Err(PlanError::InvalidSlot(Slot(1))));
    }

    #[test]
    fn remove_root_rejected() {
        let mut p = DeploymentPlan::with_root(n(0));
        assert_eq!(p.remove_last(Slot(0)), Err(PlanError::CannotRemoveRoot));
    }

    #[test]
    fn remove_parent_of_children_is_never_last() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.convert_to_agent(Slot(1)).unwrap();
        p.add_server(Slot(1), n(2)).unwrap();
        // Slot(1) has a child, so it is not the last entry and cannot be
        // removed; only its child Slot(2) can.
        assert_eq!(p.remove_last(Slot(1)), Err(PlanError::InvalidSlot(Slot(1))));
        assert_eq!(p.remove_last(Slot(2)).unwrap(), n(2));
    }

    #[test]
    fn demote_childless_agent_roundtrip() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.convert_to_agent(Slot(1)).unwrap();
        p.convert_to_server(Slot(1)).unwrap();
        assert_eq!(p.role(Slot(1)), Role::Server);
    }

    #[test]
    fn demote_rejects_root_parents_and_servers() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.convert_to_agent(Slot(1)).unwrap();
        p.add_server(Slot(1), n(2)).unwrap();
        assert_eq!(
            p.convert_to_server(Slot(0)),
            Err(PlanError::CannotRemoveRoot)
        );
        assert_eq!(
            p.convert_to_server(Slot(1)),
            Err(PlanError::AgentHasChildren(Slot(1)))
        );
        assert_eq!(
            p.convert_to_server(Slot(2)),
            Err(PlanError::NotAnAgent(Slot(2)))
        );
    }

    #[test]
    fn move_child_reparents_subtree() {
        // root -> a(1) -> s(2), root -> s(3); move s(3) under a(1).
        let mut p = DeploymentPlan::with_root(n(0));
        let a = p.add_agent(Slot(0), n(1)).unwrap();
        p.add_server(a, n(2)).unwrap();
        let s3 = p.add_server(p.root(), n(3)).unwrap();
        p.move_child(s3, a).unwrap();
        assert_eq!(p.parent(s3), Some(a));
        assert_eq!(p.degree(p.root()), 1);
        assert_eq!(p.degree(a), 2);
        assert_eq!(p.level(s3), 2);
    }

    #[test]
    fn move_child_to_same_parent_is_noop() {
        let mut p = DeploymentPlan::agent_server(n(0), n(1));
        p.move_child(Slot(1), Slot(0)).unwrap();
        assert_eq!(p.parent(Slot(1)), Some(Slot(0)));
        assert_eq!(p.degree(Slot(0)), 1);
    }

    #[test]
    fn move_child_rejects_cycles_roots_and_server_targets() {
        let mut p = DeploymentPlan::with_root(n(0));
        let a = p.add_agent(Slot(0), n(1)).unwrap();
        let b = p.add_agent(a, n(2)).unwrap();
        let s = p.add_server(b, n(3)).unwrap();
        assert_eq!(p.move_child(Slot(0), a), Err(PlanError::CannotRemoveRoot));
        assert_eq!(p.move_child(a, b), Err(PlanError::WouldCreateCycle(a)));
        assert_eq!(p.move_child(a, a), Err(PlanError::WouldCreateCycle(a)));
        assert_eq!(p.move_child(b, s), Err(PlanError::ParentIsServer(s)));
    }

    #[test]
    fn levels_and_bfs() {
        let mut p = DeploymentPlan::with_root(n(0));
        let a = p.add_agent(Slot(0), n(1)).unwrap();
        let s1 = p.add_server(a, n(2)).unwrap();
        let s2 = p.add_server(p.root(), n(3)).unwrap();
        assert_eq!(p.level(p.root()), 0);
        assert_eq!(p.level(a), 1);
        assert_eq!(p.level(s1), 2);
        assert_eq!(p.level(s2), 1);
        assert_eq!(p.bfs_order(), vec![Slot(0), a, s2, s1]);
    }

    #[test]
    fn render_contains_all_entries() {
        let mut p = DeploymentPlan::with_root(n(0));
        let a = p.add_agent(Slot(0), n(1)).unwrap();
        p.add_server(a, n(2)).unwrap();
        p.add_server(a, n(3)).unwrap();
        let r = p.render();
        for id in 0..4 {
            assert!(r.contains(&format!("n{id}")), "missing n{id} in:\n{r}");
        }
    }

    #[test]
    fn display_summary() {
        let p = DeploymentPlan::agent_server(n(0), n(1));
        assert_eq!(p.to_string(), "plan: 1 agents, 1 servers, depth 2");
    }
}
