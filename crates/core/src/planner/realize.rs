//! Shared machinery: realizing a hierarchy from a chosen agent/server split.
//!
//! Under the model (Section 3), the scheduling throughput of a hierarchy
//! depends only on each agent's **own degree** (every request traverses
//! every agent exactly once), not on where agents sit in the tree. Once a
//! planner has decided *which* nodes are agents and *which* are servers,
//! the only remaining freedom that matters is the **degree distribution** —
//! and the best distribution is the one maximizing the minimum per-agent
//! scheduling power.
//!
//! [`Waterfill`] computes that distribution greedily: child slots are
//! handed out one at a time, always to the agent whose scheduling power
//! *after* the assignment is highest. Because an agent's cycle time is
//! strictly increasing in its degree, this greedy is exchange-optimal for
//! the max-min objective. It is the one waterfill of the planners: the
//! sweeps' scans and winner replays, the mix sweep's child schedule, the
//! rebalance scan and [`waterfill_degrees`] all step it.
//!
//! [`realize`] then builds a concrete tree: agents are attached
//! breadth-first under earlier agents, servers fill the remaining slots.
//! Feasibility: every agent has degree ≥ 1 (checked), so when agent `i`
//! is attached the first `i` agents hold at least one free slot.

// audit: allow-file(unwrap, "realize-phase invariants are documented site by site
// in the expect messages; the sweep parity suite exercises every path")
use crate::model::throughput::sch_pow;
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Role, Slot};
use adept_platform::{MflopRate, NodeId, Platform, SiteId};
use std::cmp::Ordering;

/// Max-heap key for incremental waterfills: the scheduling power an agent
/// would have after receiving one more child. Ties resolve to the lower
/// agent index, so heap-driven assignment is deterministic.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    /// `sch_pow` of the agent at `degree + 1`.
    pub sp_after: f64,
    /// Agent index in the caller's agent list.
    pub agent: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sp_after
            .partial_cmp(&other.sp_after)
            .expect("scheduling powers are finite")
            .then_with(|| other.agent.cmp(&self.agent))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The child-slot waterfill, one slot at a time: each
/// [`step`](Waterfill::step) hands the next child slot to the agent whose
/// scheduling power after it is highest, ties to the lower index
/// ([`HeapEntry`]'s rule). Agent `i` has power `powers[i]` and starts at
/// degree zero. O(log k) per step.
pub(crate) struct Waterfill<'a> {
    params: &'a ModelParams,
    powers: &'a [f64],
    degrees: Vec<usize>,
    heap: std::collections::BinaryHeap<HeapEntry>,
    childless: usize,
}

impl<'a> Waterfill<'a> {
    pub(crate) fn new(params: &'a ModelParams, powers: &'a [f64]) -> Self {
        let heap = powers
            .iter()
            .enumerate()
            .map(|(agent, &w)| HeapEntry {
                sp_after: sch_pow(params, MflopRate(w), 1),
                agent,
            })
            .collect();
        Self {
            params,
            powers,
            degrees: vec![0; powers.len()],
            heap,
            childless: powers.len(),
        }
    }

    /// Hands out the next child slot. Returns the agent that receives
    /// it and that agent's scheduling power at its new degree.
    ///
    /// # Panics
    /// Panics when there are no agents.
    pub(crate) fn step(&mut self) -> (usize, f64) {
        let top = self.heap.pop().expect("a waterfill has at least one agent");
        let i = top.agent;
        if self.degrees[i] == 0 {
            self.childless -= 1;
        }
        self.degrees[i] += 1;
        self.heap.push(HeapEntry {
            sp_after: sch_pow(self.params, MflopRate(self.powers[i]), self.degrees[i] + 1),
            agent: i,
        });
        (i, top.sp_after)
    }

    /// Agents still at degree zero.
    pub(crate) fn childless(&self) -> usize {
        self.childless
    }

    /// Every agent's degree after `total` steps.
    ///
    /// # Panics
    /// Panics when `powers` is empty and `total > 0`.
    pub(crate) fn degrees_after(params: &ModelParams, powers: &[f64], total: usize) -> Vec<usize> {
        let mut waterfill = Waterfill::new(params, powers);
        for _ in 0..total {
            waterfill.step();
        }
        waterfill.degrees
    }
}

/// Lazy max-heap over an [`IncrementalEval`]'s agents keyed by
/// post-attachment scheduling power — replaces an O(k) scan with
/// O(log k) amortized selection inside the greedy growth loop
/// (`MixPlanner::grow`, which the heuristic runs too) and the online
/// reviser's grow moves ([`online`](super::online)). Entries go stale
/// when an agent's degree changes; [`AttachHeap::best`] discards and
/// re-keys stale tops lazily, so selection (max `sp_after`, ties to the
/// lower slot) is identical to the scan's.
pub(crate) struct AttachHeap {
    heap: std::collections::BinaryHeap<HeapEntry>,
}

impl AttachHeap {
    fn key(params: &ModelParams, eval: &IncrementalEval, slot: Slot) -> f64 {
        sch_pow(params, eval.power(slot), eval.degree(slot) + 1)
    }

    /// Rebuilds from the engine's current agent set (after conversions).
    /// No-op on a site-aware evaluator ([`best_for`](AttachHeap::best_for)
    /// scans instead of consulting the heap).
    pub(crate) fn rebuild(&mut self, params: &ModelParams, eval: &IncrementalEval) {
        self.heap.clear();
        if eval.is_site_aware() {
            return;
        }
        for slot in eval.agents() {
            self.heap.push(HeapEntry {
                sp_after: Self::key(params, eval, slot),
                agent: slot.index(),
            });
        }
    }

    pub(crate) fn new(params: &ModelParams, eval: &IncrementalEval) -> Self {
        let mut h = Self {
            heap: std::collections::BinaryHeap::new(),
        };
        h.rebuild(params, eval);
        h
    }

    /// The agent that keeps the highest scheduling power after one more
    /// child — the same answer the O(k) scan would give.
    pub(crate) fn best(&mut self, params: &ModelParams, eval: &IncrementalEval) -> Slot {
        loop {
            let top = self.heap.peek().expect("agents are never empty");
            let slot = Slot(top.agent);
            let fresh = Self::key(params, eval, slot);
            if top.sp_after == fresh {
                return slot;
            }
            // Stale (the agent's degree changed since insertion): re-key.
            self.heap.pop();
            self.heap.push(HeapEntry {
                sp_after: fresh,
                agent: slot.index(),
            });
        }
    }

    /// Attach target for a child living on `child_site`: on a site-aware
    /// evaluator this is [`best_attach_agent_site_aware`]'s joint
    /// (power, link) ranking — the heap's power-only key cannot express
    /// a per-site cost; on a uniform evaluator it is exactly
    /// [`best`](AttachHeap::best).
    pub(crate) fn best_for(
        &mut self,
        params: &ModelParams,
        eval: &IncrementalEval,
        child_site: SiteId,
    ) -> Slot {
        if !eval.is_site_aware() {
            return self.best(params, eval);
        }
        best_attach_agent_site_aware(eval, child_site)
    }

    /// Re-keys one agent after its degree changed (no-op on a site-aware
    /// evaluator, where [`best_for`](AttachHeap::best_for) scans).
    pub(crate) fn update(&mut self, params: &ModelParams, eval: &IncrementalEval, slot: Slot) {
        if eval.is_site_aware() {
            return;
        }
        self.heap.push(HeapEntry {
            sp_after: Self::key(params, eval, slot),
            agent: slot.index(),
        });
    }
}

/// The site-aware attach ranking behind [`AttachHeap::best_for`]: the
/// agent minimizing its full post-attach cycle for a child living on
/// `child_site` — parent link + child-link running sum + the real
/// agent↔child link + Eq. 5 — so
/// (power, link) are judged **jointly**; a strong agent behind a slow
/// WAN loses to a weaker local one once the link dominates. O(k) over
/// the current agents; ties resolve to the lower slot, matching the
/// uniform heap rule.
fn best_attach_agent_site_aware(eval: &IncrementalEval, child_site: SiteId) -> Slot {
    debug_assert!(eval.is_site_aware(), "uniform evaluators use the heap");
    eval.agents()
        .min_by(|&a, &b| {
            let ca = eval.cycle_with_extra_child(a, child_site);
            let cb = eval.cycle_with_extra_child(b, child_site);
            ca.partial_cmp(&cb)
                .expect("cycles are finite")
                .then(a.cmp(&b))
        })
        .expect("plans always contain the root agent")
}

/// The structural stage of a `shift_nodes` conversion, shared by the
/// greedy growth loop (`MixPlanner::grow`) and the multi-site sweeps'
/// phase 2: promotes `victim` to an agent, then steal-rebalances
/// children toward it — each step takes a child from the currently
/// binding (lowest `sch_pow`) agent, found through a lazily re-keyed
/// min-heap, as long as the newcomer's post-move power exceeds that
/// minimum. All deltas stay on the engine's undo stack for the caller
/// to commit or unwind.
///
/// On a site-aware evaluator the rebalance steals **concrete** children
/// (the abstract degree shuffle cannot price the moved links): see
/// [`promote_and_steal_site_aware`].
///
/// Returns `false` — with every delta already unwound — when the
/// conversion is structurally infeasible: the newcomer would strip the
/// binding agent bare (`degree <= 1`), or attracts no children at all
/// (a wasted level; the scratch waterfill's `degrees.contains(&0)`
/// rejection).
pub(crate) fn promote_and_steal(
    params: &ModelParams,
    eval: &mut IncrementalEval,
    victim: Slot,
) -> bool {
    if eval.is_site_aware() {
        return promote_and_steal_site_aware(eval, victim);
    }
    // Min-heap over the old agents by *current* scheduling power (the
    // binding agent on top).
    let mut binding: std::collections::BinaryHeap<std::cmp::Reverse<HeapEntry>> = eval
        .agents()
        .map(|s| {
            std::cmp::Reverse(HeapEntry {
                sp_after: sch_pow(params, eval.power(s), eval.degree(s)),
                agent: s.index(),
            })
        })
        .collect();

    eval.promote_to_agent(victim).expect("victim is a server");
    let victim_power = eval.power(victim);
    loop {
        let worst = loop {
            let std::cmp::Reverse(top) = binding.peek().expect("agents are never empty");
            let slot = Slot(top.agent);
            let fresh = sch_pow(params, eval.power(slot), eval.degree(slot));
            if top.sp_after == fresh {
                break slot;
            }
            // Stale (the agent's degree changed since insertion): re-key.
            binding.pop();
            binding.push(std::cmp::Reverse(HeapEntry {
                sp_after: fresh,
                agent: slot.index(),
            }));
        };
        let sp_worst = sch_pow(params, eval.power(worst), eval.degree(worst));
        let sp_victim_next = sch_pow(params, victim_power, eval.degree(victim) + 1);
        if sp_victim_next <= sp_worst {
            break;
        }
        if eval.degree(worst) <= 1 {
            eval.undo_all();
            return false;
        }
        eval.release_child_slot(worst).expect("degree > 1");
        eval.assign_child_slot(victim).expect("victim is an agent");
        binding.push(std::cmp::Reverse(HeapEntry {
            sp_after: sch_pow(params, eval.power(worst), eval.degree(worst)),
            agent: worst.index(),
        }));
    }
    if eval.degree(victim) == 0 {
        eval.undo_all();
        return false;
    }
    true
}

/// Site-aware `shift_nodes` rebalance: promotes `victim`, then while the
/// binding agent's cycle dominates, moves that agent's **cheapest-to-adopt
/// concrete child** (the one minimizing the victim↔child link, ties to
/// the lower slot) under the victim via real [`move_child`](IncrementalEval::move_child)
/// deltas — so every stolen link is priced
/// at its true bandwidth, and the victim's own parent link is already in
/// its cycle. Stops when adopting the best child would not beat the
/// binding cycle; bails out (all deltas unwound) when the binding agent
/// would be stripped bare or the victim attracts nothing.
fn promote_and_steal_site_aware(eval: &mut IncrementalEval, victim: Slot) -> bool {
    eval.promote_to_agent(victim).expect("victim is a server");
    // The victim's ancestor chain can never move under it (cycle).
    let mut blocked: Vec<Slot> = Vec::new();
    let mut cur = Some(victim);
    while let Some(s) = cur {
        blocked.push(s);
        cur = eval.parent_of(s);
    }
    // Each round moves one child of the binding old agent (highest
    // cached cycle, victim excluded) under the victim.
    while let Some(worst) = eval.agents().filter(|&a| a != victim).max_by(|&a, &b| {
        let ca = eval.cached_cycle(a);
        let cb = eval.cached_cycle(b);
        ca.partial_cmp(&cb)
            .expect("cycles are finite")
            .then(b.cmp(&a))
    }) {
        let candidates: Vec<Slot> = eval
            .children_of(worst)
            .into_iter()
            .filter(|c| !blocked.contains(c))
            .collect();
        let Some(&best_child) = candidates.iter().min_by(|&&x, &&y| {
            let lx = eval.cycle_with_extra_child(victim, eval.site_of_slot(x));
            let ly = eval.cycle_with_extra_child(victim, eval.site_of_slot(y));
            lx.partial_cmp(&ly)
                .expect("cycles are finite")
                .then(x.cmp(&y))
        }) else {
            break; // nothing the binding agent can safely give up
        };
        let victim_next = eval.cycle_with_extra_child(victim, eval.site_of_slot(best_child));
        if victim_next >= eval.cached_cycle(worst) {
            break; // adopting would not relieve the bottleneck
        }
        if eval.degree(worst) <= 1 {
            eval.undo_all();
            return false;
        }
        eval.move_child(best_child, victim)
            .expect("victim is an agent and the child is no ancestor");
    }
    if eval.degree(victim) == 0 {
        eval.undo_all();
        return false;
    }
    true
}

/// Realizes an incremental engine's final state into a concrete tree.
///
/// Uniform mode: agents strongest-first (the root is the strongest node,
/// as in Algorithm 1's sort), servers strongest-first, degrees as grown —
/// the tree's throughput equals the engine's ρ because the homogeneous
/// Eq. 13–16 only sees the role/degree/power multiset. Site-aware mode:
/// the engine's **exact topology** is reproduced ([`realize_topology`]) —
/// under per-link bandwidths, which parent a child hangs from *is* part
/// of the cost, so re-shuffling by power would change ρ.
pub(crate) fn realize_from_eval(eval: &IncrementalEval) -> DeploymentPlan {
    if eval.is_site_aware() {
        return realize_topology(eval);
    }
    // Positive finite powers order like their IEEE bit patterns, so the
    // nested float comparator collapses to an integer key sort; the node
    // id tiebreak makes the order total, so unstable sorting is safe.
    let by_power_desc = |eval: &IncrementalEval, slots: &mut Vec<Slot>| {
        slots.sort_unstable_by_key(|&s| {
            (
                std::cmp::Reverse(crate::model::batch::descending_key(eval.power(s).value())),
                eval.node(s),
            )
        });
    };
    let mut agents: Vec<Slot> = eval.agents().collect();
    by_power_desc(eval, &mut agents);
    let mut servers: Vec<Slot> = eval.servers().collect();
    by_power_desc(eval, &mut servers);
    let agent_nodes: Vec<NodeId> = agents.iter().map(|&s| eval.node(s)).collect();
    let server_nodes: Vec<NodeId> = servers.iter().map(|&s| eval.node(s)).collect();
    let degrees: Vec<usize> = agents.iter().map(|&s| eval.degree(s)).collect();
    realize(&agent_nodes, &server_nodes, &degrees)
}

/// Reproduces a site-aware engine's exact tree: same root, same parent
/// for every active slot, same roles. Children attach in BFS order so
/// every parent exists before its children whatever reparenting history
/// the engine accumulated.
///
/// # Panics
/// Panics when the engine does not hold exactly one active parentless
/// slot (site-aware growth always starts from a rooted plan).
fn realize_topology(eval: &IncrementalEval) -> DeploymentPlan {
    let active: Vec<Slot> = (0..eval.raw_len())
        .map(Slot)
        .filter(|&s| eval.is_active_slot(s))
        .collect();
    let roots: Vec<Slot> = active
        .iter()
        .copied()
        .filter(|&s| eval.parent_of(s).is_none())
        .collect();
    assert_eq!(
        roots.len(),
        1,
        "site-aware realization needs exactly one root"
    );
    let root = roots[0];
    let mut children: Vec<Vec<Slot>> = vec![Vec::new(); eval.raw_len()];
    for &s in &active {
        if let Some(p) = eval.parent_of(s) {
            children[p.index()].push(s);
        }
    }
    // BFS assigns final slots: the children of a popped slot take
    // consecutive indices, so `from_parts`'s ascending-slot child order
    // equals the BFS insertion order an add-based build would produce —
    // one bulk allocation instead of per-entry child vectors.
    let mut nodes = Vec::with_capacity(active.len());
    let mut roles = Vec::with_capacity(active.len());
    let mut parents = Vec::with_capacity(active.len());
    let mut map = vec![Slot(usize::MAX); eval.raw_len()];
    map[root.index()] = Slot(0);
    nodes.push(eval.node(root));
    roles.push(Role::Agent);
    parents.push(None);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(s) = queue.pop_front() {
        for &c in &children[s.index()] {
            map[c.index()] = Slot(nodes.len());
            nodes.push(eval.node(c));
            roles.push(eval.role(c));
            parents.push(Some(map[s.index()]));
            queue.push_back(c);
        }
    }
    DeploymentPlan::from_parts(nodes, roles, parents)
        .expect("the engine's topology is a rooted tree over unique nodes")
}

/// Balanced degree distribution for `agents` (any order) receiving
/// `total_children` child slots: the [`Waterfill`] with ties to the
/// **later** agent, the rule that decides the tree of every multi-site
/// rebalance. It steps the waterfill over the reversed list and
/// reverses the degrees back, which is exact: each agent's key depends
/// only on its own power and degree. Returns one degree per agent.
///
/// # Panics
/// Panics if `agents` is empty and `total_children > 0`.
pub(crate) fn waterfill_degrees(
    params: &ModelParams,
    platform: &Platform,
    agents: &[NodeId],
    total_children: usize,
) -> Vec<usize> {
    assert!(
        !agents.is_empty() || total_children == 0,
        "cannot distribute children without agents"
    );
    let reversed: Vec<f64> = agents
        .iter()
        .rev()
        .map(|&a| platform.power(a).value())
        .collect();
    let mut degrees = Waterfill::degrees_after(params, &reversed, total_children);
    degrees.reverse();
    degrees
}

/// Builds a tree over `agents` (`agents[0]` becomes the root) and `servers`
/// with the given per-agent degrees. Degrees must sum to
/// `agents.len() - 1 + servers.len()` and every agent must have degree ≥ 1.
///
/// Agents are attached in list order under the earliest agent with spare
/// capacity (BFS flavor: strong agents stay near the root); servers then
/// fill all remaining slots.
///
/// # Panics
/// Panics if the degree sum does not match or an agent has degree 0 —
/// callers filter such configurations out before realizing.
pub(crate) fn realize(agents: &[NodeId], servers: &[NodeId], degrees: &[usize]) -> DeploymentPlan {
    assert_eq!(agents.len(), degrees.len(), "one degree per agent");
    assert!(!agents.is_empty(), "need at least the root agent");
    let total: usize = degrees.iter().sum();
    assert_eq!(
        total,
        agents.len() - 1 + servers.len(),
        "degrees must exactly cover all non-root entries"
    );
    assert!(
        degrees.iter().all(|&d| d > 0),
        "every agent must have at least one child"
    );

    // Agents take slots 0..A in list order, servers A..n — the same
    // numbering an add-based build would produce — so the whole tree can
    // go through `from_parts` in one allocation pass. `cursor` is the
    // earliest agent that may still have spare capacity; feasibility
    // (every degree ≥ 1) guarantees it never runs past the slots already
    // placed, so the parent choice matches the incremental build exactly.
    let n = agents.len() + servers.len();
    let mut nodes = Vec::with_capacity(n);
    nodes.extend_from_slice(agents);
    nodes.extend_from_slice(servers);
    let mut roles = vec![Role::Agent; agents.len()];
    roles.resize(n, Role::Server);
    let mut parents = Vec::with_capacity(n);
    parents.push(None);
    let mut capacity: Vec<usize> = degrees.to_vec();
    let mut cursor = 0usize;
    for _ in 1..n {
        while capacity[cursor] == 0 {
            cursor += 1;
        }
        capacity[cursor] -= 1;
        parents.push(Some(Slot(cursor)));
    }
    DeploymentPlan::from_parts(nodes, roles, parents)
        .expect("a validated split realizes into a well-formed plan")
}

/// Convenience: waterfill + realize for an agent/server split, using all
/// the given servers. Returns `None` when the waterfill leaves an agent
/// without children (the split wastes an agent and is dominated by a
/// smaller one).
pub(crate) fn realize_balanced(
    params: &ModelParams,
    platform: &Platform,
    agents: &[NodeId],
    servers: &[NodeId],
) -> Option<DeploymentPlan> {
    let total = agents.len() - 1 + servers.len();
    let degrees = waterfill_degrees(params, platform, agents, total);
    if degrees.contains(&0) {
        return None;
    }
    Some(realize(agents, servers, &degrees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_hierarchy::validate::validate_relaxed;
    use adept_platform::generator::{lyon_cluster, uniform_random_cluster};
    use adept_platform::MflopRate;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn waterfill_homogeneous_is_even() {
        let platform = lyon_cluster(10);
        let params = crate::model::ModelParams::from_platform(&platform);
        let agents = ids(3);
        let degrees = waterfill_degrees(&params, &platform, &agents, 11);
        assert_eq!(degrees.iter().sum::<usize>(), 11);
        let (lo, hi) = (
            *degrees.iter().min().unwrap(),
            *degrees.iter().max().unwrap(),
        );
        assert!(
            hi - lo <= 1,
            "homogeneous agents balance evenly: {degrees:?}"
        );
    }

    #[test]
    fn waterfill_weak_agent_gets_fewer_children() {
        // One strong and one weak agent.
        use adept_platform::{Network, Platform};
        let mut b = Platform::builder(Network::homogeneous(adept_platform::MbitRate(100.0)));
        let s = b.add_site("x");
        b.add_node("strong", MflopRate(800.0), s).unwrap();
        b.add_node("weak", MflopRate(100.0), s).unwrap();
        let p = b.build().unwrap();
        let params = crate::model::ModelParams::from_platform(&p);
        let degrees = waterfill_degrees(&params, &p, &ids(2), 12);
        assert!(
            degrees[0] > degrees[1],
            "strong agent takes more: {degrees:?}"
        );
        assert_eq!(degrees.iter().sum::<usize>(), 12);
    }

    #[test]
    fn waterfill_on_random_platform_conserves_children() {
        let platform = uniform_random_cluster("u", 8, MflopRate(50.0), MflopRate(500.0), 3);
        let params = crate::model::ModelParams::from_platform(&platform);
        let degrees = waterfill_degrees(&params, &platform, &ids(4), 20);
        assert_eq!(degrees.iter().sum::<usize>(), 20);
    }

    /// One step of the O(k)-per-step scan the waterfill heap replaced:
    /// the agent with the highest `sch_pow` at one more child, ties to
    /// the later agent when `last`, else to the earlier one.
    fn scan_step(
        params: &ModelParams,
        powers: &[f64],
        degrees: &[usize],
        last: bool,
    ) -> (usize, f64) {
        let mut best: Option<(usize, f64)> = None;
        for (i, &w) in powers.iter().enumerate() {
            let sp = sch_pow(params, MflopRate(w), degrees[i] + 1);
            if best.is_none_or(|(_, b)| if last { sp >= b } else { sp > b }) {
                best = Some((i, sp));
            }
        }
        best.unwrap()
    }

    #[test]
    fn waterfill_matches_the_scan_it_replaces_ties_included() {
        use adept_platform::generator::{homogeneous_cluster, multi_site_grid};
        use adept_platform::MbitRate;
        const TOTALS: usize = 40;
        let platforms = [
            // Every key ties.
            homogeneous_cluster("h", 12, MflopRate(400.0)),
            // Four power levels: many exact ties.
            multi_site_grid(3, 8, MflopRate(400.0), MbitRate(100.0), MbitRate(5.0), 7),
            uniform_random_cluster("u", 24, MflopRate(50.0), MflopRate(500.0), 11),
        ];
        for platform in &platforms {
            let params = crate::model::ModelParams::from_platform(platform);
            let all: Vec<NodeId> = platform.ids().collect();
            for k in 1..=8 {
                for agents in [&all[..k], &all[all.len() - k..]] {
                    let powers: Vec<f64> =
                        agents.iter().map(|&a| platform.power(a).value()).collect();
                    let mut waterfill = Waterfill::new(&params, &powers);
                    let mut first = vec![0usize; k];
                    let mut last = vec![0usize; k];
                    for total in 0..TOTALS {
                        let at = format!(
                            "{} k={k} agents={agents:?} total={total}",
                            platform.name(NodeId(0))
                        );
                        assert_eq!(
                            Waterfill::degrees_after(&params, &powers, total),
                            first,
                            "{at}"
                        );
                        assert_eq!(
                            waterfill_degrees(&params, platform, agents, total),
                            last,
                            "{at}"
                        );
                        let (agent, sp) = waterfill.step();
                        let (want, want_sp) = scan_step(&params, &powers, &first, false);
                        assert_eq!((agent, sp.to_bits()), (want, want_sp.to_bits()), "{at}");
                        first[want] += 1;
                        assert_eq!(
                            waterfill.childless(),
                            first.iter().filter(|&&d| d == 0).count(),
                            "{at}"
                        );
                        let (later, _) = scan_step(&params, &powers, &last, true);
                        last[later] += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn realize_star() {
        let plan = realize(&ids(1), &ids(5)[1..], &[4]);
        assert_eq!(plan.agent_count(), 1);
        assert_eq!(plan.server_count(), 4);
        assert_eq!(plan.depth(), 2);
    }

    #[test]
    fn realize_two_level() {
        // agents n0..n2, servers n3..n9; degrees 2,3,4 → root has 2 agent
        // children... total children = 2 + 7 = 9 = 2+3+4.
        let all = ids(10);
        let plan = realize(&all[0..3], &all[3..], &[2, 3, 4]);
        assert_eq!(plan.agent_count(), 3);
        assert_eq!(plan.server_count(), 7);
        assert!(validate_relaxed(&plan).is_empty());
        // Agent degrees match the request (order-insensitive check).
        let mut got: Vec<usize> = plan.agents().map(|a| plan.degree(a)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn realize_balanced_none_when_agent_would_be_empty() {
        let platform = lyon_cluster(4);
        let params = crate::model::ModelParams::from_platform(&platform);
        let all = ids(4);
        // 3 agents + 1 server → total children 3, waterfill gives 1 each —
        // fine. 4 agents + 0 servers → total 3 < 4 agents → someone gets 0.
        assert!(realize_balanced(&params, &platform, &all[0..3], &all[3..]).is_some());
        assert!(realize_balanced(&params, &platform, &all[0..4], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "degrees must exactly cover")]
    fn realize_rejects_bad_degree_sum() {
        let all = ids(5);
        let _ = realize(&all[0..2], &all[2..], &[1, 1]);
    }

    #[test]
    fn realize_many_shapes_are_valid() {
        let platform = lyon_cluster(30);
        let params = crate::model::ModelParams::from_platform(&platform);
        let all = ids(30);
        for k in 1..12 {
            if let Some(plan) = realize_balanced(&params, &platform, &all[0..k], &all[k..]) {
                assert_eq!(plan.len(), 30, "k={k} uses all nodes");
                assert!(validate_relaxed(&plan).is_empty(), "k={k}");
            }
        }
    }
}
