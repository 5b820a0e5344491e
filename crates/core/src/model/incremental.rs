//! Incremental throughput evaluation — O(log n) delta re-evaluation of the
//! Section 3 model.
//!
//! The greedy planners (Algorithm 1's growth loop, the \[7\] rebalance
//! pass, the online re-planner) probe thousands of candidate moves, and
//! each probe used to clone the whole [`DeploymentPlan`] and re-run
//! [`throughput::evaluate`] from scratch —
//! O(n) per probe, O(n²)–O(n³) per planning run. This module exploits the
//! model's locality instead: under Eq. 13–16 a deployment's throughput is
//!
//! ```text
//! ρ = min( 1 / max_i cycle_i ,  ρ_service )          (Eq. 14–16)
//! ```
//!
//! where `cycle_i` depends only on slot *i*'s role, power, and degree, and
//! `ρ_service` (Eq. 15) depends only on two running sums over the server
//! set. Every structural delta — attaching a server, retiring one,
//! promoting a server to an agent, reparenting a child — touches O(1)
//! slots, so the bottleneck only needs an updatable max structure:
//!
//! * **per-slot cycle cache** — agent scheduling cycles (Eq. 14's second
//!   term) and server prediction cycles (its first term), recomputed only
//!   for the touched slots;
//! * **tournament tree** (`MaxTree`) over the cycles — the root holds
//!   the binding stage, updates cost O(log n), ties resolve to the lowest
//!   slot exactly like the sequential scan in `throughput::evaluate`;
//! * **service running sums** — Eq. 10's numerator `1 + Σ Wpre/Wapp` and
//!   denominator `Σ wᵢ/Wapp` maintained in O(1).
//!
//! Construction is batched for scale: the builders install slots with
//! cycle computation deferred, then one `finish_build` pass splits the
//! plan into structure-of-arrays role/power/degree lanes, runs the
//! [`batch`] kernels over them, and heapifies the
//! tournament tree bottom-up in O(n) — at n = 10⁵–10⁶ this is what
//! keeps evaluator setup (the dominant cost of one-shot planning at
//! scale) in the tens of milliseconds. The batched kernels are
//! bit-exact with the per-slot scalar path, so a batch-built evaluator
//! is indistinguishable from an incrementally-built one.
//!
//! # Delta API
//!
//! [`IncrementalEval::add_server`], [`remove_server`],
//! [`promote_to_agent`], [`move_child`] and the
//! abstract [`assign_child_slot`] / [`release_child_slot`] pair each
//! run in O(log n) and push an inverse record onto an undo stack;
//! [`undo`](IncrementalEval::undo) pops one delta and restores the
//! previous state **bit-exactly** (changed floats are saved and restored
//! verbatim, never recomputed), so a probe-and-retract loop cannot drift.
//!
//! # Batched multi-service evaluation
//!
//! A [`ServiceMix`] deployment shares the scheduling phase — every
//! request crosses every agent whatever its service, so Eq. 14 is one
//! number — while the servers are **partitioned**: a server hosts exactly
//! one service and only feeds that service's Eq. 15 sums. The evaluator
//! therefore keeps *one* tournament tree and, per service `j`, the Eq. 10
//! running sums as structure-of-arrays
//! ([`svc_numerator`](IncrementalEval)/`svc_denominator`/…). A delta
//! touches at most one service's sums (the server being attached,
//! retired or promoted belongs to exactly one service), so every
//! mutation still costs one O(log n) tree pass plus O(1) sum updates —
//! and updates **all** services' throughputs at once; queries are O(S)
//! for S services. Build with [`from_plan_mix`] / [`from_agents_mix`],
//! attach with [`add_server_for`], move a server between services
//! with [`reassign_server`](IncrementalEval::reassign_server) (an O(1)
//! reinstall — the scheduling phase is untouched), read with
//! [`rho_service_of`](IncrementalEval::rho_service_of) and
//! [`mix_report`](IncrementalEval::mix_report). The single-service
//! constructors are the one-service special case of the same machinery
//! (share 1.0), with bit-identical results.
//!
//! # Site-aware evaluation (heterogeneous communication)
//!
//! On a platform whose network distinguishes links
//! ([`Network::PerSitePair`](adept_platform::Network::PerSitePair)), the
//! evaluator runs in **site-aware mode**: it carries a per-slot site
//! vector and dense per-site-pair link-cost tables (prefetched from
//! [`Network::pair_table`](adept_platform::Network::pair_table) at
//! construction, indexed branch-free on the hot path), and maintains the
//! [`hetero`](super::hetero) generalization of Eq. 1–16:
//!
//! * an agent's cycle is its parent-link cost plus a **running sum of
//!   per-child link costs** (`child_sum`) plus Eq. 5 — not
//!   `degree × uniform_cost`;
//! * a server's prediction cycle prices the server↔parent link;
//! * each service's Eq. 15 transfer bound is the **worst client↔server
//!   link** over the sites its partition occupies, maintained through
//!   per-`(service, site)` server counts;
//! * the root's parent link and the Eq. 15 transfers go to
//!   [`ModelParams::client_site`] when set, else each endpoint's own
//!   site.
//!
//! Every delta stays O(log n) (`move_child` additionally refreshes the
//! moved child's own cycle — its parent link changed) and undo remains
//! bit-exact: touched `child_sum` floats are saved and restored verbatim
//! alongside the cycles and service sums. On a homogeneous network the
//! site machinery is absent (`site: None`) and every code path is the
//! pre-existing uniform one, **bit-identically** — the single-site fast
//! path costs nothing. Abstract [`assign_child_slot`] probes price the
//! phantom child at the agent's own site; use [`assign_child_slot_at`]
//! to price a concrete site.
//!
//! # Parity contract
//!
//! [`rho`](IncrementalEval::rho) and [`report`](IncrementalEval::report)
//! match a from-scratch [`ModelParams::evaluate`] of the equivalent plan to
//! within 1e-9 relative (exactly, for the scheduling phase; the service
//! sums can differ from the sequential re-summation by float associativity
//! only) — in site-aware mode the reference is
//! [`evaluate_hetero`](super::hetero::evaluate_hetero), to the same
//! 1e-9 — and [`mix_report`](IncrementalEval::mix_report) matches
//! [`evaluate_mix`](super::mix::evaluate_mix) the same way, per service.
//! The property test `tests/incremental_parity.rs` drives ~1k randomized
//! single-service mutation sequences plus randomized multi-service and
//! multi-site sequences against the full evaluators to enforce this,
//! including the reported bottleneck kind and bit-exact undo.
//!
//! [`remove_server`]: IncrementalEval::remove_server
//! [`promote_to_agent`]: IncrementalEval::promote_to_agent
//! [`move_child`]: IncrementalEval::move_child
//! [`assign_child_slot`]: IncrementalEval::assign_child_slot
//! [`assign_child_slot_at`]: IncrementalEval::assign_child_slot_at
//! [`release_child_slot`]: IncrementalEval::release_child_slot
//! [`from_plan_mix`]: IncrementalEval::from_plan_mix
//! [`from_agents_mix`]: IncrementalEval::from_agents_mix
//! [`add_server_for`]: IncrementalEval::add_server_for

// audit: allow-file(unwrap, "the bit-exact parity suite (incremental vs from-
// scratch evaluation) exercises every delta path; each expect documents an
// engine invariant")
use super::mix::{MixReport, ServerAssignment};
use super::{batch, comm, compute, throughput, ModelParams};
use crate::analysis::{Bottleneck, ThroughputReport};
use adept_hierarchy::{DeploymentPlan, PlanError, Role, Slot};
use adept_platform::{Mbit, MflopRate, NodeId, Platform, SiteId};
use adept_workload::{ServiceMix, ServiceSpec};
use std::collections::HashSet;
use std::sync::Arc;

/// Tournament (segment) tree over per-slot cycle times: O(1) max query,
/// O(log n) point update. Ties resolve to the lower slot index, matching
/// the first-strict-max scan of the sequential evaluator.
#[derive(Debug, Clone)]
struct MaxTree {
    /// Number of leaves (a power of two).
    size: usize,
    /// Implicit binary heap layout; `tree[1]` is the root. Each node holds
    /// `(cycle, slot)`; empty leaves hold `(NEG_INFINITY, usize::MAX)`.
    tree: Vec<(f64, usize)>,
}

impl MaxTree {
    fn with_capacity(cap: usize) -> Self {
        let size = cap.max(2).next_power_of_two();
        Self {
            size,
            tree: vec![(f64::NEG_INFINITY, usize::MAX); 2 * size],
        }
    }

    #[inline]
    fn combine(a: (f64, usize), b: (f64, usize)) -> (f64, usize) {
        // `>=` keeps the left (lower-slot) branch on ties.
        if a.0 >= b.0 {
            a
        } else {
            b
        }
    }

    fn set(&mut self, slot: usize, cycle: f64) {
        if slot >= self.size {
            self.grow(slot + 1);
        }
        let mut i = self.size + slot;
        self.tree[i] = if cycle == f64::NEG_INFINITY {
            (f64::NEG_INFINITY, usize::MAX)
        } else {
            (cycle, slot)
        };
        i /= 2;
        while i >= 1 {
            self.tree[i] = Self::combine(self.tree[2 * i], self.tree[2 * i + 1]);
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    fn get(&self, slot: usize) -> f64 {
        if slot >= self.size {
            f64::NEG_INFINITY
        } else {
            self.tree[self.size + slot].0
        }
    }

    /// `(max cycle, slot)` over all set slots.
    fn max(&self) -> (f64, usize) {
        self.tree[1]
    }

    /// Bulk bottom-up (re)build: installs `values[slot]` for every slot
    /// in one O(n) pass (leaves, then one combine per internal node)
    /// instead of n root-walks — the construction-time path at
    /// n = 10⁵–10⁶. `NEG_INFINITY` marks an unset leaf. The leaf layout
    /// and the `combine` tie rule are the same as point updates', so the
    /// resulting tree is identical to n `set` calls. Capacity never
    /// shrinks below the current size.
    fn build_from(&mut self, values: &[f64]) {
        let size = values.len().max(self.size).max(2).next_power_of_two();
        self.size = size;
        self.tree.clear();
        self.tree.resize(2 * size, (f64::NEG_INFINITY, usize::MAX));
        for (slot, &v) in values.iter().enumerate() {
            if v != f64::NEG_INFINITY {
                self.tree[size + slot] = (v, slot);
            }
        }
        for i in (1..size).rev() {
            self.tree[i] = Self::combine(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    fn grow(&mut self, needed: usize) {
        let target = (self.size.max(needed) * 2).next_power_of_two();
        let mut values = vec![f64::NEG_INFINITY; target];
        for (v, leaf) in values.iter_mut().zip(&self.tree[self.size..2 * self.size]) {
            *v = leaf.0;
        }
        self.size = 0; // build_from derives the new size from `values`
        self.build_from(&values);
    }
}

/// Prefetched link-cost tables and per-node sites — present only in
/// site-aware mode (heterogeneous network). All costs are full per-link
/// round trips in seconds, computed once from
/// [`Network::pair_table`](adept_platform::Network::pair_table) so the
/// delta hot path is a branch-free table lookup.
#[derive(Debug, Clone)]
struct SiteModel {
    /// Number of sites the tables cover (≥ every node's site index + 1,
    /// and ≥ the client site index + 1 when one is declared).
    site_count: usize,
    /// Agent-tier `Sreq/b + Srep/b + 2·latency`, row-major `[my][other]`.
    agent_link: Vec<f64>,
    /// Server-tier round trip, same layout (server↔parent scheduling
    /// messages).
    server_link: Vec<f64>,
    /// Eq. 15 client↔server transfer per server site (to the client
    /// site when declared, else intra-site).
    service_transfer: Vec<f64>,
    /// Client site index for root parent links; `None` = each root's own
    /// site.
    client_site: Option<usize>,
    /// `NodeId` index → site: the platform's shared
    /// [`site_table`](Platform::site_table), filled once per catalog.
    node_site: Arc<[SiteId]>,
}

impl SiteModel {
    fn build(params: &ModelParams, platform: &Platform) -> Option<Box<SiteModel>> {
        if !params.uses_link_bandwidths(platform) {
            return None;
        }
        let client_site = params.client_site.map(SiteId::index);
        let mut site_count = platform.site_count().max(1);
        if let Some(c) = client_site {
            site_count = site_count.max(c + 1);
        }
        let bw = platform.network().pair_table(site_count);
        let a = &params.calibration.agent;
        let srv = &params.calibration.server;
        let link_table = |sreq: Mbit, srep: Mbit| -> Vec<f64> {
            bw.iter()
                .map(|&b| (sreq / b + srep / b + params.latency * 2.0).value())
                .collect()
        };
        let service_transfer = (0..site_count)
            .map(|site| {
                let b = bw[site * site_count + client_site.unwrap_or(site)];
                (srv.sreq / b + srv.srep / b + params.latency * 2.0).value()
            })
            .collect();
        Some(Box::new(SiteModel {
            site_count,
            agent_link: link_table(a.sreq, a.srep),
            server_link: link_table(srv.sreq, srv.srep),
            service_transfer,
            client_site,
            node_site: Arc::clone(platform.site_table()),
        }))
    }

    /// Agent-tier cost of the `my`↔`other` link.
    #[inline]
    fn agent_link(&self, my: usize, other: usize) -> f64 {
        self.agent_link[my * self.site_count + other]
    }
}

/// Scalars needed to restore the evaluator state bit-exactly on undo.
#[derive(Debug, Clone, Copy)]
struct Saved {
    /// `(service, numerator, denominator)` for every service whose
    /// Eq. 15 sums the delta touched — at most two (a reassignment moves
    /// a server between two services; every other delta touches one or
    /// none).
    services: [(usize, f64, f64); 2],
    /// How many entries of `services` are meaningful.
    touched_services: usize,
    /// `(slot, previous cycle)` for every tree entry the delta touched —
    /// at most three (a site-aware `move_child` refreshes both parents
    /// *and* the moved child's own parent-link cycle).
    cycles: [(usize, f64); 3],
    /// How many entries of `cycles` are meaningful.
    touched: usize,
    /// `(slot, previous child-link running sum)` for every `child_sum`
    /// entry a site-aware delta touched — at most two (`move_child`
    /// moves link cost between two parents). Unused in uniform mode.
    sums: [(usize, f64); 2],
    /// How many entries of `sums` are meaningful.
    touched_sums: usize,
}

/// One applied delta, as recorded on the undo stack.
#[derive(Debug, Clone, Copy)]
enum Delta {
    AddServer {
        slot: usize,
        parent: usize,
    },
    RemoveServer {
        slot: usize,
        parent: usize,
    },
    Promote {
        slot: usize,
    },
    MoveChild {
        child: usize,
        old_parent: usize,
        new_parent: usize,
    },
    AssignChildSlot {
        agent: usize,
    },
    ReleaseChildSlot {
        agent: usize,
    },
    Reassign {
        slot: usize,
        old_service: usize,
    },
}

/// Incrementally maintained model evaluation of a deployment.
///
/// Mirrors a deployment's slots (`Slot(i)` here corresponds to `Slot(i)`
/// of the plan it was built from, for lock-step mutation), caching every
/// per-stage cycle and the Eq. 15 running sums. See the module docs for
/// the complexity contract.
#[derive(Clone)]
pub struct IncrementalEval {
    params: ModelParams,
    /// `(Sreq + Srep)/B` of the service phase, Eq. 15's transfer term
    /// (service-independent: the calibrated server-tier message sizes).
    service_transfer: f64,

    // Per-service Eq. 15 state, structure-of-arrays (index = service in
    // the mix; a single-service evaluator is the len-1 special case).
    /// `Wpre / Wapp_j` — service `j`'s per-server numerator increment.
    svc_wpre_over_wapp: Vec<f64>,
    /// `1 / Wapp_j` — converts a power into `j`'s denominator increment.
    svc_inv_wapp: Vec<f64>,
    /// Eq. 10 numerator of service `j`, `1 + Σ Wpre/Wapp_j` over its
    /// active servers.
    svc_numerator: Vec<f64>,
    /// Eq. 10 denominator of service `j`, `Σ wᵢ/Wapp_j` over its active
    /// servers.
    svc_denominator: Vec<f64>,
    /// Active servers hosting service `j`.
    svc_server_count: Vec<usize>,
    /// Request share `f_j` of service `j` (1.0 for single-service).
    svc_share: Vec<f64>,

    /// Link-cost tables for the site-aware mode; `None` on a uniform
    /// network (every path below then ignores the site machinery and is
    /// bit-identical to the homogeneous engine).
    site: Option<Box<SiteModel>>,
    /// `site.site_count` (1 in uniform mode), denormalized for indexing.
    site_count: usize,

    nodes: Vec<NodeId>,
    powers: Vec<f64>,
    roles: Vec<Role>,
    parents: Vec<Option<usize>>,
    degrees: Vec<usize>,
    /// Per-slot site index (all zero in uniform mode).
    sites: Vec<usize>,
    /// Per-slot running sum of child link costs (site-aware agents only;
    /// all zero in uniform mode).
    child_sum: Vec<f64>,
    /// Service hosted by each slot while it is (or last was) a server;
    /// agents keep their last value (0 for never-servers) so undoing a
    /// promotion returns the node to the service it previously hosted.
    service_of: Vec<usize>,
    /// Active servers per `(service, site)`, `[service * site_count +
    /// site]` — the support of each service's Eq. 15 worst-transfer
    /// bound. Empty in uniform mode.
    svc_site_servers: Vec<u32>,
    active: Vec<bool>,
    used: HashSet<NodeId>,

    tree: MaxTree,
    /// Number of active slots (tombstoned removals excluded).
    active_count: usize,
    server_count: usize,

    undo_stack: Vec<(Delta, Saved)>,
}

impl std::fmt::Debug for IncrementalEval {
    /// A summary of the state. The per-slot arrays are left out, and
    /// with them the `used` set, whose hash order differs from one
    /// engine to the next, so equal engines print alike.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalEval")
            .field("slots", &self.active_count)
            .field("servers", &self.server_count)
            .field("services", &self.svc_share.len())
            .field("site_aware", &self.site.is_some())
            .field("pending_deltas", &self.undo_stack.len())
            .finish_non_exhaustive()
    }
}

impl IncrementalEval {
    /// Builds the evaluator for an existing plan; `Slot(i)` here matches
    /// `Slot(i)` of `plan`. O(n log n).
    pub fn from_plan(
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        service: &ServiceSpec,
    ) -> Self {
        let mut eval = Self::empty(
            params,
            std::slice::from_ref(service),
            &[1.0],
            plan.len(),
            SiteModel::build(params, platform),
        );
        for slot in plan.slots() {
            let node = plan.node(slot);
            eval.push_slot(
                node,
                platform.power(node).value(),
                plan.role(slot),
                plan.parent(slot).map(Slot::index),
                plan.degree(slot),
                0,
            );
        }
        eval.finish_build();
        eval
    }

    /// Builds a **batched multi-service** evaluator for an existing plan
    /// whose servers are partitioned among the mix's services by
    /// `assignment`; `Slot(i)` here matches `Slot(i)` of `plan`.
    /// O(n log n).
    ///
    /// # Errors
    /// [`PlanError::ServerNotAssigned`] when a plan server is missing
    /// from the assignment, [`PlanError::InvalidServiceIndex`] when an
    /// assignment points outside the mix.
    pub fn from_plan_mix(
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
    ) -> Result<Self, PlanError> {
        let shares: Vec<f64> = (0..mix.len()).map(|j| mix.share(j)).collect();
        let mut eval = Self::empty(
            params,
            mix.services(),
            &shares,
            plan.len(),
            SiteModel::build(params, platform),
        );
        for slot in plan.slots() {
            let node = plan.node(slot);
            let service = match plan.role(slot) {
                Role::Agent => 0,
                Role::Server => {
                    let j = assignment
                        .service(node)
                        .ok_or(PlanError::ServerNotAssigned(node))?;
                    if j >= mix.len() {
                        return Err(PlanError::InvalidServiceIndex {
                            index: j,
                            services: mix.len(),
                        });
                    }
                    j
                }
            };
            eval.push_slot(
                node,
                platform.power(node).value(),
                plan.role(slot),
                plan.parent(slot).map(Slot::index),
                plan.degree(slot),
                service,
            );
        }
        eval.finish_build();
        Ok(eval)
    }

    /// Builds the evaluator for an **abstract** agent set (no parent links,
    /// all degrees zero, no servers) — the starting point of sweep-style
    /// searches that assign child slots one at a time before any tree is
    /// realized. `Slot(i)` is `agents[i]`.
    ///
    /// # Panics
    /// Panics if `agents` is empty.
    pub fn from_agents(
        params: &ModelParams,
        platform: &Platform,
        agents: &[NodeId],
        service: &ServiceSpec,
    ) -> Self {
        assert!(!agents.is_empty(), "need at least the root agent");
        let mut eval = Self::empty(
            params,
            std::slice::from_ref(service),
            &[1.0],
            agents.len() * 2,
            SiteModel::build(params, platform),
        );
        for &node in agents {
            eval.push_slot(node, platform.power(node).value(), Role::Agent, None, 0, 0);
        }
        eval.finish_build();
        eval
    }

    /// [`from_agents`](IncrementalEval::from_agents) for a service mix:
    /// the abstract starting point of a multi-service growth loop, with
    /// no servers yet (every service starts at zero capacity).
    ///
    /// # Panics
    /// Panics if `agents` is empty.
    pub fn from_agents_mix(
        params: &ModelParams,
        platform: &Platform,
        agents: &[NodeId],
        mix: &ServiceMix,
    ) -> Self {
        assert!(!agents.is_empty(), "need at least the root agent");
        let shares: Vec<f64> = (0..mix.len()).map(|j| mix.share(j)).collect();
        let mut eval = Self::empty(
            params,
            mix.services(),
            &shares,
            agents.len() * 2,
            SiteModel::build(params, platform),
        );
        for &node in agents {
            eval.push_slot(node, platform.power(node).value(), Role::Agent, None, 0, 0);
        }
        eval.finish_build();
        eval
    }

    fn empty(
        params: &ModelParams,
        services: &[ServiceSpec],
        shares: &[f64],
        capacity: usize,
        site: Option<Box<SiteModel>>,
    ) -> Self {
        debug_assert_eq!(services.len(), shares.len(), "one share per service");
        let site_count = site.as_deref().map(|sm| sm.site_count).unwrap_or(1);
        let svc_site_servers = if site.is_some() {
            vec![0u32; services.len() * site_count]
        } else {
            Vec::new()
        };
        Self {
            params: *params,
            service_transfer: comm::service_transfer_time(params).value(),
            site,
            site_count,
            svc_wpre_over_wapp: services
                .iter()
                .map(|s| params.calibration.server.wpre / s.wapp)
                .collect(),
            svc_inv_wapp: services.iter().map(|s| 1.0 / s.wapp.value()).collect(),
            svc_numerator: vec![1.0; services.len()],
            svc_denominator: vec![0.0; services.len()],
            svc_server_count: vec![0; services.len()],
            svc_share: shares.to_vec(),
            nodes: Vec::with_capacity(capacity),
            powers: Vec::with_capacity(capacity),
            roles: Vec::with_capacity(capacity),
            parents: Vec::with_capacity(capacity),
            degrees: Vec::with_capacity(capacity),
            sites: Vec::with_capacity(capacity),
            child_sum: Vec::with_capacity(capacity),
            service_of: Vec::with_capacity(capacity),
            svc_site_servers,
            active: Vec::with_capacity(capacity),
            used: HashSet::with_capacity(capacity),
            tree: MaxTree::with_capacity(capacity.max(4)),
            active_count: 0,
            server_count: 0,
            undo_stack: Vec::new(),
        }
    }

    /// Appends a slot during construction (not undoable, not a delta).
    /// Cycles are installed by [`finish_build`](IncrementalEval::finish_build)
    /// in one batched pass — site-aware plans may reference parents at
    /// higher slot indexes, and deferring the tournament-tree install
    /// turns n O(log n) root-walks into one O(n) bulk build.
    fn push_slot(
        &mut self,
        node: NodeId,
        power: f64,
        role: Role,
        parent: Option<usize>,
        degree: usize,
        service: usize,
    ) {
        let site = self
            .site
            .as_deref()
            .map(|sm| sm.node_site[node.index()].index())
            .unwrap_or(0);
        self.nodes.push(node);
        self.powers.push(power);
        self.roles.push(role);
        self.parents.push(parent);
        self.degrees.push(degree);
        self.sites.push(site);
        self.child_sum.push(0.0);
        self.service_of.push(service);
        self.active.push(true);
        self.active_count += 1;
        self.used.insert(node);
        if role == Role::Server {
            self.server_count += 1;
            self.svc_server_count[service] += 1;
            self.svc_numerator[service] += self.svc_wpre_over_wapp[service];
            self.svc_denominator[service] += power * self.svc_inv_wapp[service];
            if self.site.is_some() {
                self.svc_site_servers[service * self.site_count + site] += 1;
            }
        }
    }

    /// Second construction pass: installs every slot's cycle into the
    /// tournament tree in one batched sweep — the structure-of-arrays
    /// role/power/degree lanes feed the [`batch`] kernels
    /// in uniform mode (bit-exact with [`cycle_of`](Self::cycle_of)),
    /// and the tree is built bottom-up in O(n) instead of n root-walks.
    /// In site-aware mode it first accumulates every agent's child-link
    /// running sum from the pushed parent links (a reparented plan may
    /// reference parents at higher slot indexes, so this cannot happen
    /// during the first pass).
    fn finish_build(&mut self) {
        let n = self.nodes.len();
        let mut cycles = vec![f64::NEG_INFINITY; n];
        if let Some(sm) = self.site.as_deref() {
            let mut sums = vec![0.0f64; n];
            for i in 0..n {
                if !self.active[i] {
                    continue;
                }
                if let Some(p) = self.parents[i] {
                    sums[p] += sm.agent_link(self.sites[p], self.sites[i]);
                }
            }
            self.child_sum = sums;
            for (i, cycle) in cycles.iter_mut().enumerate() {
                if self.active[i] {
                    *cycle = self.cycle_of(i);
                }
            }
        } else {
            // Uniform mode: split by role into flat lanes and run the
            // vectorized kernels, scattering back into slot order.
            let mut agent_powers = Vec::new();
            let mut agent_degrees = Vec::new();
            let mut agent_pos = Vec::new();
            let mut server_powers = Vec::new();
            let mut server_pos = Vec::new();
            for i in 0..n {
                if !self.active[i] {
                    continue;
                }
                match self.roles[i] {
                    Role::Agent => {
                        agent_powers.push(self.powers[i]);
                        agent_degrees.push(self.degrees[i]);
                        agent_pos.push(i);
                    }
                    Role::Server => {
                        server_powers.push(self.powers[i]);
                        server_pos.push(i);
                    }
                }
            }
            let mut lane = Vec::new();
            batch::agent_cycles_into(&self.params, &agent_powers, &agent_degrees, &mut lane);
            for (&pos, &c) in agent_pos.iter().zip(&lane) {
                cycles[pos] = c;
            }
            batch::server_prediction_cycles_into(&self.params, &server_powers, &mut lane);
            for (&pos, &c) in server_pos.iter().zip(&lane) {
                cycles[pos] = c;
            }
        }
        self.tree.build_from(&cycles);
    }

    /// The per-request cycle a slot contributes to Eq. 14 under its
    /// current role and degree — per-link costs in site-aware mode,
    /// mirroring [`hetero::agent_cycle_hetero`](super::hetero::agent_cycle_hetero)
    /// /
    /// [`server_prediction_cycle_hetero`](super::hetero::server_prediction_cycle_hetero)
    ///.
    fn cycle_of(&self, slot: usize) -> f64 {
        let power = MflopRate(self.powers[slot]);
        if let Some(sm) = self.site.as_deref() {
            let my = self.sites[slot];
            let parent_site = match self.parents[slot] {
                Some(p) => self.sites[p],
                None => sm.client_site.unwrap_or(my),
            };
            return match self.roles[slot] {
                Role::Agent => {
                    sm.agent_link(my, parent_site)
                        + self.child_sum[slot]
                        + compute::agent_comp_time(&self.params, power, self.degrees[slot]).value()
                }
                Role::Server => {
                    sm.server_link[my * sm.site_count + parent_site]
                        + compute::server_prediction_time(&self.params, power).value()
                }
            };
        }
        match self.roles[slot] {
            Role::Agent => throughput::agent_cycle(&self.params, power, self.degrees[slot]).value(),
            Role::Server => throughput::server_prediction_cycle(&self.params, power).value(),
        }
    }

    fn saved(&self) -> Saved {
        Saved {
            services: [(usize::MAX, 0.0, 0.0); 2],
            touched_services: 0,
            cycles: [(usize::MAX, 0.0); 3],
            touched: 0,
            sums: [(usize::MAX, 0.0); 2],
            touched_sums: 0,
        }
    }

    /// Records a slot's `child_sum` before a site-aware delta mutates it.
    fn save_sum(&self, saved: &mut Saved, slot: usize) {
        saved.sums[saved.touched_sums] = (slot, self.child_sum[slot]);
        saved.touched_sums += 1;
    }

    /// Records service `j`'s running sums before a delta mutates them.
    fn save_service(&self, saved: &mut Saved, j: usize) {
        saved.services[saved.touched_services] =
            (j, self.svc_numerator[j], self.svc_denominator[j]);
        saved.touched_services += 1;
    }

    fn save_cycle(&self, saved: &mut Saved, slot: usize) {
        saved.cycles[saved.touched] = (slot, self.tree.get(slot));
        saved.touched += 1;
    }

    fn restore(&mut self, saved: &Saved) {
        for &(j, numerator, denominator) in saved.services.iter().take(saved.touched_services) {
            self.svc_numerator[j] = numerator;
            self.svc_denominator[j] = denominator;
        }
        for &(slot, sum) in saved.sums.iter().take(saved.touched_sums) {
            self.child_sum[slot] = sum;
        }
        for &(slot, cycle) in saved.cycles.iter().take(saved.touched) {
            self.tree.set(slot, cycle);
        }
    }

    // ------------------------------------------------------------------
    // Deltas
    // ------------------------------------------------------------------

    /// Attaches `node` as a server under `parent`. O(log n). Returns the
    /// new slot (the next index, matching `DeploymentPlan::add_server` on
    /// a plan kept in lock step).
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::ParentIsServer`], or
    /// [`PlanError::NodeAlreadyUsed`].
    pub fn add_server(
        &mut self,
        parent: Slot,
        node: NodeId,
        power: MflopRate,
    ) -> Result<Slot, PlanError> {
        self.add_server_for(parent, node, power, 0)
    }

    /// Attaches `node` as a server of the mix's service `service` under
    /// `parent` — the multi-service form of [`add_server`](IncrementalEval::add_server)
    ///. O(log n).
    ///
    /// # Errors
    /// [`PlanError::InvalidServiceIndex`] in addition to the
    /// single-service errors.
    pub fn add_server_for(
        &mut self,
        parent: Slot,
        node: NodeId,
        power: MflopRate,
        service: usize,
    ) -> Result<Slot, PlanError> {
        let p = parent.index();
        if service >= self.svc_numerator.len() {
            return Err(PlanError::InvalidServiceIndex {
                index: service,
                services: self.svc_numerator.len(),
            });
        }
        if p >= self.nodes.len() || !self.active[p] {
            return Err(PlanError::InvalidSlot(parent));
        }
        if self.roles[p] != Role::Agent {
            return Err(PlanError::ParentIsServer(parent));
        }
        if self.used.contains(&node) {
            return Err(PlanError::NodeAlreadyUsed(node));
        }
        let site_info = self.site.as_deref().map(|sm| {
            let site = sm.node_site[node.index()].index();
            (site, sm.agent_link(self.sites[p], site))
        });
        let mut saved = self.saved();
        self.save_service(&mut saved, service);
        self.save_cycle(&mut saved, p);
        if site_info.is_some() {
            self.save_sum(&mut saved, p);
        }

        let slot = self.nodes.len();
        let site = site_info.map(|(s, _)| s).unwrap_or(0);
        self.nodes.push(node);
        self.powers.push(power.value());
        self.roles.push(Role::Server);
        self.parents.push(Some(p));
        self.degrees.push(0);
        self.sites.push(site);
        self.child_sum.push(0.0);
        self.service_of.push(service);
        self.active.push(true);
        self.active_count += 1;
        self.used.insert(node);
        self.degrees[p] += 1;
        if let Some((site, link)) = site_info {
            self.child_sum[p] += link;
            self.svc_site_servers[service * self.site_count + site] += 1;
        }
        self.tree.set(p, self.cycle_of(p));
        self.tree.set(slot, self.cycle_of(slot));
        self.server_count += 1;
        self.svc_server_count[service] += 1;
        self.svc_numerator[service] += self.svc_wpre_over_wapp[service];
        self.svc_denominator[service] += power.value() * self.svc_inv_wapp[service];

        self.undo_stack
            .push((Delta::AddServer { slot, parent: p }, saved));
        Ok(Slot(slot))
    }

    /// Detaches a leaf server. O(log n). The slot becomes inactive (its
    /// index is *not* reused), so a plan kept in lock step must be
    /// compacted separately when the removal is committed.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] or [`PlanError::NotAServer`].
    pub fn remove_server(&mut self, slot: Slot) -> Result<(), PlanError> {
        let i = slot.index();
        if i >= self.nodes.len() || !self.active[i] {
            return Err(PlanError::InvalidSlot(slot));
        }
        if self.roles[i] != Role::Server {
            return Err(PlanError::NotAServer(slot));
        }
        let parent = self.parents[i].expect("servers always have a parent");
        let service = self.service_of[i];
        let site_info = self
            .site
            .as_deref()
            .map(|sm| sm.agent_link(self.sites[parent], self.sites[i]));
        let mut saved = self.saved();
        self.save_service(&mut saved, service);
        self.save_cycle(&mut saved, parent);
        self.save_cycle(&mut saved, i);
        if site_info.is_some() {
            self.save_sum(&mut saved, parent);
        }

        self.active[i] = false;
        self.active_count -= 1;
        self.used.remove(&self.nodes[i]);
        self.degrees[parent] -= 1;
        if let Some(link) = site_info {
            self.child_sum[parent] -= link;
            self.svc_site_servers[service * self.site_count + self.sites[i]] -= 1;
        }
        self.tree.set(parent, self.cycle_of(parent));
        self.tree.set(i, f64::NEG_INFINITY);
        self.server_count -= 1;
        self.svc_server_count[service] -= 1;
        self.svc_numerator[service] -= self.svc_wpre_over_wapp[service];
        self.svc_denominator[service] -= self.powers[i] * self.svc_inv_wapp[service];

        self.undo_stack
            .push((Delta::RemoveServer { slot: i, parent }, saved));
        Ok(())
    }

    /// Promotes a server to an agent (the `shift_nodes` conversion).
    /// O(log n). The slot keeps its parent and starts with zero children.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] or [`PlanError::NotAServer`].
    pub fn promote_to_agent(&mut self, slot: Slot) -> Result<(), PlanError> {
        let i = slot.index();
        if i >= self.nodes.len() || !self.active[i] {
            return Err(PlanError::InvalidSlot(slot));
        }
        if self.roles[i] != Role::Server {
            return Err(PlanError::NotAServer(slot));
        }
        let service = self.service_of[i];
        let mut saved = self.saved();
        self.save_service(&mut saved, service);
        self.save_cycle(&mut saved, i);
        if self.site.is_some() {
            // A fresh agent starts with zero child-link cost; resetting
            // (instead of trusting the stale value) also sheds any
            // accumulated float dust from a previous agent life.
            self.save_sum(&mut saved, i);
            self.child_sum[i] = 0.0;
            self.svc_site_servers[service * self.site_count + self.sites[i]] -= 1;
        }

        self.roles[i] = Role::Agent;
        self.tree.set(i, self.cycle_of(i));
        self.server_count -= 1;
        self.svc_server_count[service] -= 1;
        self.svc_numerator[service] -= self.svc_wpre_over_wapp[service];
        self.svc_denominator[service] -= self.powers[i] * self.svc_inv_wapp[service];

        self.undo_stack.push((Delta::Promote { slot: i }, saved));
        Ok(())
    }

    /// Reparents `child` under `new_parent`. O(log n). In uniform mode
    /// only the two parent degrees change (Eq. 14 depends on per-agent
    /// degree, not position); in site-aware mode the child's own cycle
    /// refreshes too — its parent-link cost changed — while the rest of
    /// the moved subtree is still untouched.
    ///
    /// Returns `true` when a delta was applied (and must be paired with
    /// one [`undo`](IncrementalEval::undo) to retract), `false` for the
    /// same-parent no-op, which records **nothing** — a probe loop that
    /// blindly paired every success with an `undo()` would otherwise pop
    /// an unrelated earlier delta.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::ParentIsServer`],
    /// [`PlanError::CannotRemoveRoot`] for a parentless child, or
    /// [`PlanError::WouldCreateCycle`].
    pub fn move_child(&mut self, child: Slot, new_parent: Slot) -> Result<bool, PlanError> {
        let (c, np) = (child.index(), new_parent.index());
        if c >= self.nodes.len() || !self.active[c] {
            return Err(PlanError::InvalidSlot(child));
        }
        if np >= self.nodes.len() || !self.active[np] {
            return Err(PlanError::InvalidSlot(new_parent));
        }
        if self.roles[np] != Role::Agent {
            return Err(PlanError::ParentIsServer(new_parent));
        }
        let Some(old_parent) = self.parents[c] else {
            return Err(PlanError::CannotRemoveRoot);
        };
        let mut cursor = Some(np);
        while let Some(s) = cursor {
            if s == c {
                return Err(PlanError::WouldCreateCycle(child));
            }
            cursor = self.parents[s];
        }
        if old_parent == np {
            // Mirror `DeploymentPlan::move_child`: a no-op still succeeds,
            // but nothing is recorded (nothing to undo).
            return Ok(false);
        }
        let site_info = self.site.as_deref().map(|sm| {
            let cs = self.sites[c];
            (
                sm.agent_link(self.sites[old_parent], cs),
                sm.agent_link(self.sites[np], cs),
            )
        });
        let mut saved = self.saved();
        self.save_cycle(&mut saved, old_parent);
        self.save_cycle(&mut saved, np);
        if site_info.is_some() {
            // The child's own parent link changed too.
            self.save_cycle(&mut saved, c);
            self.save_sum(&mut saved, old_parent);
            self.save_sum(&mut saved, np);
        }

        self.degrees[old_parent] -= 1;
        self.degrees[np] += 1;
        self.parents[c] = Some(np);
        if let Some((l_old, l_new)) = site_info {
            self.child_sum[old_parent] -= l_old;
            self.child_sum[np] += l_new;
        }
        self.tree.set(old_parent, self.cycle_of(old_parent));
        self.tree.set(np, self.cycle_of(np));
        if site_info.is_some() {
            self.tree.set(c, self.cycle_of(c));
        }

        self.undo_stack.push((
            Delta::MoveChild {
                child: c,
                old_parent,
                new_parent: np,
            },
            saved,
        ));
        Ok(true)
    }

    /// Accounts for one child slot handed to `agent` without materializing
    /// the child — the abstract waterfill step of sweep-style searches
    /// (the child may be a *future* agent whose own slot already exists).
    /// O(log n). In site-aware mode the phantom child is priced at the
    /// agent's **own site** (a co-located child); use
    /// [`assign_child_slot_at`](IncrementalEval::assign_child_slot_at)
    /// to price a concrete site.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] or [`PlanError::NotAnAgent`].
    pub fn assign_child_slot(&mut self, agent: Slot) -> Result<(), PlanError> {
        let site = SiteId(self.sites.get(agent.index()).copied().unwrap_or(0) as u16);
        self.assign_child_slot_at(agent, site)
    }

    /// [`assign_child_slot`](IncrementalEval::assign_child_slot) with an
    /// explicit site for the phantom child: the agent pays the real
    /// agent↔`child_site` link cost — the scheduling half of a
    /// site-aware attach probe. O(log n). In uniform mode the site is
    /// ignored.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`] or [`PlanError::NotAnAgent`].
    pub fn assign_child_slot_at(
        &mut self,
        agent: Slot,
        child_site: SiteId,
    ) -> Result<(), PlanError> {
        let i = agent.index();
        if i >= self.nodes.len() || !self.active[i] {
            return Err(PlanError::InvalidSlot(agent));
        }
        if self.roles[i] != Role::Agent {
            return Err(PlanError::NotAnAgent(agent));
        }
        let link = self
            .site
            .as_deref()
            .map(|sm| sm.agent_link(self.sites[i], child_site.index()));
        let mut saved = self.saved();
        self.save_cycle(&mut saved, i);
        if let Some(link) = link {
            self.save_sum(&mut saved, i);
            self.child_sum[i] += link;
        }
        self.degrees[i] += 1;
        self.tree.set(i, self.cycle_of(i));
        self.undo_stack
            .push((Delta::AssignChildSlot { agent: i }, saved));
        Ok(())
    }

    /// Takes one child slot back from `agent` — inverse of
    /// [`assign_child_slot`](IncrementalEval::assign_child_slot). O(log n).
    /// In site-aware mode the released phantom is priced at the agent's
    /// own site, mirroring `assign_child_slot`'s convention — pair
    /// site-specific probes ([`assign_child_slot_at`](IncrementalEval::assign_child_slot_at)
    ///) with
    /// [`undo`](IncrementalEval::undo) instead, which restores the link
    /// sum bit-exactly whatever the site was.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::NotAnAgent`], or
    /// [`PlanError::AgentHasChildren`]-style misuse when the degree is
    /// already zero (reported as [`PlanError::InvalidSlot`]).
    pub fn release_child_slot(&mut self, agent: Slot) -> Result<(), PlanError> {
        let i = agent.index();
        if i >= self.nodes.len() || !self.active[i] || self.degrees[i] == 0 {
            return Err(PlanError::InvalidSlot(agent));
        }
        if self.roles[i] != Role::Agent {
            return Err(PlanError::NotAnAgent(agent));
        }
        let link = self
            .site
            .as_deref()
            .map(|sm| sm.agent_link(self.sites[i], self.sites[i]));
        let mut saved = self.saved();
        self.save_cycle(&mut saved, i);
        if let Some(link) = link {
            self.save_sum(&mut saved, i);
            self.child_sum[i] -= link;
        }
        self.degrees[i] -= 1;
        self.tree.set(i, self.cycle_of(i));
        self.undo_stack
            .push((Delta::ReleaseChildSlot { agent: i }, saved));
        Ok(())
    }

    /// Moves a server to another service of the mix — a reinstall on the
    /// same machine: the tree, degrees, and scheduling phase are
    /// untouched (a server's prediction cycle is service-independent);
    /// only the two services' Eq. 15 sums move. O(1).
    ///
    /// Returns `true` when a delta was applied (pair with one
    /// [`undo`](IncrementalEval::undo) to retract), `false` for the
    /// same-service no-op, which records nothing.
    ///
    /// # Errors
    /// [`PlanError::InvalidSlot`], [`PlanError::NotAServer`], or
    /// [`PlanError::InvalidServiceIndex`].
    pub fn reassign_server(&mut self, slot: Slot, service: usize) -> Result<bool, PlanError> {
        let i = slot.index();
        if service >= self.svc_numerator.len() {
            return Err(PlanError::InvalidServiceIndex {
                index: service,
                services: self.svc_numerator.len(),
            });
        }
        if i >= self.nodes.len() || !self.active[i] {
            return Err(PlanError::InvalidSlot(slot));
        }
        if self.roles[i] != Role::Server {
            return Err(PlanError::NotAServer(slot));
        }
        let old_service = self.service_of[i];
        if old_service == service {
            return Ok(false);
        }
        let mut saved = self.saved();
        self.save_service(&mut saved, old_service);
        self.save_service(&mut saved, service);

        let power = self.powers[i];
        self.svc_server_count[old_service] -= 1;
        self.svc_numerator[old_service] -= self.svc_wpre_over_wapp[old_service];
        self.svc_denominator[old_service] -= power * self.svc_inv_wapp[old_service];
        self.svc_server_count[service] += 1;
        self.svc_numerator[service] += self.svc_wpre_over_wapp[service];
        self.svc_denominator[service] += power * self.svc_inv_wapp[service];
        if self.site.is_some() {
            let site = self.sites[i];
            self.svc_site_servers[old_service * self.site_count + site] -= 1;
            self.svc_site_servers[service * self.site_count + site] += 1;
        }
        self.service_of[i] = service;

        self.undo_stack.push((
            Delta::Reassign {
                slot: i,
                old_service,
            },
            saved,
        ));
        Ok(true)
    }

    /// Reverts the most recent delta, restoring every cached float to its
    /// exact previous bit pattern. O(log n). Returns `false` when the undo
    /// stack is empty.
    pub fn undo(&mut self) -> bool {
        let Some((delta, saved)) = self.undo_stack.pop() else {
            return false;
        };
        match delta {
            Delta::AddServer { slot, parent } => {
                debug_assert_eq!(slot, self.nodes.len() - 1);
                self.used.remove(&self.nodes[slot]);
                self.svc_server_count[self.service_of[slot]] -= 1;
                if self.site.is_some() {
                    self.svc_site_servers
                        [self.service_of[slot] * self.site_count + self.sites[slot]] -= 1;
                }
                self.nodes.pop();
                self.powers.pop();
                self.roles.pop();
                self.parents.pop();
                self.degrees.pop();
                self.sites.pop();
                self.child_sum.pop();
                self.service_of.pop();
                self.active.pop();
                self.active_count -= 1;
                self.degrees[parent] -= 1;
                self.tree.set(slot, f64::NEG_INFINITY);
                self.server_count -= 1;
            }
            Delta::RemoveServer { slot, parent } => {
                self.active[slot] = true;
                self.active_count += 1;
                self.used.insert(self.nodes[slot]);
                self.degrees[parent] += 1;
                self.server_count += 1;
                self.svc_server_count[self.service_of[slot]] += 1;
                if self.site.is_some() {
                    self.svc_site_servers
                        [self.service_of[slot] * self.site_count + self.sites[slot]] += 1;
                }
            }
            Delta::Promote { slot } => {
                self.roles[slot] = Role::Server;
                self.server_count += 1;
                self.svc_server_count[self.service_of[slot]] += 1;
                if self.site.is_some() {
                    self.svc_site_servers
                        [self.service_of[slot] * self.site_count + self.sites[slot]] += 1;
                }
            }
            Delta::MoveChild {
                child,
                old_parent,
                new_parent,
            } => {
                self.degrees[new_parent] -= 1;
                self.degrees[old_parent] += 1;
                self.parents[child] = Some(old_parent);
            }
            Delta::AssignChildSlot { agent } => {
                self.degrees[agent] -= 1;
            }
            Delta::ReleaseChildSlot { agent } => {
                self.degrees[agent] += 1;
            }
            Delta::Reassign { slot, old_service } => {
                self.svc_server_count[self.service_of[slot]] -= 1;
                self.svc_server_count[old_service] += 1;
                if self.site.is_some() {
                    let site = self.sites[slot];
                    self.svc_site_servers[self.service_of[slot] * self.site_count + site] -= 1;
                    self.svc_site_servers[old_service * self.site_count + site] += 1;
                }
                self.service_of[slot] = old_service;
            }
        }
        self.restore(&saved);
        true
    }

    /// Reverts every delta on the undo stack (newest first).
    pub fn undo_all(&mut self) {
        while self.undo() {}
    }

    /// Number of deltas currently undoable.
    pub fn pending_deltas(&self) -> usize {
        self.undo_stack.len()
    }

    /// Drops the undo history, making the current state the new baseline.
    /// Call after committing probed deltas to the real plan.
    pub fn commit(&mut self) {
        self.undo_stack.clear();
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Eq. 16's completed-request throughput of the current state —
    /// for a mix, the completed-mix rate (scheduling capped by the worst
    /// share-normalized service). O(S) for S services; O(1)
    /// single-service.
    pub fn rho(&self) -> f64 {
        let (rho_sched, _) = self.sched();
        rho_sched.min(self.rho_service())
    }

    /// Eq. 14's scheduling throughput and its binding slot. O(1).
    fn sched(&self) -> (f64, (f64, usize)) {
        let worst = self.tree.max();
        let rho = if worst.0 <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / worst.0
        };
        (rho, worst)
    }

    /// Eq. 14's scheduling throughput. O(1). Shared by every service of
    /// a mix (all requests cross all agents).
    pub fn rho_sched(&self) -> f64 {
        self.sched().0
    }

    /// Eq. 15's service throughput of the deployment: the smallest
    /// share-normalized per-service rate, `min_j ρ_service_j / f_j` —
    /// the service phase's cap on the completed-mix rate (the service
    /// whose capacity is smallest *relative to its request share* binds).
    /// For a single-service evaluator this is plain Eq. 15. O(S).
    pub fn rho_service(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for j in 0..self.svc_numerator.len() {
            let share = self.svc_share[j];
            if share == 0.0 {
                continue; // no requests ever routed here: cannot bind
            }
            worst = worst.min(self.rho_service_of(j) / share);
        }
        if worst == f64::INFINITY {
            0.0
        } else {
            worst
        }
    }

    /// Eq. 15's raw service throughput of one service of the mix (not
    /// share-normalized): the rate its own server partition sustains.
    /// O(1) in uniform mode; O(#sites) site-aware (the worst
    /// client↔server transfer over the partition's sites binds, as in
    /// [`service_throughput_hetero`](super::hetero::service_throughput_hetero)
    ///).
    ///
    /// # Panics
    /// Panics on an out-of-range service index.
    pub fn rho_service_of(&self, j: usize) -> f64 {
        if self.svc_server_count[j] == 0 {
            0.0
        } else {
            let transfer = if self.site.is_some() {
                self.worst_transfer_of(j)
            } else {
                self.service_transfer
            };
            throughput::service_rate_from_sums(
                transfer,
                self.svc_numerator[j],
                self.svc_denominator[j],
            )
        }
    }

    /// Worst Eq. 15 client↔server transfer over the sites service `j`'s
    /// partition occupies (`-inf` for an empty partition). Site-aware
    /// mode only.
    fn worst_transfer_of(&self, j: usize) -> f64 {
        let sm = self.site.as_deref().expect("site-aware mode only");
        let mut worst = f64::NEG_INFINITY;
        for (site, &transfer) in sm.service_transfer.iter().enumerate() {
            if self.svc_site_servers[j * self.site_count + site] > 0 {
                worst = worst.max(transfer);
            }
        }
        worst
    }

    /// What [`rho_service_of`](IncrementalEval::rho_service_of)`(j)`
    /// would become if `extra_servers` more servers totalling
    /// `extra_power_sum` MFlop/s were assigned to service `j`, in one
    /// O(1) read — the Eq. 15 running sums are linear in the added set,
    /// so only its size and power *sum* matter. This is the optimistic
    /// bound the mix sweep's composition walk prunes with ("even handed
    /// every remaining server, service `j` reaches at most this rate"):
    /// probing it per candidate count would cost the O(log n) delta the
    /// bound exists to avoid. `extra_servers == 0` returns the current
    /// rate for a non-empty partition (and the sum-formula rate, not the
    /// 0.0 empty-partition convention, for an empty one).
    ///
    /// Site-aware caveat: the newcomers' sites are unknown, so the
    /// service's current worst-transfer bound is kept (empty partitions
    /// price at the cheapest site) — a lower bound on transfer, hence
    /// still an optimistic rate bound when the platform's client links
    /// are uniform or the partition already spans the slowest site.
    pub fn service_rate_with_added(
        &self,
        j: usize,
        extra_servers: usize,
        extra_power_sum: f64,
    ) -> f64 {
        let num = self.svc_numerator[j] + extra_servers as f64 * self.svc_wpre_over_wapp[j];
        let den = self.svc_denominator[j] + extra_power_sum * self.svc_inv_wapp[j];
        let transfer = match self.site.as_deref() {
            None => self.service_transfer,
            Some(sm) => {
                let worst = self.worst_transfer_of(j);
                if worst == f64::NEG_INFINITY {
                    sm.service_transfer
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min)
                } else {
                    worst
                }
            }
        };
        throughput::service_rate_from_sums(transfer, num, den)
    }

    /// What [`rho_service_of`](IncrementalEval::rho_service_of)`(j)`
    /// would become if one more server of power `power` living on `site`
    /// were assigned to service `j`: bit-identical to applying
    /// [`add_server_for`](IncrementalEval::add_server_for) for a node on
    /// `site` and reading the rate, in site-aware mode included (the
    /// worst-transfer bound absorbs the newcomer's client link), without
    /// mutating. O(#sites); O(1) uniform. The analytic half of an attach
    /// probe; the scheduling half is one
    /// [`assign_child_slot`](IncrementalEval::assign_child_slot)/undo pair.
    pub fn service_rate_with_extra_at(&self, j: usize, power: MflopRate, site: SiteId) -> f64 {
        let Some(sm) = self.site.as_deref() else {
            return self.service_rate_with_added(j, 1, power.value());
        };
        let num = self.svc_numerator[j] + self.svc_wpre_over_wapp[j];
        let den = self.svc_denominator[j] + power.value() * self.svc_inv_wapp[j];
        let worst = self
            .worst_transfer_of(j)
            .max(sm.service_transfer[site.index()]);
        throughput::service_rate_from_sums(worst, num, den)
    }

    /// The Eq. 14 prediction cycle a new server of `power` living on
    /// `site` under `parent` would contribute — bit-identical to the new
    /// slot's cycle after [`add_server_for`](IncrementalEval::add_server_for)
    ///, without mutating. Uniform mode
    /// ignores the site and parent. O(1).
    pub fn server_cycle_at(&self, power: MflopRate, site: SiteId, parent: Slot) -> f64 {
        match self.site.as_deref() {
            None => throughput::server_prediction_cycle(&self.params, power).value(),
            Some(sm) => {
                sm.server_link[site.index() * sm.site_count + self.sites[parent.index()]]
                    + compute::server_prediction_time(&self.params, power).value()
            }
        }
    }

    /// The scheduling cycle `agent` would contribute after adopting one
    /// more child living on `child_site` — the joint (power, link)
    /// attach cost site-aware planners rank candidates by. Uniform mode
    /// ignores the site ([`agent_cycle`](throughput::agent_cycle) at
    /// `degree + 1`). Bit-identical to the agent's cycle after
    /// [`assign_child_slot_at`](IncrementalEval::assign_child_slot_at).
    ///
    /// # Panics
    /// Panics when `agent` is not an active agent slot.
    pub fn cycle_with_extra_child(&self, agent: Slot, child_site: SiteId) -> f64 {
        let i = agent.index();
        assert!(
            self.active[i] && self.roles[i] == Role::Agent,
            "attach targets are active agents"
        );
        let power = MflopRate(self.powers[i]);
        match self.site.as_deref() {
            None => throughput::agent_cycle(&self.params, power, self.degrees[i] + 1).value(),
            Some(sm) => {
                let my = self.sites[i];
                let parent_site = match self.parents[i] {
                    Some(p) => self.sites[p],
                    None => sm.client_site.unwrap_or(my),
                };
                sm.agent_link(my, parent_site)
                    + (self.child_sum[i] + sm.agent_link(my, child_site.index()))
                    + compute::agent_comp_time(&self.params, power, self.degrees[i] + 1).value()
            }
        }
    }

    /// Full report, mirroring [`ModelParams::evaluate`] including the
    /// bottleneck tie rule (scheduling wins ties). O(S); O(1)
    /// single-service.
    pub fn report(&self) -> ThroughputReport {
        let (rho_sched, (_, worst_slot)) = self.sched();
        let rho_service = self.rho_service();
        if rho_sched <= rho_service {
            let bottleneck = match self.roles[worst_slot] {
                Role::Agent => Bottleneck::AgentSched {
                    slot: Slot(worst_slot),
                    node: self.nodes[worst_slot],
                },
                Role::Server => Bottleneck::ServerPrediction {
                    slot: Slot(worst_slot),
                    node: self.nodes[worst_slot],
                },
            };
            ThroughputReport {
                rho: rho_sched,
                rho_sched,
                rho_service,
                bottleneck,
            }
        } else {
            ThroughputReport {
                rho: rho_service,
                rho_sched,
                rho_service,
                bottleneck: Bottleneck::ServiceCapacity,
            }
        }
    }

    /// Full multi-service report, mirroring [`evaluate_mix`](super::mix::evaluate_mix)
    /// including its binding rule (ascending
    /// service order, strict improvement; scheduling wins ties). O(S).
    pub fn mix_report(&self) -> MixReport {
        let rho_sched = self.rho_sched();
        let rho_service: Vec<f64> = (0..self.svc_numerator.len())
            .map(|j| self.rho_service_of(j))
            .collect();
        let mut rho = rho_sched;
        let mut binding = None;
        for (j, &rs) in rho_service.iter().enumerate() {
            let share = self.svc_share[j];
            if share == 0.0 {
                continue; // a zero-share service never binds the mix
            }
            let capped = rs / share;
            if capped < rho {
                rho = capped;
                binding = Some(j);
            }
        }
        MixReport {
            rho,
            rho_sched,
            rho_service,
            binding_service: binding,
        }
    }

    /// Number of services the evaluator tracks (1 for the single-service
    /// constructors).
    pub fn service_count(&self) -> usize {
        self.svc_numerator.len()
    }

    /// Request share of service `j`.
    ///
    /// # Panics
    /// Panics on an out-of-range service index.
    pub fn share(&self, j: usize) -> f64 {
        self.svc_share[j]
    }

    /// Number of active servers hosting service `j`. O(1).
    ///
    /// # Panics
    /// Panics on an out-of-range service index.
    pub fn server_count_for(&self, j: usize) -> usize {
        self.svc_server_count[j]
    }

    /// The mix service hosted by a server slot (for an agent: the service
    /// it would return to on demotion).
    pub fn service_of(&self, slot: Slot) -> usize {
        self.service_of[slot.index()]
    }

    /// True when the evaluator prices individual links (multi-site mode):
    /// the platform's network was heterogeneous and
    /// [`ModelParams::site_aware`] was on at construction.
    pub fn is_site_aware(&self) -> bool {
        self.site.is_some()
    }

    /// Site of a slot's node (`SiteId(0)` in uniform mode).
    pub fn site_of_slot(&self, slot: Slot) -> SiteId {
        SiteId(self.sites[slot.index()] as u16)
    }

    /// Parent of a slot (`None` for roots / abstract agents).
    pub(crate) fn parent_of(&self, slot: Slot) -> Option<Slot> {
        self.parents[slot.index()].map(Slot)
    }

    /// Raw slot-table length, tombstoned removals included (the valid
    /// `Slot` index range).
    pub(crate) fn raw_len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the slot index is in range and not tombstoned.
    pub(crate) fn is_active_slot(&self, slot: Slot) -> bool {
        slot.index() < self.active.len() && self.active[slot.index()]
    }

    /// The cached Eq. 14 cycle of an active slot (as stored in the
    /// tournament tree).
    pub(crate) fn cached_cycle(&self, slot: Slot) -> f64 {
        self.tree.get(slot.index())
    }

    /// Active children of an agent, by slot scan — O(n), for the rare
    /// structural passes (site-aware conversions) that need concrete
    /// children; the O(log n) deltas never call this.
    pub(crate) fn children_of(&self, agent: Slot) -> Vec<Slot> {
        let a = agent.index();
        (0..self.nodes.len())
            .filter(|&i| self.active[i] && self.parents[i] == Some(a))
            .map(Slot)
            .collect()
    }

    /// Role of an active slot.
    pub fn role(&self, slot: Slot) -> Role {
        self.roles[slot.index()]
    }

    /// Platform node of an active slot.
    pub fn node(&self, slot: Slot) -> NodeId {
        self.nodes[slot.index()]
    }

    /// Degree (child count) of an active slot.
    pub fn degree(&self, slot: Slot) -> usize {
        self.degrees[slot.index()]
    }

    /// Node power cached for a slot.
    pub fn power(&self, slot: Slot) -> MflopRate {
        MflopRate(self.powers[slot.index()])
    }

    /// True when the platform node appears in an active slot.
    pub fn uses_node(&self, node: NodeId) -> bool {
        self.used.contains(&node)
    }

    /// Active agent slots, in slot order.
    pub fn agents(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.nodes.len())
            .filter(|&i| self.active[i] && self.roles[i] == Role::Agent)
            .map(Slot)
    }

    /// Active server slots, in slot order.
    pub fn servers(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.nodes.len())
            .filter(|&i| self.active[i] && self.roles[i] == Role::Server)
            .map(Slot)
    }

    /// Number of active servers. O(1).
    pub fn server_count(&self) -> usize {
        self.server_count
    }

    /// Number of active slots. O(1). Always ≥ 1: the root agent can
    /// never be detached.
    pub fn len(&self) -> usize {
        self.active_count
    }

    /// True when no active slot exists (`len() == 0`). Construction
    /// always installs a root agent, so this only holds for a value
    /// built from pathological inputs; provided to keep the standard
    /// `is_empty <=> len() == 0` contract alongside [`len`](IncrementalEval::len)
    ///.
    pub fn is_empty(&self) -> bool {
        self.active_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe};
    use adept_workload::Dgemm;

    fn check_parity(
        eval: &IncrementalEval,
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        service: &ServiceSpec,
        context: &str,
    ) {
        let full = params.evaluate(platform, plan, service);
        let fast = eval.report();
        let tol = 1e-9 * full.rho.abs().max(1.0);
        assert!(
            (full.rho - fast.rho).abs() <= tol,
            "{context}: rho {} vs full {}",
            fast.rho,
            full.rho
        );
        assert!(
            (full.rho_sched - fast.rho_sched).abs() <= 1e-9 * full.rho_sched.abs().max(1.0),
            "{context}: rho_sched"
        );
        assert!(
            (full.rho_service - fast.rho_service).abs() <= 1e-9 * full.rho_service.abs().max(1.0),
            "{context}: rho_service"
        );
        assert_eq!(
            std::mem::discriminant(&full.bottleneck),
            std::mem::discriminant(&fast.bottleneck),
            "{context}: bottleneck kind {:?} vs {:?}",
            fast.bottleneck,
            full.bottleneck
        );
    }

    #[test]
    fn from_plan_matches_full_eval() {
        let platform = lyon_cluster(12);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let a = plan.add_agent(plan.root(), NodeId(1)).unwrap();
        for i in 2..8 {
            plan.add_server(a, NodeId(i)).unwrap();
        }
        let eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        check_parity(&eval, &params, &platform, &plan, &svc, "static");
    }

    #[test]
    fn add_server_tracks_plan() {
        let platform = heterogenized_cluster(
            "x",
            16,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            11,
        );
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        for i in 2..10 {
            let node = NodeId(i);
            let s1 = plan.add_server(plan.root(), node).unwrap();
            let s2 = eval
                .add_server(Slot(0), node, platform.power(node))
                .unwrap();
            assert_eq!(s1, s2, "slots stay aligned");
            check_parity(&eval, &params, &platform, &plan, &svc, "add");
        }
    }

    #[test]
    fn undo_restores_bit_exact_state() {
        let platform = lyon_cluster(20);
        let svc = Dgemm::new(1000).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        for i in 2..10 {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
        }
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        let before = eval.rho();
        let report_before = eval.report();

        // A long probe chain, then unwind it completely.
        eval.add_server(Slot(0), NodeId(15), platform.power(NodeId(15)))
            .unwrap();
        eval.promote_to_agent(Slot(3)).unwrap();
        eval.add_server(Slot(3), NodeId(16), platform.power(NodeId(16)))
            .unwrap();
        eval.move_child(Slot(5), Slot(3)).unwrap();
        eval.remove_server(Slot(6)).unwrap();
        eval.assign_child_slot(Slot(0)).unwrap();
        eval.release_child_slot(Slot(0)).unwrap();
        assert_eq!(eval.pending_deltas(), 7);
        eval.undo_all();

        assert_eq!(eval.rho().to_bits(), before.to_bits(), "must be bit-exact");
        assert_eq!(eval.report(), report_before);
        assert_eq!(eval.len(), plan.len());
        check_parity(&eval, &params, &platform, &plan, &svc, "after undo_all");
    }

    #[test]
    fn debug_output_is_the_same_for_equal_engines() {
        // Each engine's node set hashes with its own random keys; the
        // printed form must not follow that order.
        let platform = lyon_cluster(12);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let agents: Vec<Slot> = (1..4)
            .map(|i| plan.add_agent(plan.root(), NodeId(i)).unwrap())
            .collect();
        for i in 4..12u32 {
            plan.add_server(agents[i as usize % 3], NodeId(i)).unwrap();
        }
        let printed = || {
            format!(
                "{:?}",
                IncrementalEval::from_plan(&params, &platform, &plan, &svc)
            )
        };
        let first = printed();
        for _ in 0..8 {
            assert_eq!(printed(), first);
        }
    }

    #[test]
    fn remove_server_matches_rebuilt_plan() {
        let platform = lyon_cluster(8);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        for i in 2..6 {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
        }
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        eval.remove_server(Slot(2)).unwrap();

        // Reference: the same plan without NodeId(2).
        let mut smaller = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        for i in 3..6 {
            smaller.add_server(smaller.root(), NodeId(i)).unwrap();
        }
        check_parity(&eval, &params, &platform, &smaller, &svc, "remove");
        assert!(!eval.uses_node(NodeId(2)));
        assert_eq!(eval.server_count(), 4);
    }

    #[test]
    fn promote_then_grow_matches_plan() {
        let platform = lyon_cluster(10);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        plan.add_server(plan.root(), NodeId(2)).unwrap();
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        let original = plan.clone();

        plan.convert_to_agent(Slot(1)).unwrap();
        eval.promote_to_agent(Slot(1)).unwrap();
        let node = NodeId(3);
        plan.add_server(Slot(1), node).unwrap();
        eval.add_server(Slot(1), node, platform.power(node))
            .unwrap();
        check_parity(&eval, &params, &platform, &plan, &svc, "promote+grow");

        // Retract the child, then the promotion.
        eval.undo();
        eval.undo();
        check_parity(&eval, &params, &platform, &original, &svc, "undo");
    }

    #[test]
    fn move_child_matches_plan() {
        let platform = lyon_cluster(10);
        let svc = Dgemm::new(100).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let a = plan.add_agent(plan.root(), NodeId(1)).unwrap();
        let b = plan.add_agent(plan.root(), NodeId(2)).unwrap();
        for i in 3..7 {
            plan.add_server(a, NodeId(i)).unwrap();
        }
        plan.add_server(b, NodeId(7)).unwrap();
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);

        plan.move_child(Slot(3), b).unwrap();
        eval.move_child(Slot(3), b).unwrap();
        check_parity(&eval, &params, &platform, &plan, &svc, "move");
    }

    #[test]
    fn abstract_agent_set_matches_realized_tree() {
        use crate::model::throughput::sch_pow;
        let platform = heterogenized_cluster(
            "h",
            12,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            5,
        );
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let nodes = platform.ids_by_power_desc();
        let (agents, servers) = (&nodes[0..3], &nodes[3..9]);

        let mut eval = IncrementalEval::from_agents(&params, &platform, agents, &svc);
        // Hand the two non-root agents their child slots, then attach the
        // servers under whichever agent keeps the highest post-attachment
        // scheduling power (the waterfill rule).
        eval.assign_child_slot(Slot(0)).unwrap();
        eval.assign_child_slot(Slot(0)).unwrap();
        for &s in servers {
            let best = eval
                .agents()
                .max_by(|&x, &y| {
                    let px = sch_pow(&params, eval.power(x), eval.degree(x) + 1);
                    let py = sch_pow(&params, eval.power(y), eval.degree(y) + 1);
                    px.partial_cmp(&py).unwrap().then(y.cmp(&x))
                })
                .unwrap();
            eval.add_server(best, s, platform.power(s)).unwrap();
        }
        // The realized tree with the same degree distribution must agree.
        let degrees: Vec<usize> = (0..3).map(|i| eval.degree(Slot(i))).collect();
        let plan = crate::planner::realize::realize(agents, servers, &degrees);
        check_parity(&eval, &params, &platform, &plan, &svc, "abstract");
    }

    #[test]
    fn error_paths_do_not_mutate() {
        let platform = lyon_cluster(6);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        let rho = eval.rho();

        assert!(eval
            .add_server(Slot(1), NodeId(2), MflopRate(400.0))
            .is_err());
        assert!(eval
            .add_server(Slot(0), NodeId(1), MflopRate(400.0))
            .is_err());
        assert!(eval
            .add_server(Slot(9), NodeId(2), MflopRate(400.0))
            .is_err());
        assert!(eval.remove_server(Slot(0)).is_err());
        assert!(eval.promote_to_agent(Slot(0)).is_err());
        assert!(eval.move_child(Slot(0), Slot(0)).is_err());
        assert!(eval.move_child(Slot(1), Slot(1)).is_err());
        assert_eq!(eval.pending_deltas(), 0);
        assert_eq!(eval.rho().to_bits(), rho.to_bits());
    }

    #[test]
    fn commit_clears_history() {
        let platform = lyon_cluster(6);
        let svc = Dgemm::new(310).service();
        let params = ModelParams::from_platform(&platform);
        let plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        eval.add_server(Slot(0), NodeId(2), platform.power(NodeId(2)))
            .unwrap();
        eval.commit();
        assert_eq!(eval.pending_deltas(), 0);
        assert!(!eval.undo());
        assert_eq!(eval.server_count(), 2);
    }

    fn three_mix() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(100).service(), 2.0),
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ])
    }

    fn check_mix_parity(
        eval: &IncrementalEval,
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        context: &str,
    ) {
        let full = super::super::mix::evaluate_mix_full(params, platform, plan, mix, assignment);
        let fast = eval.mix_report();
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(rel(fast.rho, full.rho), "{context}: rho");
        assert!(rel(fast.rho_sched, full.rho_sched), "{context}: rho_sched");
        for j in 0..mix.len() {
            assert!(
                rel(fast.rho_service[j], full.rho_service[j]),
                "{context}: service {j}"
            );
        }
        assert_eq!(
            fast.binding_service, full.binding_service,
            "{context}: binding"
        );
    }

    #[test]
    fn mix_deltas_update_every_service_at_once() {
        let platform = lyon_cluster(20);
        let mix = three_mix();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let mut assignment = ServerAssignment::default();
        for (i, j) in [(1u32, 0usize), (2, 1), (3, 2)] {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
            assignment.service_of.insert(NodeId(i), j);
        }
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        check_mix_parity(
            &eval,
            &params,
            &platform,
            &plan,
            &mix,
            &assignment,
            "static",
        );
        // Grow each service in turn; every add must move only its own
        // service's rate while the report stays in full parity.
        for (i, j) in [(4u32, 2usize), (5, 2), (6, 0), (7, 1), (8, 2)] {
            let before: Vec<f64> = (0..3).map(|k| eval.rho_service_of(k)).collect();
            let predicted = eval.service_rate_with_added(j, 1, platform.power(NodeId(i)).value());
            plan.add_server(plan.root(), NodeId(i)).unwrap();
            assignment.service_of.insert(NodeId(i), j);
            eval.add_server_for(Slot(0), NodeId(i), platform.power(NodeId(i)), j)
                .unwrap();
            assert_eq!(
                predicted.to_bits(),
                eval.rho_service_of(j).to_bits(),
                "analytic probe must be bit-identical to the applied delta"
            );
            for (k, rate) in before.iter().enumerate() {
                if k != j {
                    assert_eq!(
                        rate.to_bits(),
                        eval.rho_service_of(k).to_bits(),
                        "untouched service {k} must not move"
                    );
                }
            }
            check_mix_parity(&eval, &params, &platform, &plan, &mix, &assignment, "grow");
        }
        assert_eq!(eval.server_count_for(2), 4);
        assert_eq!(eval.service_count(), 3);
    }

    #[test]
    fn mix_undo_is_bit_exact_across_services() {
        let platform = lyon_cluster(16);
        let mix = three_mix();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let mut assignment = ServerAssignment::default();
        for (i, j) in [(1u32, 0usize), (2, 1), (3, 2), (4, 0)] {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
            assignment.service_of.insert(NodeId(i), j);
        }
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let before: Vec<u64> = (0..3).map(|k| eval.rho_service_of(k).to_bits()).collect();
        let rho_before = eval.rho().to_bits();

        eval.add_server_for(Slot(0), NodeId(9), platform.power(NodeId(9)), 1)
            .unwrap();
        eval.promote_to_agent(Slot(1)).unwrap();
        eval.add_server_for(Slot(1), NodeId(10), platform.power(NodeId(10)), 2)
            .unwrap();
        eval.remove_server(Slot(3)).unwrap();
        eval.undo_all();

        for (k, &bits) in before.iter().enumerate() {
            assert_eq!(
                bits,
                eval.rho_service_of(k).to_bits(),
                "service {k} must restore bit-exactly"
            );
        }
        assert_eq!(rho_before, eval.rho().to_bits());
        check_mix_parity(&eval, &params, &platform, &plan, &mix, &assignment, "undo");
    }

    #[test]
    fn reassign_moves_rates_between_services_and_undoes_bit_exactly() {
        let platform = lyon_cluster(12);
        let mix = three_mix();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let mut assignment = ServerAssignment::default();
        for (i, j) in [(1u32, 0usize), (2, 0), (3, 1), (4, 2)] {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
            assignment.service_of.insert(NodeId(i), j);
        }
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let before: Vec<u64> = (0..3).map(|k| eval.rho_service_of(k).to_bits()).collect();
        let sched = eval.rho_sched().to_bits();

        // Move the second service-0 server to service 2.
        assert!(eval.reassign_server(Slot(2), 2).unwrap());
        assert_eq!(eval.server_count_for(0), 1);
        assert_eq!(eval.server_count_for(2), 2);
        assert_eq!(eval.service_of(Slot(2)), 2);
        assert_eq!(
            sched,
            eval.rho_sched().to_bits(),
            "a reinstall never moves the scheduling phase"
        );
        // Parity with a from-scratch build of the reassigned partition.
        assignment.service_of.insert(NodeId(2), 2);
        check_mix_parity(
            &eval,
            &params,
            &platform,
            &plan,
            &mix,
            &assignment,
            "reassign",
        );
        // Same-service reassignment records nothing.
        assert!(!eval.reassign_server(Slot(2), 2).unwrap());
        assert_eq!(eval.pending_deltas(), 1);
        // Errors leave no trace.
        assert!(
            eval.reassign_server(Slot(0), 1).is_err(),
            "root is no server"
        );
        assert!(matches!(
            eval.reassign_server(Slot(2), 9),
            Err(PlanError::InvalidServiceIndex { .. })
        ));
        // Unwind restores every service bit-exactly.
        eval.undo_all();
        for (k, &bits) in before.iter().enumerate() {
            assert_eq!(bits, eval.rho_service_of(k).to_bits(), "service {k}");
        }
    }

    #[test]
    fn demoted_agent_returns_to_its_previous_service() {
        let platform = lyon_cluster(8);
        let mix = three_mix();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        let mut assignment = ServerAssignment::default();
        for (i, j) in [(1u32, 1usize), (2, 0), (3, 2)] {
            plan.add_server(plan.root(), NodeId(i)).unwrap();
            assignment.service_of.insert(NodeId(i), j);
        }
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let before = eval.rho_service_of(1).to_bits();
        eval.promote_to_agent(Slot(1)).unwrap();
        assert_eq!(eval.server_count_for(1), 0);
        // Undoing the promotion demotes the agent back to a server.
        eval.undo();
        assert_eq!(eval.server_count_for(1), 1);
        assert_eq!(eval.service_of(Slot(1)), 1);
        assert_eq!(before, eval.rho_service_of(1).to_bits());
    }

    #[test]
    fn invalid_service_index_is_rejected_without_mutation() {
        let platform = lyon_cluster(6);
        let mix = three_mix();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::with_root(NodeId(0));
        plan.add_server(plan.root(), NodeId(1)).unwrap();
        let mut assignment = ServerAssignment::default();
        assignment.service_of.insert(NodeId(1), 0);
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        let rho = eval.rho().to_bits();
        assert!(matches!(
            eval.add_server_for(Slot(0), NodeId(2), platform.power(NodeId(2)), 7),
            Err(PlanError::InvalidServiceIndex {
                index: 7,
                services: 3
            })
        ));
        assert_eq!(eval.pending_deltas(), 0);
        assert_eq!(rho, eval.rho().to_bits());
        // Constructor-level rejection too.
        assignment.service_of.insert(NodeId(1), 9);
        assert!(matches!(
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment),
            Err(PlanError::InvalidServiceIndex { .. })
        ));
    }

    mod site_aware {
        use super::*;
        use crate::model::hetero::evaluate_hetero;
        use adept_platform::generator::multi_site_grid;
        use adept_platform::{MbitRate, Network, Seconds, SiteId};

        fn grid(seed: u64) -> Platform {
            multi_site_grid(3, 6, MflopRate(400.0), MbitRate(100.0), MbitRate(8.0), seed)
        }

        fn check_hetero_parity(
            eval: &IncrementalEval,
            params: &ModelParams,
            platform: &Platform,
            plan: &DeploymentPlan,
            service: &ServiceSpec,
            context: &str,
        ) {
            let full = evaluate_hetero(params, platform, plan, service);
            let fast = eval.report();
            let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            assert!(
                rel(fast.rho, full.rho),
                "{context}: rho {} vs hetero {}",
                fast.rho,
                full.rho
            );
            assert!(rel(fast.rho_sched, full.rho_sched), "{context}: rho_sched");
            assert!(
                rel(fast.rho_service, full.rho_service),
                "{context}: rho_service {} vs {}",
                fast.rho_service,
                full.rho_service
            );
        }

        #[test]
        fn cross_site_plan_matches_hetero_reference_through_deltas() {
            let platform = grid(7);
            let params = ModelParams::from_platform(&platform);
            let svc = Dgemm::new(310).service();
            // Root on site 0, mid-agent on site 1, servers on all sites.
            let mut plan = DeploymentPlan::with_root(NodeId(0));
            let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
            assert!(eval.is_site_aware());
            assert_eq!(eval.site_of_slot(Slot(0)), SiteId(0));

            let mid = plan.add_server(plan.root(), NodeId(6)).unwrap(); // site 1
            eval.add_server(Slot(0), NodeId(6), platform.power(NodeId(6)))
                .unwrap();
            check_hetero_parity(&eval, &params, &platform, &plan, &svc, "cross add");
            plan.convert_to_agent(mid).unwrap();
            eval.promote_to_agent(mid).unwrap();
            for node in [7u32, 8, 12, 1, 2] {
                let node = NodeId(node);
                plan.add_server(mid, node).unwrap();
                eval.add_server(mid, node, platform.power(node)).unwrap();
                check_hetero_parity(&eval, &params, &platform, &plan, &svc, "grow");
            }
            // Reparenting across sites moves the child's own link cost.
            plan.move_child(Slot(6), plan.root()).unwrap();
            eval.move_child(Slot(6), Slot(0)).unwrap();
            check_hetero_parity(&eval, &params, &platform, &plan, &svc, "move");
            // Removal gives the link cost back (slot 3 hosts NodeId(8)).
            eval.remove_server(Slot(3)).unwrap();
            let mut smaller = DeploymentPlan::with_root(NodeId(0));
            let mid2 = smaller.add_server(smaller.root(), NodeId(6)).unwrap();
            smaller.convert_to_agent(mid2).unwrap();
            for node in [7u32, 12, 1, 2] {
                smaller.add_server(mid2, NodeId(node)).unwrap();
            }
            smaller.move_child(Slot(5), smaller.root()).unwrap();
            check_hetero_parity(&eval, &params, &platform, &smaller, &svc, "remove");
        }

        #[test]
        fn site_aware_undo_is_bit_exact() {
            let platform = grid(21);
            let params = ModelParams::from_platform(&platform);
            let svc = Dgemm::new(310).service();
            let mut plan = DeploymentPlan::with_root(NodeId(0));
            for i in [1u32, 6, 12] {
                plan.add_server(plan.root(), NodeId(i)).unwrap();
            }
            let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
            let before_rho = eval.rho().to_bits();
            let before_report = eval.report();

            eval.add_server(Slot(0), NodeId(7), platform.power(NodeId(7)))
                .unwrap();
            eval.promote_to_agent(Slot(2)).unwrap();
            eval.add_server(Slot(2), NodeId(13), platform.power(NodeId(13)))
                .unwrap();
            eval.move_child(Slot(3), Slot(2)).unwrap();
            eval.remove_server(Slot(1)).unwrap();
            // A cross-site phantom probe is retracted by undo (never by
            // `release_child_slot`, which prices the agent's own site —
            // only an own-site `assign_child_slot` may pair with it).
            eval.assign_child_slot_at(Slot(0), SiteId(2)).unwrap();
            eval.assign_child_slot(Slot(0)).unwrap();
            eval.release_child_slot(Slot(0)).unwrap();
            assert_eq!(eval.pending_deltas(), 8);
            eval.undo_all();
            assert_eq!(eval.rho().to_bits(), before_rho, "must unwind bit-exactly");
            assert_eq!(eval.report(), before_report);
            check_hetero_parity(&eval, &params, &platform, &plan, &svc, "after undo");
        }

        #[test]
        fn analytic_probes_are_bit_identical_to_deltas() {
            let platform = grid(3);
            let params = ModelParams::from_platform(&platform);
            let svc = Dgemm::new(310).service();
            let mut plan = DeploymentPlan::with_root(NodeId(0));
            plan.add_server(plan.root(), NodeId(1)).unwrap();
            let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
            for node in [6u32, 13, 2] {
                let node = NodeId(node);
                let site = platform.site_of(node);
                let predicted_rate = eval.service_rate_with_extra_at(0, platform.power(node), site);
                let predicted_cycle = eval.cycle_with_extra_child(Slot(0), site);
                let predicted_server = eval.server_cycle_at(platform.power(node), site, Slot(0));
                let slot = eval
                    .add_server(Slot(0), node, platform.power(node))
                    .unwrap();
                assert_eq!(
                    predicted_rate.to_bits(),
                    eval.rho_service_of(0).to_bits(),
                    "service-rate probe for {node}"
                );
                assert_eq!(
                    predicted_cycle.to_bits(),
                    eval.cached_cycle(Slot(0)).to_bits(),
                    "agent-cycle probe for {node}"
                );
                assert_eq!(
                    predicted_server.to_bits(),
                    eval.cached_cycle(slot).to_bits(),
                    "server-cycle probe for {node}"
                );
            }
        }

        #[test]
        fn equal_bandwidth_per_site_pair_matches_uniform_values() {
            // A PerSitePair network whose intra and inter bandwidths are
            // all equal is *numerically* uniform: the site-aware path
            // must agree with the homogeneous engine to 1e-9.
            let mut b = Platform::builder(Network::PerSitePair {
                intra: vec![MbitRate(100.0), MbitRate(100.0)],
                inter: MbitRate(100.0),
                latency: Seconds::ZERO,
            });
            let s0 = b.add_site("a");
            let s1 = b.add_site("b");
            for i in 0..4 {
                b.add_node(format!("a{i}"), MflopRate(400.0 - i as f64 * 13.0), s0)
                    .unwrap();
            }
            for i in 0..4 {
                b.add_node(format!("b{i}"), MflopRate(350.0 - i as f64 * 11.0), s1)
                    .unwrap();
            }
            let platform = b.build().unwrap();
            let params = ModelParams::from_platform(&platform);
            let svc = Dgemm::new(310).service();
            let mut plan = DeploymentPlan::with_root(NodeId(0));
            let mid = plan.add_server(plan.root(), NodeId(4)).unwrap();
            plan.convert_to_agent(mid).unwrap();
            for i in [1u32, 2, 5, 6] {
                plan.add_server(if i < 4 { plan.root() } else { mid }, NodeId(i))
                    .unwrap();
            }
            let aware = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
            assert!(aware.is_site_aware());
            let uniform = IncrementalEval::from_plan(&params.scalarized(), &platform, &plan, &svc);
            assert!(!uniform.is_site_aware());
            let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            assert!(rel(aware.rho(), uniform.rho()));
            assert!(rel(aware.rho_sched(), uniform.rho_sched()));
            assert!(rel(aware.rho_service(), uniform.rho_service()));
        }

        #[test]
        fn homogeneous_network_never_builds_site_machinery() {
            let platform = lyon_cluster(6);
            let params = ModelParams::from_platform(&platform);
            let svc = Dgemm::new(310).service();
            let plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
            let eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
            assert!(!eval.is_site_aware());
            assert_eq!(eval.site_of_slot(Slot(0)), SiteId(0));
        }
    }

    #[test]
    fn tree_growth_preserves_max() {
        let platform = lyon_cluster(200);
        let svc = Dgemm::new(1000).service();
        let params = ModelParams::from_platform(&platform);
        let mut plan = DeploymentPlan::agent_server(NodeId(0), NodeId(1));
        let mut eval = IncrementalEval::from_plan(&params, &platform, &plan, &svc);
        // Push far past the initial tree capacity.
        for i in 2..150 {
            let node = NodeId(i);
            plan.add_server(plan.root(), node).unwrap();
            eval.add_server(Slot(0), node, platform.power(node))
                .unwrap();
        }
        check_parity(&eval, &params, &platform, &plan, &svc, "growth");
    }

    #[test]
    fn service_rate_with_added_matches_applied_deltas_uniform_and_site_aware() {
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        use adept_workload::ServiceMix;
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 2.0),
            (Dgemm::new(450).service(), 1.0),
        ]);
        for (label, platform) in [
            ("uniform", lyon_cluster(12)),
            (
                "site-aware",
                multi_site_grid(2, 6, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 3),
            ),
        ] {
            let params = ModelParams::from_platform(&platform);
            let nodes = platform.ids_by_power_desc();
            let mut eval = IncrementalEval::from_agents_mix(&params, &platform, &nodes[..1], &mix);
            eval.add_server_for(Slot(0), nodes[1], platform.power(nodes[1]), 0)
                .unwrap();
            eval.add_server_for(Slot(0), nodes[2], platform.power(nodes[2]), 1)
                .unwrap();
            eval.commit();
            assert_eq!(eval.is_site_aware(), label == "site-aware");
            // One-server batch probe == the exact single-server probe for
            // a newcomer on a site the partition already spans, bitwise
            // (same formula, same transfer bound), in both modes.
            for (j, host) in [(0, nodes[1]), (1, nodes[2])] {
                let p = platform.power(nodes[3]);
                assert_eq!(
                    eval.service_rate_with_added(j, 1, p.value()).to_bits(),
                    eval.service_rate_with_extra_at(j, p, platform.site_of(host))
                        .to_bits(),
                    "{label}: single-server batch probe must match"
                );
            }
            // m-server batch probe == actually applying the deltas (to
            // float associativity: the probe multiplies the power *sum*
            // once where the deltas multiply per server), when the
            // newcomers share the partition's site so the worst client
            // transfer is unchanged — the accuracy the mix sweep's
            // pruning bound relies on (its TIE_EPS margins absorb the
            // ulp-level difference).
            let same_site: Vec<NodeId> = nodes[3..]
                .iter()
                .copied()
                .filter(|&id| platform.site_of(id) == platform.site_of(nodes[1]))
                .take(3)
                .collect();
            assert!(same_site.len() >= 2, "{label}: need same-site spares");
            let sum: f64 = same_site.iter().map(|&id| platform.power(id).value()).sum();
            let predicted = eval.service_rate_with_added(0, same_site.len(), sum);
            for &id in &same_site {
                eval.add_server_for(Slot(0), id, platform.power(id), 0)
                    .unwrap();
            }
            let applied = eval.rho_service_of(0);
            assert!(
                (predicted - applied).abs() <= 1e-12 * applied.max(1.0),
                "{label}: batch probe {predicted} vs applied deltas {applied}"
            );
            eval.undo_all();
        }
    }
}
