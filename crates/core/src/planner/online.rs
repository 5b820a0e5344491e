//! Online re-planning with bounded disruption.
//!
//! The authors' earlier tools \[6, 7\] worked on *running* deployments:
//! analyze, find the bottleneck, adjust. In operation the constraint that
//! matters is **disruption** — every changed node means killing or
//! launching a middleware element while clients are connected. This
//! module revises a running plan under a budget of changed nodes:
//!
//! * **grow** — attach an unused platform node as a server under the
//!   agent that keeps the highest scheduling power with one more child
//!   (1 change): Algorithm 1's attach rule, read from the same lazily
//!   re-keyed heap the offline growth loop keeps. The node is the
//!   strongest spare (on a multi-site platform, the best of each site's
//!   strongest), read through a [`SpareCursor`] from the platform's
//!   stored per-site order, so a round reads O(plan + sites) nodes, not
//!   the catalog;
//! * **reassign** — reinstall a server of a slack service for a starved
//!   one (1 change, tree untouched; multi-service deployments only);
//! * **shrink** — retire the weakest server (1 change; frees a machine
//!   when demand dropped);
//! * **convert-grow** — promote the strongest server to an agent and give
//!   it a fresh server (2 changes; opens a level when agents saturate).
//!
//! Each step is an *incremental* tree edit (no global re-realization), so
//! the [`PlanDiff`] against the running plan
//! stays within the budget — unlike
//! [`improve::rebalance`](super::improve), which optimizes throughput
//! with no regard for how much of the tree it rewires.
//!
//! The budgeted grow/reassign/convert-grow/shrink skeleton itself lives
//! in [`revise`](super::revise) (the crate-private `drive` function over
//! the `ReviseOps` move trait). This module implements the moves once,
//! on the batched [`IncrementalEval`]: a single-service
//! [`replan`](OnlinePlanner::replan) is a one-service
//! [`replan_mix`](OnlinePlanner::replan_mix) round. The public
//! [`Revise`](super::Revise) trait is the entry point through which the
//! autonomic control loop calls this planner.

// audit: allow-file(unwrap, "online engine: every escape is a documented-invariant
// .expect on state this module itself maintains; the churn/replay parity tests
// in this file exercise each path")
use super::mix::{
    accept_growth, best_attach_normalized, demand_met, normalized_min, normalized_service_min,
    AttachChoice, MixObjective,
};
use super::realize::AttachHeap;
use super::revise::{drive, ReviseOps};
use super::EPS;
use crate::model::mix::{MixReport, ServerAssignment};
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, PlanDiff, PlanError, Role, Slot};
use adept_platform::{NodeId, Platform, SpareCursor};
use adept_workload::{ClientDemand, MixDemand, ServiceMix, ServiceSpec};

/// Engine state preserved across revision rounds: the incremental
/// evaluator (tournament tree + running sums) and the spare-node cursor,
/// both reading exactly as a cold rebuild of the same inputs would.
///
/// A state is captured only after a round that committed **zero**
/// moves — every probe was undone, and undo is bit-exact — so seeding
/// the next round from it is answer-identical to rebuilding cold.
#[derive(Debug, Clone)]
struct WarmState {
    eval: IncrementalEval,
    /// Read positions only ever move past nodes of the running plan, and
    /// a zero-commit round takes and frees nothing, so the cursor reads
    /// the next round's spares exactly as a fresh one would.
    unused: SpareCursor,
    /// Cheap O(S) fingerprint of the inputs the state was built from.
    fingerprint: u64,
    /// Demand bit patterns of the zero-commit round that produced this
    /// state — the memo key for the steady-state short circuit.
    demand_bits: Vec<u64>,
    /// The disruption budget that round ran under.
    budget: usize,
}

/// Reusable engine state threaded across [`OnlinePlanner`] revision
/// rounds, with hit/miss counters.
///
/// Owned by the caller (the autonomic controller keeps one per loop)
/// and passed to [`OnlinePlanner::replan_mix_warm`] (through
/// [`Revise::revise_mix_warm`](super::Revise::revise_mix_warm)), which
/// seeds its search from the incumbent [`IncrementalEval`] instead of
/// rebuilding it from the plan — skipping the O(plan log plan) engine
/// construction on steady-state ticks, and answering a tick whose demand
/// repeats the stored round's in O(S). Warm state is a pure search
/// accelerator: warm rounds return bit-identical answers to their cold
/// counterparts.
///
/// **Invalidation contract:** the fingerprint guarding reuse is a cheap
/// O(S) sanity check (plan size, root, mix shares/Wapps), not a full
/// structural hash. A caller that mutates the running plan or
/// assignment outside the replan calls (e.g. adopting migration spare
/// substitutions) must call [`invalidate`](WarmCache::invalidate).
#[derive(Debug, Clone, Default)]
pub struct WarmCache {
    state: Option<WarmState>,
    hits: u64,
    misses: u64,
}

impl WarmCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops any cached engine state; the next replan rebuilds cold.
    pub fn invalidate(&mut self) {
        self.state = None;
    }

    /// Rounds that seeded from cached state.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Rounds that had to rebuild cold.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// FNV-1a accumulation step.
fn fnv(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// O(S) fingerprint of a mix-revision input (deliberately *not* O(n):
/// hashing the whole plan would cost what the warm start saves).
fn mix_fingerprint(plan: &DeploymentPlan, mix: &ServiceMix, assignment: &ServerAssignment) -> u64 {
    let mut h = fnv(FNV_OFFSET, plan.len() as u64);
    h = fnv(h, plan.server_count() as u64);
    h = fnv(h, u64::from(plan.node(plan.root()).0));
    h = fnv(h, assignment.service_of.len() as u64);
    h = fnv(h, mix.len() as u64);
    for j in 0..mix.len() {
        h = fnv(h, mix.share(j).to_bits());
        h = fnv(h, mix.service(j).wapp.value().to_bits());
    }
    h
}

/// Bit-pattern encoding of a demand vector (the memo key).
fn mix_demand_bits(demand: &MixDemand) -> Vec<u64> {
    (0..demand.len())
        .map(|j| demand.rate(j).to_bits())
        .collect()
}

/// Result of a re-planning round.
#[derive(Debug, Clone)]
pub struct Replan {
    /// The revised plan.
    pub plan: DeploymentPlan,
    /// What changed relative to the running plan.
    pub diff: PlanDiff,
    /// Modelled throughput of the revised plan.
    pub rho: f64,
}

/// Result of a multi-service re-planning round.
#[derive(Debug, Clone)]
pub struct MixReplan {
    /// The revised plan.
    pub plan: DeploymentPlan,
    /// The revised server→service partition.
    pub assignment: ServerAssignment,
    /// What changed relative to the running plan. Pure service
    /// reassignments do not appear here (the tree is untouched); see
    /// [`reassigned`](MixReplan::reassigned).
    pub diff: PlanDiff,
    /// Servers moved to another service, `(node, from, to)` — a
    /// reinstall on the same machine, one disruption each.
    pub reassigned: Vec<(NodeId, usize, usize)>,
    /// Model evaluation of the revised deployment.
    pub report: MixReport,
}

impl MixReplan {
    /// Total disruptions of the round: tree changes plus reinstalls.
    pub fn changes(&self) -> usize {
        self.diff.len() + self.reassigned.len()
    }
}

/// Online re-planner with a disruption budget.
#[derive(Debug, Clone, Copy)]
pub struct OnlinePlanner {
    /// Maximum number of node-level changes (added/removed/re-roled
    /// nodes) per re-planning round.
    pub max_changes: usize,
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
}

impl Default for OnlinePlanner {
    fn default() -> Self {
        Self {
            max_changes: 4,
            params: None,
        }
    }
}

/// Rebuilds `plan` without the given **leaf server** slot.
fn without_server(plan: &DeploymentPlan, victim: Slot) -> DeploymentPlan {
    debug_assert_eq!(plan.role(victim), Role::Server);
    let mut rebuilt = DeploymentPlan::with_root(plan.node(plan.root()));
    let mut map = std::collections::HashMap::new();
    map.insert(plan.root(), rebuilt.root());
    for s in plan.bfs_order().into_iter().skip(1) {
        if s == victim {
            continue;
        }
        let parent = map[&plan.parent(s).expect("non-root has a parent")];
        let slot = match plan.role(s) {
            Role::Agent => rebuilt
                .add_agent(parent, plan.node(s))
                .expect("rebuild preserves uniqueness"),
            Role::Server => rebuilt
                .add_server(parent, plan.node(s))
                .expect("rebuild preserves uniqueness"),
        };
        map.insert(s, slot);
    }
    rebuilt
}

/// The engine's servers, weakest first with ties to the lower slot: the
/// order in which `reassign` tries donors and `shrink` tries victims.
fn servers_weakest_first(eval: &IncrementalEval) -> Vec<Slot> {
    let mut servers: Vec<Slot> = eval.servers().collect();
    // Positive finite powers order like their IEEE-754 bit patterns.
    servers.sort_unstable_by_key(|&s| (eval.power(s).value().to_bits(), s));
    servers
}

/// Working state of one revision round on the batched evaluator: shared
/// scheduling phase, per-service Eq. 15 sums, so a probe costs
/// O(log n + S) regardless of the mix size. Commits mirror onto the
/// running plan and assignment so the round's [`PlanDiff`] and
/// reassignments describe exactly what changed.
struct MixOps<'a> {
    params: ModelParams,
    platform: &'a Platform,
    /// The round's input plan: the nodes the spare cursor skips. Nodes
    /// the round takes or frees are recorded in the cursor.
    running: &'a DeploymentPlan,
    mix: &'a ServiceMix,
    demand: &'a MixDemand,
    plan: DeploymentPlan,
    assignment: ServerAssignment,
    eval: IncrementalEval,
    /// Attach targets of `eval`'s agents, kept current across commits.
    heap: AttachHeap,
    reassigned: Vec<(NodeId, usize, usize)>,
    unused: SpareCursor,
    /// Per-service margin divisors (zero = that component never binds).
    divisors: Vec<f64>,
    /// Scheduling-phase divisor.
    sched_divisor: f64,
    /// Service indices worth growing (margin component can move).
    services: Vec<usize>,
    /// Current margin value.
    current: f64,
    /// Moves committed this round. Zero means every probe was undone —
    /// the engine still bit-equals its (cold-built) starting state.
    commits: usize,
}

impl MixOps<'_> {
    fn margin(&self) -> f64 {
        normalized_min(&self.eval, &self.divisors, self.sched_divisor)
    }

    /// Growth candidates for one replan step: on a uniform network, the
    /// strongest unused node; on a multi-site platform, the strongest
    /// unused node **of every site**, strongest first — a weaker local
    /// node can beat the globally strongest one sitting behind a slow WAN
    /// link, so each site's best candidate is probed with its real link
    /// costs.
    fn grow_candidates(&mut self) -> Vec<NodeId> {
        let running = self.running;
        let used = |id| running.uses_node(id);
        if self.eval.is_site_aware() {
            self.unused.site_heads(self.platform, used)
        } else {
            self.unused
                .strongest(self.platform, used)
                .into_iter()
                .collect()
        }
    }

    fn probe_attach(&mut self, parent: Slot, fresh: NodeId) -> AttachChoice {
        best_attach_normalized(
            &mut self.eval,
            parent,
            self.platform.power(fresh),
            self.platform.site_of(fresh),
            &self.divisors,
            self.sched_divisor,
            &self.services,
        )
    }
}

impl ReviseOps for MixOps<'_> {
    fn met(&self) -> bool {
        demand_met(&self.eval, self.demand)
    }

    fn grow(&mut self) -> Option<usize> {
        // Grow one server (1 change) for the service that most improves
        // the margin. Multi-site platforms probe every site's strongest
        // spare node with its real link costs.
        let grow = self.grow_candidates();
        // Probes are undone, so the pre-attach service-phase minimum is
        // invariant across candidates.
        let svc_min = normalized_service_min(&self.eval, &self.divisors);
        let mut best: Option<(AttachChoice, NodeId, Slot)> = None;
        for &fresh in &grow {
            let agent = self
                .heap
                .best_for(&self.params, &self.eval, self.platform.site_of(fresh));
            let choice = self.probe_attach(agent, fresh);
            if accept_growth(MixObjective::WeightedMin, &choice, self.current, svc_min)
                && best
                    .as_ref()
                    .is_none_or(|(b, _, _)| choice.score > b.score * (1.0 + EPS))
            {
                best = Some((choice, fresh, agent));
            }
        }
        let (choice, fresh, agent) = best?;
        self.eval
            .add_server_for(agent, fresh, self.platform.power(fresh), choice.service)
            .expect("unused node under an agent inserts");
        self.plan
            .add_server(agent, fresh)
            .expect("unused node under an agent inserts");
        self.assignment.service_of.insert(fresh, choice.service);
        self.eval.commit();
        self.heap.update(&self.params, &self.eval, agent);
        self.current = choice.score;
        self.unused.take(self.platform, fresh);
        self.commits += 1;
        Some(1)
    }

    fn reassign(&mut self) -> Option<usize> {
        // Reinstall a server of a slack service for a starved one —
        // 1 change, no tree edit. The donor is scanned weakest-first
        // (minimize the donor's loss); the first reassignment improving
        // the margin commits.
        for victim in servers_weakest_first(&self.eval) {
            for &j in &self.services {
                if self.eval.service_of(victim) == j {
                    continue;
                }
                let moved = self
                    .eval
                    .reassign_server(victim, j)
                    .expect("victim is a server of the mix");
                debug_assert!(moved, "distinct services always apply");
                let m = self.margin();
                if m > self.current * (1.0 + EPS) {
                    let node = self.eval.node(victim);
                    let from = self
                        .assignment
                        .service_of
                        .insert(node, j)
                        .expect("running servers are assigned");
                    self.reassigned.push((node, from, j));
                    self.eval.commit();
                    self.current = m;
                    self.commits += 1;
                    return Some(1);
                }
                self.eval.undo();
            }
        }
        None
    }

    fn convert_grow(&mut self) -> Option<usize> {
        // Promote the strongest server, attach the best spare node under
        // it for the best service (2 changes).
        let running = self.running;
        if self.eval.server_count() < 2
            || self
                .unused
                .strongest(self.platform, |id| running.uses_node(id))
                .is_none()
        {
            return None;
        }
        let victim = self
            .eval
            .servers()
            .max_by(|&a, &b| {
                let pa = self.eval.power(a).value();
                let pb = self.eval.power(b).value();
                pa.partial_cmp(&pb).expect("finite").then(b.cmp(&a))
            })
            .expect("server_count >= 2");
        self.eval
            .promote_to_agent(victim)
            .expect("victim is a server");
        let grow = self.grow_candidates();
        // Strict gain only, unlike `grow`'s plateau rule: the promotion
        // took a server away, so an attach that merely hands it back
        // would spend two changes and a machine on the same margin.
        let mut best: Option<(AttachChoice, NodeId)> = None;
        for &fresh in &grow {
            let choice = self.probe_attach(victim, fresh);
            if choice.score > self.current * (1.0 + EPS)
                && best
                    .as_ref()
                    .is_none_or(|(b, _)| choice.score > b.score * (1.0 + EPS))
            {
                best = Some((choice, fresh));
            }
        }
        let Some((choice, fresh)) = best else {
            self.eval.undo(); // retract the promotion
            return None;
        };
        self.eval
            .add_server_for(victim, fresh, self.platform.power(fresh), choice.service)
            .expect("unused node under the new agent inserts");
        let victim_node = self.eval.node(victim);
        self.plan
            .convert_to_agent(victim)
            .expect("victim is a server");
        self.plan
            .add_server(victim, fresh)
            .expect("unused node under the new agent inserts");
        self.assignment.service_of.remove(&victim_node);
        self.assignment.service_of.insert(fresh, choice.service);
        self.eval.commit();
        self.heap.rebuild(&self.params, &self.eval);
        self.current = choice.score;
        self.unused.take(self.platform, fresh);
        self.commits += 1;
        Some(2)
    }

    fn shrink(&mut self) -> Option<usize> {
        // Retire the weakest server whose removal keeps the demand met
        // (weakest-first scan — the weakest may belong to a tight
        // partition while another has slack).
        if self.eval.server_count() < 2 {
            return None;
        }
        for victim in servers_weakest_first(&self.eval) {
            self.eval.remove_server(victim).expect("victim is a server");
            if demand_met(&self.eval, self.demand) {
                let node = self.plan.node(victim);
                self.unused.free(node);
                self.assignment.service_of.remove(&node);
                self.plan = without_server(&self.plan, victim);
                // Committing a removal compacts the plan's slots, so the
                // mirror is rebuilt to stay index-aligned.
                self.eval = IncrementalEval::from_plan_mix(
                    &self.params,
                    self.platform,
                    &self.plan,
                    self.mix,
                    &self.assignment,
                )
                .expect("the maintained assignment covers the compacted plan");
                self.heap.rebuild(&self.params, &self.eval);
                self.current = self.margin();
                self.commits += 1;
                return Some(1);
            }
            self.eval.undo();
        }
        None
    }
}

impl OnlinePlanner {
    /// Revises a running plan for the (possibly changed) demand, spending
    /// at most [`max_changes`](OnlinePlanner::max_changes) node changes.
    ///
    /// Growth moves are taken while the plan misses the demand and
    /// improves; with the demand already met, shrink moves retire servers
    /// as long as the demand *stays* met (the paper's least-resources
    /// preference, applied online). The round is a
    /// [`replan_mix`](OnlinePlanner::replan_mix) round on the one-service
    /// mix of `service`, every running server hosting it.
    ///
    /// # Panics
    /// Panics on a [`ClientDemand::Target`] rate that is negative or NaN
    /// (see [`MixDemand::targets`]);
    /// [`Revise::revise`](super::Revise::revise) returns
    /// [`PlannerError::InvalidConfig`](super::PlannerError::InvalidConfig)
    /// for it instead.
    pub fn replan(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Replan {
        let params = super::resolve_params(self.params, platform);
        let assignment = ServerAssignment {
            service_of: running.servers().map(|s| (running.node(s), 0)).collect(),
        };
        // The single-service engine is the one-service mix engine, built
        // without looking each server up in the assignment.
        let eval = IncrementalEval::from_plan(&params, platform, running, service);
        let (round, ..) = self.mix_round(
            platform,
            running,
            &ServiceMix::single(service.clone()),
            &assignment,
            &MixDemand::targets(vec![demand.rate()]),
            params,
            eval,
            SpareCursor::new(platform),
        );
        Replan {
            plan: round.plan,
            diff: round.diff,
            rho: round.report.rho,
        }
    }

    /// Revises a running **multi-service** deployment for a per-service
    /// demand vector, spending at most
    /// [`max_changes`](OnlinePlanner::max_changes) node changes, probing
    /// every move through one batched [`IncrementalEval`] (shared
    /// scheduling phase, per-service Eq. 15 sums) so a probe costs
    /// O(log n + S) regardless of the mix size.
    ///
    /// While the demand is unmet, growth moves attach an unused node as a
    /// server of whichever service most improves the demand-satisfaction
    /// margin (the smallest of `ρ_sched/Σd` and `ρ_service_j/d_j`; with
    /// any unbounded entry, the completed-mix rate); when no spare node
    /// helps, a **reassignment** reinstalls a server of a slack service
    /// for a starved one (1 change, tree untouched), and a convert-grow
    /// (2 changes) opens a level when attachment stalls and strictly
    /// raises the margin. With the demand met, shrink moves retire the
    /// weakest server whose removal keeps every service covered (the
    /// least-resources preference, applied per service).
    ///
    /// # Errors
    /// [`PlanError`] when `assignment` does not cover the running plan's
    /// servers or points outside the mix.
    ///
    /// # Panics
    /// Panics when `demand` does not cover the mix's services.
    pub fn replan_mix(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
    ) -> Result<MixReplan, PlanError> {
        assert_eq!(demand.len(), mix.len(), "one demand entry per mix service");
        let params = super::resolve_params(self.params, platform);
        let eval = IncrementalEval::from_plan_mix(&params, platform, running, mix, assignment)?;
        let unused = SpareCursor::new(platform);
        Ok(self
            .mix_round(
                platform, running, mix, assignment, demand, params, eval, unused,
            )
            .0)
    }

    /// One mix revision round from a given engine + spare cursor
    /// (cold-built or warm); returns the result together with the
    /// post-round engine state and whether the round committed nothing.
    #[allow(clippy::too_many_arguments)]
    fn mix_round(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
        params: ModelParams,
        eval: IncrementalEval,
        unused: SpareCursor,
    ) -> (MixReplan, IncrementalEval, SpareCursor, bool) {
        // Normalize the demand semantics once into per-service divisors
        // (zero = that component never binds) plus a scheduling divisor.
        // Any unbounded entry falls back to the mix shares with a unit
        // scheduling divisor — the margin is then the completed-mix rate
        // itself (a one-service mix's plain ρ); with finite targets the
        // margin is the smallest satisfaction ratio, so strictly
        // increasing it always moves toward `demand.satisfied_by`. One
        // shared machinery (`normalized_min` / `best_attach_normalized` /
        // `accept_growth`) then drives offline planning and online
        // revision alike.
        let (divisors, sched_divisor): (Vec<f64>, f64) = if demand.any_unbounded() {
            ((0..mix.len()).map(|j| mix.share(j)).collect(), 1.0)
        } else {
            (
                (0..mix.len()).map(|j| demand.rate(j)).collect(),
                demand.total_rate(),
            )
        };
        // Services worth growing: ones whose margin component can move.
        let services: Vec<usize> = (0..mix.len()).filter(|&j| divisors[j] > 0.0).collect();
        let current = normalized_min(&eval, &divisors, sched_divisor);
        let heap = AttachHeap::new(&params, &eval);
        let mut ops = MixOps {
            params,
            platform,
            running,
            mix,
            demand,
            plan: running.clone(),
            assignment: assignment.clone(),
            eval,
            heap,
            reassigned: Vec::new(),
            unused,
            divisors,
            sched_divisor,
            services,
            current,
            commits: 0,
        };
        drive(&mut ops, self.max_changes);
        let MixOps {
            plan,
            assignment,
            eval,
            reassigned,
            unused,
            commits,
            ..
        } = ops;
        let diff = if commits == 0 {
            PlanDiff::default()
        } else {
            PlanDiff::between(running, &plan)
        };
        let report = eval.mix_report();
        (
            MixReplan {
                report,
                plan,
                assignment,
                diff,
                reassigned,
            },
            eval,
            unused,
            commits == 0,
        )
    }

    /// [`replan_mix`](OnlinePlanner::replan_mix) with engine-state
    /// reuse across rounds: when `warm` holds the state of a previous
    /// zero-commit round over the same plan, mix, and assignment, the
    /// search seeds from that [`IncrementalEval`] (tournament tree and
    /// per-service running sums intact) and spare cursor instead of
    /// rebuilding the engine from the plan in O(plan log plan) — and a
    /// round whose demand vector bit-equals that round's replays its
    /// no-change outcome in O(S). The answer is bit-identical to a cold
    /// [`replan_mix`](OnlinePlanner::replan_mix) either way; see
    /// [`WarmCache`] for the invalidation contract.
    ///
    /// # Errors
    /// [`PlanError`] when `assignment` does not cover the running
    /// plan's servers or points outside the mix.
    ///
    /// # Panics
    /// Panics when `demand` does not cover the mix's services.
    pub fn replan_mix_warm(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
        warm: &mut WarmCache,
    ) -> Result<MixReplan, PlanError> {
        assert_eq!(demand.len(), mix.len(), "one demand entry per mix service");
        let params = super::resolve_params(self.params, platform);
        let fingerprint = mix_fingerprint(running, mix, assignment);
        let demand_bits = mix_demand_bits(demand);
        let seed = match warm.state.take() {
            Some(s) if s.fingerprint == fingerprint => {
                warm.hits += 1;
                Some(s)
            }
            _ => {
                warm.misses += 1;
                None
            }
        };
        let (eval, unused) = match seed {
            Some(s) => {
                if s.demand_bits == demand_bits && s.budget == self.max_changes {
                    // Steady state: identical inputs replay the stored
                    // round's no-change outcome — answer without
                    // re-driving the search.
                    let report = s.eval.mix_report();
                    warm.state = Some(s);
                    return Ok(MixReplan {
                        report,
                        plan: running.clone(),
                        assignment: assignment.clone(),
                        diff: PlanDiff::default(),
                        reassigned: Vec::new(),
                    });
                }
                (s.eval, s.unused)
            }
            None => (
                IncrementalEval::from_plan_mix(&params, platform, running, mix, assignment)?,
                SpareCursor::new(platform),
            ),
        };
        let (replan, eval, unused, quiescent) = self.mix_round(
            platform, running, mix, assignment, demand, params, eval, unused,
        );
        if quiescent {
            warm.state = Some(WarmState {
                eval,
                unused,
                fingerprint,
                demand_bits,
                budget: self.max_changes,
            });
        }
        Ok(replan)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::throughput::sch_pow;
    use crate::planner::{BalancedPlanner, HeuristicPlanner, Planner};
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate};
    use adept_workload::Dgemm;
    use proptest::prelude::*;

    /// Unused platform nodes, most powerful first: the eager spare list
    /// the cursor must read like.
    fn unused_by_power(platform: &Platform, used: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        platform
            .ids_by_power_desc()
            .into_iter()
            .filter(|&id| !used(id))
            .collect()
    }

    fn rho_of(platform: &Platform, plan: &DeploymentPlan, svc: &ServiceSpec) -> f64 {
        ModelParams::from_platform(platform)
            .evaluate(platform, plan, svc)
            .rho
    }

    /// A running plan sized for a 2 req/s demand on DGEMM 1000.
    fn running(platform: &Platform, svc: &ServiceSpec, target: f64) -> DeploymentPlan {
        HeuristicPlanner::paper()
            .plan(platform, svc, ClientDemand::target(target))
            .expect("fits")
    }

    #[test]
    fn no_changes_when_demand_already_met_exactly() {
        let platform = lyon_cluster(40);
        let svc = Dgemm::new(1000).service();
        let plan = running(&platform, &svc, 2.0);
        let replan = OnlinePlanner::default().replan(
            &platform,
            &plan,
            &svc,
            ClientDemand::target(rho_of(&platform, &plan, &svc) * 0.99),
        );
        assert!(replan.diff.is_empty(), "{}", replan.diff);
        assert!(replan.plan.structurally_eq(&plan));
    }

    #[test]
    fn grows_within_budget_when_demand_rises() {
        let platform = lyon_cluster(40);
        let svc = Dgemm::new(1000).service();
        let plan = running(&platform, &svc, 2.0);
        let before = rho_of(&platform, &plan, &svc);
        let replanner = OnlinePlanner {
            max_changes: 3,
            ..Default::default()
        };
        let replan = replanner.replan(&platform, &plan, &svc, ClientDemand::target(before * 2.0));
        assert!(replan.rho > before, "must grow toward the new demand");
        assert!(
            replan.diff.len() <= 3,
            "budget exceeded: {} changes\n{}",
            replan.diff.len(),
            replan.diff
        );
        // Growth only adds servers.
        assert!(replan.plan.server_count() > plan.server_count());
    }

    #[test]
    fn shrinks_when_demand_drops() {
        let platform = lyon_cluster(40);
        let svc = Dgemm::new(1000).service();
        let plan = running(&platform, &svc, 4.0);
        let replanner = OnlinePlanner {
            max_changes: 8,
            ..Default::default()
        };
        let low_target = 1.0;
        let replan = replanner.replan(&platform, &plan, &svc, ClientDemand::target(low_target));
        assert!(
            replan.plan.server_count() < plan.server_count(),
            "should retire servers"
        );
        assert!(
            ClientDemand::target(low_target).satisfied_by(replan.rho),
            "the reduced plan must still meet the demand ({} req/s)",
            replan.rho
        );
        assert!(replan.diff.len() <= 8);
    }

    #[test]
    fn diff_entries_are_adds_or_removes_only() {
        // Incremental edits never silently rewire unrelated nodes.
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let plan = running(&platform, &svc, 1.0);
        let before = rho_of(&platform, &plan, &svc);
        let replan = OnlinePlanner::default().replan(
            &platform,
            &plan,
            &svc,
            ClientDemand::target(before * 1.8),
        );
        for (node, change) in &replan.diff.changes {
            assert!(
                matches!(
                    change,
                    adept_hierarchy::NodeChange::Added { .. }
                        | adept_hierarchy::NodeChange::Removed { .. }
                        | adept_hierarchy::NodeChange::Rerole { .. }
                ),
                "unexpected reparenting of {node}: {change:?}"
            );
        }
    }

    #[test]
    fn unreachable_demand_stops_at_budget_or_stall() {
        let platform = lyon_cluster(10);
        let svc = Dgemm::new(1000).service();
        let plan = running(&platform, &svc, 0.5);
        let replanner = OnlinePlanner {
            max_changes: 2,
            ..Default::default()
        };
        let replan = replanner.replan(&platform, &plan, &svc, ClientDemand::target(1e9));
        assert!(replan.diff.len() <= 2);
        assert!(replan.rho >= rho_of(&platform, &plan, &svc) - 1e-9);
    }

    /// The agent that keeps the highest scheduling power after receiving
    /// one more child.
    fn best_agent(params: &ModelParams, platform: &Platform, plan: &DeploymentPlan) -> Slot {
        plan.agents()
            .max_by(|&a, &b| {
                let pa = sch_pow(params, platform.power(plan.node(a)), plan.degree(a) + 1);
                let pb = sch_pow(params, platform.power(plan.node(b)), plan.degree(b) + 1);
                pa.partial_cmp(&pb)
                    .expect("rates are finite")
                    .then(b.cmp(&a))
            })
            .expect("plans always contain the root agent")
    }

    /// The clone-and-full-evaluate reference reviser: the same budgeted
    /// skeleton as [`OnlinePlanner::replan`], every probe an O(n) plan
    /// clone plus a full Eq. 16 evaluation. Single-service and
    /// site-blind by design.
    struct SingleFullOps<'a> {
        params: ModelParams,
        platform: &'a Platform,
        service: &'a ServiceSpec,
        demand: ClientDemand,
        plan: DeploymentPlan,
        rho: f64,
        unused: Vec<NodeId>,
    }

    impl SingleFullOps<'_> {
        fn evaluate(&self, p: &DeploymentPlan) -> f64 {
            self.params.evaluate(self.platform, p, self.service).rho
        }
    }

    impl ReviseOps for SingleFullOps<'_> {
        fn met(&self) -> bool {
            self.demand.satisfied_by(self.rho)
        }

        fn grow(&mut self) -> Option<usize> {
            let &fresh = self.unused.first()?;
            let mut p = self.plan.clone();
            p.add_server(best_agent(&self.params, self.platform, &p), fresh)
                .expect("unused node under an agent inserts");
            let r = self.evaluate(&p);
            if r > self.rho * (1.0 + EPS) {
                self.plan = p;
                self.rho = r;
                self.unused.retain(|&n| n != fresh);
                Some(1)
            } else {
                None
            }
        }

        fn convert_grow(&mut self) -> Option<usize> {
            // Promote the strongest server, attach a fresh node under it.
            if self.plan.server_count() < 2 || self.unused.is_empty() {
                return None;
            }
            let victim = self
                .plan
                .servers()
                .max_by(|&a, &b| {
                    let pa = self.platform.power(self.plan.node(a)).value();
                    let pb = self.platform.power(self.plan.node(b)).value();
                    pa.partial_cmp(&pb).expect("finite").then(b.cmp(&a))
                })
                .expect("server_count >= 2");
            let fresh = self.unused[0];
            let mut p = self.plan.clone();
            p.convert_to_agent(victim).expect("victim is a server");
            p.add_server(victim, fresh)
                .expect("unused node under the new agent inserts");
            let r = self.evaluate(&p);
            if r > self.rho * (1.0 + EPS) {
                self.plan = p;
                self.rho = r;
                self.unused.remove(0);
                Some(2)
            } else {
                None
            }
        }

        fn shrink(&mut self) -> Option<usize> {
            // Retire the weakest server if the demand stays met without it.
            if self.plan.server_count() < 2 {
                return None;
            }
            let victim = self
                .plan
                .servers()
                .min_by(|&a, &b| {
                    let pa = self.platform.power(self.plan.node(a)).value();
                    let pb = self.platform.power(self.plan.node(b)).value();
                    pa.partial_cmp(&pb).expect("finite").then(a.cmp(&b))
                })
                .expect("server_count >= 2");
            let p = without_server(&self.plan, victim);
            let r = self.evaluate(&p);
            if self.demand.satisfied_by(r) {
                self.unused.push(self.plan.node(victim));
                self.plan = p;
                self.rho = r;
                Some(1)
            } else {
                None
            }
        }
    }

    /// Runs the reference reviser for one round under `max_changes`.
    fn replan_full(
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
        max_changes: usize,
    ) -> Replan {
        let params = ModelParams::from_platform(platform);
        let mut ops = SingleFullOps {
            params,
            platform,
            service,
            demand,
            plan: running.clone(),
            rho: params.evaluate(platform, running, service).rho,
            unused: unused_by_power(platform, |id| running.uses_node(id)),
        };
        drive(&mut ops, max_changes);
        Replan {
            diff: PlanDiff::between(running, &ops.plan),
            plan: ops.plan,
            rho: ops.rho,
        }
    }

    #[test]
    fn replan_strategies_produce_identical_diffs() {
        // The production reviser (a one-service mix round on the
        // incremental engine) against the reference, over grow, shrink
        // and convert-grow regimes on uniform-network platforms. Grids
        // stay out: the reference is site-blind by design.
        let mut platforms: Vec<Platform> = [12, 20, 40, 64].map(lyon_cluster).into();
        for n in [30, 48, 60, 80, 120] {
            platforms.push(heterogenized_cluster(
                "orsay",
                n,
                MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                7,
            ));
        }
        for platform in &platforms {
            for size in [10, 100, 310, 1000] {
                let svc = Dgemm::new(size).service();
                let heuristic = |demand| {
                    HeuristicPlanner::paper()
                        .plan(platform, &svc, demand)
                        .expect("fits")
                };
                let plans = [
                    ("heuristic@0.5", heuristic(ClientDemand::target(0.5))),
                    ("heuristic@2", heuristic(ClientDemand::target(2.0))),
                    ("heuristic@unbounded", heuristic(ClientDemand::Unbounded)),
                    (
                        "balanced/3",
                        BalancedPlanner { mid_agents: 3 }
                            .plan(platform, &svc, ClientDemand::Unbounded)
                            .expect("fits"),
                    ),
                ];
                for (plan_name, plan) in &plans {
                    let base = rho_of(platform, plan, &svc);
                    let factors = [0.1, 0.3, 0.6, 0.95, 1.05, 1.5, 2.5, 5.0].map(Some);
                    for factor in factors.into_iter().chain([None]) {
                        let demand = factor
                            .map_or(ClientDemand::Unbounded, |f| ClientDemand::target(f * base));
                        for max_changes in [1, 2, 4, 8] {
                            let case = format!(
                                "{} nodes, dgemm {size}, {plan_name}, {demand:?}, budget {max_changes}",
                                platform.node_count()
                            );
                            let inc = OnlinePlanner {
                                max_changes,
                                ..Default::default()
                            }
                            .replan(platform, plan, &svc, demand);
                            let full = replan_full(platform, plan, &svc, demand, max_changes);
                            assert!(
                                inc.plan.structurally_eq(&full.plan),
                                "{case}: plans diverged\n{}\nvs\n{}",
                                inc.plan.render(),
                                full.plan.render()
                            );
                            assert!(
                                (inc.rho - full.rho).abs() <= 1e-9 * full.rho.max(1.0),
                                "{case}: rho {} vs {}",
                                inc.rho,
                                full.rho
                            );
                            assert_eq!(inc.diff.len(), full.diff.len(), "{case}");
                        }
                    }
                }
            }
        }
    }

    mod mix {
        use super::*;
        use crate::model::mix::partition_servers;
        use crate::planner::MixPlanner;
        use adept_workload::{MixDemand, ServiceMix};

        fn two_mix() -> ServiceMix {
            ServiceMix::new(vec![
                (Dgemm::new(1000).service(), 1.0),
                (Dgemm::new(1000).service(), 1.0),
            ])
        }

        /// A running mix deployment sized for the given per-service
        /// targets.
        fn running_mix(
            platform: &Platform,
            mix: &ServiceMix,
            targets: Vec<f64>,
        ) -> (DeploymentPlan, crate::model::mix::ServerAssignment) {
            let got = MixPlanner::default()
                .plan_mix(platform, mix, &MixDemand::targets(targets))
                .expect("fits");
            (got.plan, got.assignment)
        }

        #[test]
        fn no_changes_when_mix_demand_met() {
            let platform = lyon_cluster(40);
            let mix = two_mix();
            let (plan, asg) = running_mix(&platform, &mix, vec![1.0, 1.0]);
            let replan = OnlinePlanner::default()
                .replan_mix(
                    &platform,
                    &plan,
                    &mix,
                    &asg,
                    &MixDemand::targets(vec![1.0, 1.0]),
                )
                .unwrap();
            assert!(replan.diff.is_empty(), "{}", replan.diff);
            assert_eq!(replan.assignment, asg);
        }

        #[test]
        fn grows_the_deficient_service_within_budget() {
            let platform = lyon_cluster(40);
            let mix = two_mix();
            let (plan, asg) = running_mix(&platform, &mix, vec![1.0, 1.0]);
            // Service 1's demand doubles; service 0's stays.
            let demand = MixDemand::targets(vec![1.0, 2.0]);
            let replanner = OnlinePlanner {
                max_changes: 6,
                ..Default::default()
            };
            let replan = replanner
                .replan_mix(&platform, &plan, &mix, &asg, &demand)
                .unwrap();
            assert!(replan.diff.len() <= 6, "{}", replan.diff);
            assert!(
                replan.report.rho_service[1] > 1.0,
                "service 1 must gain capacity: {:?}",
                replan.report.rho_service
            );
            assert!(
                replan.assignment.count_for(1) > asg.count_for(1),
                "new servers must host the deficient service"
            );
            // The untouched service keeps its demand covered.
            assert!(replan.report.rho_service[0] >= 1.0);
        }

        #[test]
        fn shrinks_surplus_service_when_demand_drops() {
            let platform = lyon_cluster(40);
            let mix = two_mix();
            let (plan, asg) = running_mix(&platform, &mix, vec![2.0, 2.0]);
            let demand = MixDemand::targets(vec![2.0, 0.5]);
            let replanner = OnlinePlanner {
                max_changes: 8,
                ..Default::default()
            };
            let replan = replanner
                .replan_mix(&platform, &plan, &mix, &asg, &demand)
                .unwrap();
            assert!(
                replan.plan.server_count() < plan.server_count(),
                "surplus servers must retire"
            );
            let rates: Vec<f64> = replan.report.rho_service.clone();
            assert!(
                demand.satisfied_by(replan.report.rho_sched, &rates),
                "the reduced deployment must still meet the demand: {rates:?}"
            );
            assert!(
                asg.count_for(1) > replan.assignment.count_for(1),
                "the slack service gives up servers first"
            );
        }

        #[test]
        fn unbounded_mix_demand_grows_while_it_helps() {
            let platform = lyon_cluster(24);
            let mix = two_mix();
            let (plan, asg) = running_mix(&platform, &mix, vec![0.5, 0.5]);
            let replanner = OnlinePlanner {
                max_changes: 4,
                ..Default::default()
            };
            let replan = replanner
                .replan_mix(&platform, &plan, &mix, &asg, &MixDemand::unbounded(2))
                .unwrap();
            assert!(replan.diff.len() <= 4);
            assert!(
                replan.report.rho
                    >= crate::model::mix::evaluate_mix(
                        &ModelParams::from_platform(&platform),
                        &platform,
                        &plan,
                        &mix,
                        &asg
                    )
                    .unwrap()
                    .rho - 1e-9,
                "unbounded replanning never loses throughput"
            );
        }

        #[test]
        fn reassigns_servers_when_no_spare_node_exists() {
            // Every platform node is deployed; service 1's demand rises
            // while service 0 has slack — only a reinstall can help.
            let platform = lyon_cluster(16);
            let mix = two_mix();
            let got = MixPlanner::default()
                .plan_mix_unbounded(&platform, &mix)
                .expect("fits");
            assert_eq!(got.plan.len(), 16, "unbounded dgemm-1000 uses all nodes");
            let r0 = got.report.rho_service[0];
            let r1 = got.report.rho_service[1];
            // Demand: service 0 needs a fraction of its capacity,
            // service 1 slightly more than it has.
            let demand = MixDemand::targets(vec![r0 * 0.3, r1 * 1.2]);
            let replanner = OnlinePlanner {
                max_changes: 4,
                ..Default::default()
            };
            let replan = replanner
                .replan_mix(&platform, &got.plan, &mix, &got.assignment, &demand)
                .unwrap();
            assert!(
                !replan.reassigned.is_empty(),
                "a reinstall is the only possible move"
            );
            assert!(replan.changes() <= 4);
            for &(_, from, to) in &replan.reassigned {
                assert_eq!((from, to), (0, 1), "slack donates to the starved service");
            }
            assert!(
                replan.report.rho_service[1] > r1,
                "the starved service must gain capacity"
            );
            let rates = replan.report.rho_service.clone();
            assert!(
                demand.satisfied_by(replan.report.rho_sched, &rates),
                "the reassignments cover the shifted demand: {rates:?}"
            );
            // Growth is impossible (no spare nodes): any tree change is
            // the shrink phase freeing surplus machines once the
            // reinstalls cover the demand.
            for (node, change) in &replan.diff.changes {
                assert!(
                    matches!(change, adept_hierarchy::NodeChange::Removed { .. }),
                    "unexpected non-removal change of {node}: {change:?}"
                );
            }
        }

        #[test]
        fn convert_grow_needs_a_strict_margin_gain() {
            // Demand 5% above what the planned mix serves on a 2-site
            // grid: no spare node raises the binding margin. A
            // convert-grow whose attach only hands back the promoted
            // server leaves the margin bit-identical and must not spend
            // two changes and a machine on it.
            let platform = adept_platform::generator::multi_site_grid(
                2,
                20,
                MflopRate(400.0),
                adept_platform::MbitRate(100.0),
                adept_platform::MbitRate(5.0),
                11,
            );
            let mix = ServiceMix::new(vec![
                (Dgemm::new(100).service(), 2.0),
                (Dgemm::new(310).service(), 1.0),
                (Dgemm::new(1000).service(), 1.0),
            ]);
            let got = MixPlanner::default()
                .plan_mix(&platform, &mix, &MixDemand::targets(vec![2.0; 3]))
                .expect("fits");
            let rates: Vec<f64> = got.report.rho_service.iter().map(|r| r * 1.05).collect();
            let demand = MixDemand::targets(rates.clone());
            let margin = |report: &MixReport| {
                let sched = report.rho_sched / rates.iter().sum::<f64>();
                rates
                    .iter()
                    .zip(&report.rho_service)
                    .fold(sched, |m, (d, r)| m.min(r / d))
            };
            let replan = OnlinePlanner {
                max_changes: 4,
                ..Default::default()
            }
            .replan_mix(&platform, &got.plan, &mix, &got.assignment, &demand)
            .unwrap();
            let (before, after) = (margin(&got.report), margin(&replan.report));
            assert!(
                after > before * (1.0 + EPS) || replan.changes() == 0,
                "{} changes for margin {before} -> {after}\n{}",
                replan.changes(),
                replan.diff
            );
        }

        #[test]
        fn stale_assignment_is_an_error() {
            let platform = lyon_cluster(20);
            let mix = two_mix();
            let (plan, _) = running_mix(&platform, &mix, vec![0.5, 0.5]);
            let err = OnlinePlanner::default().replan_mix(
                &platform,
                &plan,
                &mix,
                &crate::model::mix::ServerAssignment::default(),
                &MixDemand::targets(vec![0.5, 0.5]),
            );
            assert!(matches!(
                err,
                Err(adept_hierarchy::PlanError::ServerNotAssigned(_))
            ));
        }

        #[test]
        fn works_from_a_partitioned_heuristic_plan() {
            // The pre-batched pipeline's output is a valid starting state.
            let platform = lyon_cluster(30);
            let mix = two_mix();
            let svc = Dgemm::new(1000).service();
            let plan = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::target(2.0))
                .unwrap();
            let params = ModelParams::from_platform(&platform);
            let asg = partition_servers(&params, &platform, &plan, &mix).unwrap();
            let replan = OnlinePlanner::default()
                .replan_mix(
                    &platform,
                    &plan,
                    &mix,
                    &asg,
                    &MixDemand::targets(vec![1.5, 1.5]),
                )
                .unwrap();
            assert!(replan.diff.len() <= OnlinePlanner::default().max_changes);
        }
    }

    /// Growth candidates read from the eager spare list: on a uniform
    /// network its first node; on a multi-site platform each site's
    /// first node, in list order. The reference the cursor's
    /// `strongest` and `site_heads` reads must equal.
    fn eager_grow_candidates(
        platform: &Platform,
        unused: &[NodeId],
        site_aware: bool,
    ) -> Vec<NodeId> {
        if !site_aware {
            return unused.first().copied().into_iter().collect();
        }
        let mut seen = Vec::new();
        let mut picks = Vec::new();
        for &node in unused {
            let site = platform.site_of(node);
            if !seen.contains(&site) {
                seen.push(site);
                picks.push(node);
            }
        }
        picks
    }

    /// GoDiet's eager spare pool: every unused node, ordered so `pop()`
    /// takes the most powerful first.
    fn eager_spare_nodes(platform: &Platform, used: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let mut spares = unused_by_power(platform, used);
        spares.reverse();
        spares
    }

    /// A spare-cursor case: a platform, the input plan's nodes (`used`),
    /// and a script of reads, takes and frees.
    #[derive(Debug)]
    struct SpareCase {
        platform: Platform,
        used: Vec<bool>,
        ops: Vec<(usize, usize)>,
    }

    /// 1–5 sites of 1–12 nodes (about a third of the sites hold one
    /// node), powers from 1–4 distinct levels or continuous, a random
    /// used set with one site all in use in about a third of the cases,
    /// and up to 48 operations.
    fn arb_spare_case() -> impl Strategy<Value = SpareCase> {
        (1usize..6, 0usize..5, 0u64..1 << 40).prop_map(|(sites, levels, seed)| {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = Platform::builder(adept_platform::Network::homogeneous(
                adept_platform::MbitRate(100.0),
            ));
            let distinct = [400.0, 310.0, 250.0, 175.0];
            for s in 0..sites {
                let site = b.add_site(format!("site-{s}"));
                let size = if rng.gen_range(0..3usize) == 0 {
                    1
                } else {
                    rng.gen_range(1..13usize)
                };
                for i in 0..size {
                    let power = if levels == 0 {
                        rng.gen_range(50.0..800.0)
                    } else {
                        distinct[rng.gen_range(0..levels)]
                    };
                    b.add_node(format!("site-{s}-n{i}"), MflopRate(power), site)
                        .expect("fresh name on a known site");
                }
            }
            let platform = b.build().expect("every site holds a node");
            let full_site = (rng.gen_range(0..3usize) == 0).then(|| rng.gen_range(0..sites));
            let used = platform
                .site_table()
                .iter()
                .map(|site| full_site == Some(site.index()) || rng.gen_range(0..2usize) == 0)
                .collect();
            let ops = (0..rng.gen_range(0..49usize))
                .map(|_| (rng.gen_range(0..4usize), rng.gen_range(0..1usize << 16)))
                .collect();
            SpareCase {
                platform,
                used,
                ops,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every cursor read equals the eager lists' read: interleaved
        /// takes and frees against `unused_by_power` with taken nodes
        /// removed and freed nodes pushed at its tail (the reviser's old
        /// list), and pops against GoDiet's old spare pool.
        #[test]
        fn spare_cursor_reads_equal_the_eager_lists(c in arb_spare_case()) {
            let platform = &c.platform;
            let used = |id: NodeId| c.used[id.index()];

            let mut pool = eager_spare_nodes(platform, used);
            let mut cursor = SpareCursor::new(platform);
            loop {
                let spare = cursor.strongest(platform, used);
                prop_assert_eq!(spare, pool.pop());
                let Some(spare) = spare else { break };
                cursor.take(platform, spare);
            }

            let mut eager = unused_by_power(platform, used);
            // The working plan: the input plan's nodes, plus every node
            // taken and not freed since.
            let mut plan: Vec<NodeId> =
                platform.ids().filter(|&id| used(id)).collect();
            let mut cursor = SpareCursor::new(platform);
            for &(op, pick) in &c.ops {
                let strongest = cursor.strongest(platform, used);
                let heads = cursor.site_heads(platform, used);
                prop_assert_eq!(
                    strongest.into_iter().collect::<Vec<_>>(),
                    eager_grow_candidates(platform, &eager, false)
                );
                prop_assert_eq!(&heads, &eager_grow_candidates(platform, &eager, true));
                let taken = match op {
                    0 => strongest,
                    1 if !heads.is_empty() => Some(heads[pick % heads.len()]),
                    2 if !plan.is_empty() => {
                        let node = plan.remove(pick % plan.len());
                        cursor.free(node);
                        eager.push(node);
                        None
                    }
                    _ => None,
                };
                if let Some(node) = taken {
                    cursor.take(platform, node);
                    eager.retain(|&n| n != node);
                    plan.push(node);
                }
            }
        }
    }

    #[test]
    fn without_server_preserves_everything_else() {
        let platform = lyon_cluster(10);
        let svc = Dgemm::new(310).service();
        let plan = running(&platform, &svc, 1e9); // uses many nodes
        let victim = plan.servers().last().expect("has servers");
        let removed_node = plan.node(victim);
        let smaller = without_server(&plan, victim);
        assert_eq!(smaller.len(), plan.len() - 1);
        assert!(!smaller.uses_node(removed_node));
        let diff = PlanDiff::between(&plan, &smaller);
        assert_eq!(diff.len(), 1);
    }
}
