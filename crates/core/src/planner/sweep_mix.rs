//! Mix-aware sweep reference — the multi-service counterpart of
//! [`SweepPlanner::best_plan`], giving [`MixPlanner`]
//! the quality bar Table 4 gives the single-service heuristic.
//!
//! # The swept family
//!
//! A single-service sweep is two nested scans: agent count `k`
//! (strongest-first) × server count `s` (strongest remaining first),
//! degrees balanced by waterfill. The mix generalization keeps the tree
//! shape exactly as the single-service sweep would build it for `(k, s)`
//! — under the homogeneous model the scheduling phase only sees the
//! degree/power multiset, never which service a child hosts — and adds
//! one more axis: **how the `s` servers split among the mix's
//! services**. For every `k`, the sweep walks all integer *compositions*
//! `(c_1, …, c_S)` with `c_j ≥ 1` per demanded service and
//! `Σ c_j = s ≤ n − k`, dealing servers to services in candidate order,
//! strongest first. Each walk step is **one**
//! [`add_server_for`](IncrementalEval::add_server_for) /
//! [`undo`](IncrementalEval::undo) delta on the batched incremental
//! evaluator — `O(log n)` with bit-exact rewind — so a composition step
//! never pays more than a single-service sweep step did.
//!
//! Unpruned, the composition space is `C(s−1, S−1)` per `(k, s)` —
//! hopeless past toy sizes. Three stacked layers make the walk complete
//! at n = 10⁴–10⁵ where it used to stall near n ≈ 400:
//!
//! # Layer 1 — sound pruning (the exact reference walk)
//!
//! * **per-service Eq. 15 cap** — adding servers to service `j` only
//!   ever *raises* its Eq. 15 rate, while every added child *lowers*
//!   the shared scheduling rate. Once `ρ_service_j` (share-normalized
//!   under the weighted-min objective) reaches the *current* scheduling
//!   rate — itself an upper bound on any extension's scheduling rate —
//!   larger `c_j` at this prefix is dominated. The count at which the
//!   cap fires is exactly the paper's Eq. 15 saturation point, read in
//!   O(1) from the engine's running sums.
//! * **branch-and-bound** — a prefix's best possible completion is
//!   bounded by the already-fixed components (earlier services' rates
//!   are final; the scheduling rate only falls), for the weighted-sum
//!   objective with each unassigned service optimistically handed
//!   *every* remaining server in one O(1)
//!   [`service_rate_with_added`](IncrementalEval::service_rate_with_added)
//!   read. Subtrees strictly below the best configuration found so far
//!   are skipped (strictly — equal-valued configurations survive, so
//!   the sequential and parallel sweeps keep selecting the same
//!   earliest configuration).
//!
//! `SweepPlanner { coarsen: Some(false), .. }` runs layer 1 alone —
//! the exact pre-acceleration walk, kept as the parity oracle and the
//! bench ablation. The n ≤ 48 parity suite pins the accelerated walk
//! bit-identical to it.
//!
//! # Layer 2 — coarsen-then-refine over the composition space
//!
//! Above `MIX_GRID_THRESHOLD` swept nodes (or under
//! `coarsen: Some(true)`), the walk's *internal* digits step
//! block-at-a-time on a geometric grid: service `j`'s block is its
//! Eq. 15 `saturation_budget` (the helper shared with the
//! single-service sweep's node coarsening)
//! divided down to about `MIX_GRID_RESOLUTION` grid points (mirroring
//! PR 6's per-site node coarsening, but over counts rather than
//! candidates). The *last* digit always steps server-at-a-time — each
//! step is one O(log n) delta the walk pays anyway, so full resolution
//! there is free. The **agent count** gets the same stride
//! (`k_block ≈ n / MIX_GRID_RESOLUTION`): the k loop multiplies every
//! walk cost, so only the grid lines `1, 1 + k_block, …` are swept.
//! The gridded winner is then **refined**: a local hill climb over ±1
//! agents (at the same composition), ±1 digits, and single-server
//! digit-to-digit moves (each candidate scored by a fresh bit-exact
//! replay) until a fixed point, bounded by `MAX_REFINE_STEPS`.
//!
//! # Layer 3 — warm incumbents and dominance pruning
//!
//! * **warm incumbents** — the branch-and-bound starts from
//!   [`MixPlanner`]'s answer for the same inputs
//!   (re-scored on a fresh engine build so the value is bit-stable)
//!   instead of −∞, and the incumbent is carried **across k values**:
//!   sequentially by folding, in the parallel path through a shared
//!   max-atomic (ordered-bits encoding) every worker reads before each
//!   scan and raises after it. Pruning stays strictly-below, so only
//!   truly achieved objectives ever enter the bound. If the whole walk
//!   prunes below the seed, the seed *is* the answer — the sweep never
//!   returns less than the heuristic.
//! * **dominance pruning** — two expanded prefixes with the same
//!   `(depth, servers placed)` see identical scheduling rates,
//!   identical remaining nodes, and identical completion budgets, so a
//!   prefix whose fixed per-service rates are element-wise ≤ an
//!   already-expanded one cannot complete better and is skipped. A
//!   small per-key front (≤ `DOM_FRONT_CAP` entries) keeps the check
//!   O(front).
//!
//! Every visited grid point lands in exactly one [`SweepStats`] bucket
//! (`visited == expanded + pruned()` is a tested invariant), so the
//! speedup is observable rather than asserted; the
//! [`time_budget`](SweepPlanner::time_budget) anytime knob bounds the
//! walk by wall clock and raises [`SweepStats::truncated`].
//!
//! # Objectives, dealing and the hindsight redeal
//!
//! Both [`MixObjective`]s are supported and scored identically to
//! [`MixPlanner`] (the shared crate-private
//! `objective_score`). Block dealing in candidate order is one fixed
//! matching of concrete nodes to counts; after the sweep picks its
//! winner, the hindsight waterfill ([`partition_servers`]) redeals the
//! winning server set and the better of the two assignments is kept —
//! the same refinement `MixPlanner` ends with.
//!
//! # Multi-site platforms
//!
//! On a heterogeneous network the reference runs the single-service
//! multi-site sweep's two phases, shared with it (see the
//! [`sweep`](super::sweep) module docs): per-site mix sweeps at each
//! site's intra bandwidth (re-scored under the per-link model), then
//! the cross-site growth phase scored by the mix objective. Per-site
//! stats are summed in site order; the warm seed (scored under the
//! per-link model, hence not a sound incumbent for any single site's
//! model) competes only in the final comparison.
//!
//! # Single-service parity
//!
//! A mix with one demanded service is *delegated* to
//! [`SweepPlanner::best_plan`] — same plan, same ρ, bit for bit (the
//! randomized parity test pins this), so the mix reference strictly
//! extends the Table 4 one.
//!
//! # Concurrency: the shared incumbent
//!
//! Workers share the best objective seen so far as order-preserving
//! `f64` bits in one `AtomicU64` (`ordered_bits`): publish with
//! `fetch_max(.., AcqRel)`, read with `load(Acquire)`. The
//! acquire/release pair is a 2026-08 audit upgrade — both sides were
//! `Relaxed`, which is *value*-correct (fetch_max is an RMW, so no
//! update can be lost; `interleave_kernels.rs` model-checks exactly
//! that) but let a worker read an incumbent without synchronizing
//! with the computation that produced it. The incumbent is a pruning
//! bound carried between threads, so it follows the repo rule:
//! cross-thread *data* synchronizes, pure claim counters may stay
//! `Relaxed` with an `audit: allow` marker. Regression guard: the
//! model tests in `crates/core/tests/interleave_kernels.rs` pin both
//! the no-lost-update property and that every read observes a truly
//! published objective; weakening the orderings back to `Relaxed`
//! keeps those green (the value protocol is ordering-independent),
//! so the audit marker inventory — `relaxed` sites must be annotated
//! — is what keeps an accidental downgrade from slipping through
//! review.

// audit: allow-file(unwrap, "mix-sweep invariants documented in each expect; the
// single-service parity and exhaustive composition tests cover the walk")
use super::mix::{objective_score, MixObjective, MixPlan, MixPlanner};
use super::realize::{realize_from_eval, HeapEntry};
use super::sweep::{mix_wapp_cap, rho_cap_of, saturation_budget, SweepPlanner, TIE_EPS};
use super::{resolve_params, PlannerError};
use crate::model::mix::{partition_servers, ServerAssignment};
use crate::model::throughput::sch_pow;
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Role, Slot};
use adept_platform::{MflopRate, NodeId, Platform};
use adept_workload::ServiceMix;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Swept-list size above which the composition grid auto-activates
/// under `coarsen: None` (`Some(true)`/`Some(false)` force it on/off).
/// Below it the exact walk is already fast, and keeping it exact
/// preserves the n ≤ 48 bit-parity guarantee by construction.
pub(crate) const MIX_GRID_THRESHOLD: usize = 96;

/// Target grid points per internal composition digit: service `j`'s
/// block is `max(1, min(saturation_budget_j, n) / MIX_GRID_RESOLUTION)`.
const MIX_GRID_RESOLUTION: usize = 48;

/// Cap on stored prefixes per dominance-front key — dominance is an
/// accelerator, not a guarantee, so the front stays O(1).
const DOM_FRONT_CAP: usize = 24;

/// Hill-climb step cap for the post-grid refinement (each step is the
/// best of O(parts²) replays; a fixed point lands long before this).
const MAX_REFINE_STEPS: usize = 128;

/// Visited-node interval between wall-clock reads inside a walk.
const DEADLINE_CHECK_INTERVAL: u64 = 32;

/// Search telemetry for one [`best_mix_plan_stats`] call: where the
/// composition walk spent (and saved) its nodes. Every visited grid
/// point is counted in **exactly one** of the four outcome buckets, so
/// `visited == expanded + pruned()` always holds, on every path. The
/// counts repeat exactly only on the sequential path: a threaded sweep
/// prunes against an incumbent that depends on which `k` finished
/// first, so its counters vary from run to run (its objective does
/// not).
///
/// [`best_mix_plan_stats`]: SweepPlanner::best_mix_plan_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points visited by the walk (servers placed and scored or
    /// classified), including one synthetic visit per truncated count
    /// loop so the bucket identity stays exact.
    pub visited: u64,
    /// Prefixes expanded into (or complete compositions scored).
    pub expanded: u64,
    /// Skipped by the branch-and-bound upper bound (strictly below the
    /// incumbent — warm-seeded and carried across k).
    pub pruned_by_bound: u64,
    /// Skipped by the Eq. 15 saturation cap (including unimodal
    /// last-digit breaks and their truncated tails).
    pub pruned_by_cap: u64,
    /// Skipped as dominated: rate-front dominance at equal
    /// `(depth, servers placed)`, plus complete compositions leaving an
    /// agent childless (dominated by a smaller k).
    pub pruned_by_dominance: u64,
    /// Accepted hill-climb moves while refining the gridded winner.
    pub refine_steps: u64,
    /// The [`time_budget`](SweepPlanner::time_budget) expired and the
    /// result is best-so-far, not the family optimum.
    pub truncated: bool,
}

impl SweepStats {
    /// Total pruned nodes across all three prune reasons.
    pub fn pruned(&self) -> u64 {
        self.pruned_by_bound + self.pruned_by_cap + self.pruned_by_dominance
    }

    /// Accumulates another stats block (counter sums, `truncated` OR).
    pub(crate) fn absorb(&mut self, other: &SweepStats) {
        self.visited += other.visited;
        self.expanded += other.expanded;
        self.pruned_by_bound += other.pruned_by_bound;
        self.pruned_by_cap += other.pruned_by_cap;
        self.pruned_by_dominance += other.pruned_by_dominance;
        self.refine_steps += other.refine_steps;
        self.truncated |= other.truncated;
    }
}

/// Order-preserving `f64 → u64` map (sign-magnitude to two's-
/// complement-style), so a `fetch_max` on the bits is a `fetch_max` on
/// the floats — the lock-free shared incumbent.
fn ordered_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn from_ordered_bits(b: u64) -> f64 {
    f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
}

fn past_deadline(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Calls `visit` with every composition of `total` into exactly `parts`
/// positive integers (each part ≥ 1, parts summing to `total`), in
/// lexicographic order of the count vector. This is the specification
/// enumerator behind the mix sweep's pruned walk, exposed for property
/// tests and exhaustive cross-checks; `visit` is never called when
/// `parts == 0` or `total < parts` (no composition exists).
pub fn for_each_composition(total: usize, parts: usize, mut visit: impl FnMut(&[usize])) {
    fn rec<F: FnMut(&[usize])>(
        counts: &mut Vec<usize>,
        depth: usize,
        parts: usize,
        left: usize,
        visit: &mut F,
    ) {
        if depth + 1 == parts {
            counts.push(left);
            visit(counts);
            counts.pop();
            return;
        }
        let reserve = parts - depth - 1;
        for c in 1..=left.saturating_sub(reserve) {
            counts.push(c);
            rec(counts, depth + 1, parts, left - c, visit);
            counts.pop();
        }
    }
    if parts == 0 || total < parts {
        return;
    }
    let mut counts = Vec::with_capacity(parts);
    rec(&mut counts, 0, parts, total, &mut visit);
}

/// Winner of one `k` scan of the mix sweep: the best per-service server
/// counts for that agent count.
#[derive(Debug, Clone)]
struct KMixBest {
    agents: usize,
    /// Per-candidate server counts, in candidate order.
    counts: Vec<usize>,
    objective: f64,
}

/// Everything a `k` scan needs, shared (immutably) across workers.
struct MixCtx<'a> {
    params: &'a ModelParams,
    platform: &'a Platform,
    mix: &'a ServiceMix,
    objective: MixObjective,
    /// Indices of the demanded (positive-share) services.
    candidates: &'a [usize],
    /// Power-descending node list the family is swept over.
    nodes: &'a [NodeId],
    /// Powers of `nodes`, same order.
    powers: Vec<f64>,
    /// `suffix_power[i] = Σ powers[i..]` — the optimistic "every
    /// remaining server" bound's power sum, O(1) per read.
    suffix_power: Vec<f64>,
    /// Composition-grid block per candidate digit (all 1 = exact walk).
    /// Only internal digits consult it; the last digit always steps by
    /// one server.
    blocks: Vec<usize>,
    /// Agent-count grid stride (1 = every k, the exact walk). Gridded
    /// `k` values are `1, 1 + k_block, 1 + 2·k_block, …`; the refiner
    /// recovers the local optimum between grid lines with ±1 agent
    /// moves.
    k_block: usize,
    /// Rate-front dominance pruning on (Some(false) switches the
    /// accelerators off: the exact reference walk).
    dominance: bool,
    /// Anytime wall-clock bound, if any.
    deadline: Option<Instant>,
}

/// The waterfill schedule for a fixed agent count: which agent receives
/// each child slot, and how many agents still sit at degree zero after
/// each server. Depends only on `(k, total children)` — never on the
/// services — so it is simulated once per `k` and shared by every
/// composition.
struct Waterfill {
    /// Agent receiving each of the `k − 1` non-root agents' child slots.
    agent_parents: Vec<usize>,
    /// Agent receiving the `t`-th server (0-based).
    server_parents: Vec<usize>,
    /// Zero-degree agents after `t` servers (`zero_after[t]`, `t ≤ s`);
    /// a configuration with any is dominated by a smaller `k`.
    zero_after: Vec<usize>,
}

fn waterfill(params: &ModelParams, agent_powers: &[f64], s_max: usize) -> Waterfill {
    let k = agent_powers.len();
    let mut degrees = vec![0usize; k];
    let mut zero = k;
    let mut heap: BinaryHeap<HeapEntry> = (0..k)
        .map(|i| HeapEntry {
            sp_after: sch_pow(params, MflopRate(agent_powers[i]), 1),
            agent: i,
        })
        .collect();
    let mut pop_next = |degrees: &mut [usize], zero: &mut usize| -> usize {
        let top = heap.pop().expect("k >= 1 agents in the heap");
        let i = top.agent;
        if degrees[i] == 0 {
            *zero -= 1;
        }
        degrees[i] += 1;
        heap.push(HeapEntry {
            sp_after: sch_pow(params, MflopRate(agent_powers[i]), degrees[i] + 1),
            agent: i,
        });
        i
    };
    let agent_parents: Vec<usize> = (0..k - 1)
        .map(|_| pop_next(&mut degrees, &mut zero))
        .collect();
    let mut zero_after = Vec::with_capacity(s_max + 1);
    zero_after.push(zero);
    let server_parents: Vec<usize> = (0..s_max)
        .map(|_| {
            let p = pop_next(&mut degrees, &mut zero);
            zero_after.push(zero);
            p
        })
        .collect();
    Waterfill {
        agent_parents,
        server_parents,
        zero_after,
    }
}

/// The pruned depth-first composition walk for one agent count (see the
/// module docs for the bounds). `incumbent` is an objective value the
/// final merge will already have seen — subtrees *strictly* below it
/// are skipped; equal-valued configurations are kept so the per-`k`
/// winner stays independent of the caller's scan order.
struct MixWalk<'a, 'b> {
    ctx: &'a MixCtx<'a>,
    eval: &'b mut IncrementalEval,
    k: usize,
    s_max: usize,
    server_parents: &'b [usize],
    zero_after: &'b [usize],
    incumbent: f64,
    /// Servers placed so far along the current prefix.
    t: usize,
    counts: Vec<usize>,
    best: Option<KMixBest>,
    stats: SweepStats,
    /// Expanded-prefix rate vectors for dominance pruning, keyed by
    /// `(depth, servers placed)`.
    fronts: HashMap<(usize, usize), Vec<Vec<f64>>>,
    /// Visits since the last wall-clock read.
    ticks: u64,
}

impl MixWalk<'_, '_> {
    fn prune_ref(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(self.incumbent, |b| self.incumbent.max(b.objective))
    }

    /// Share-normalized component of candidate `d` (weighted-min view).
    fn component(&self, d: usize) -> f64 {
        let svc = self.ctx.candidates[d];
        self.eval.rho_service_of(svc) / self.eval.share(svc)
    }

    /// Whether completions of the current prefix can still beat the
    /// pruning reference (branch-and-bound; strict).
    fn should_descend(&self, depth: usize) -> bool {
        let prune_ref = self.prune_ref();
        if prune_ref == f64::NEG_INFINITY {
            return true;
        }
        let sched = self.eval.rho_sched();
        let ub = match self.ctx.objective {
            MixObjective::WeightedMin => {
                // Earlier components are final, scheduling only falls,
                // unassigned services are optimistically unbounded.
                (0..=depth).fold(sched, |ub, d| ub.min(self.component(d)))
            }
            MixObjective::WeightedSum => {
                let remaining = self.s_max - self.t;
                let pow_left = self.ctx.suffix_power[self.k + self.t];
                self.ctx
                    .candidates
                    .iter()
                    .enumerate()
                    .map(|(d, &svc)| {
                        let rate = if d <= depth {
                            self.eval.rho_service_of(svc)
                        } else {
                            // Eq. 15 with every remaining server, O(1).
                            self.eval.service_rate_with_added(svc, remaining, pow_left)
                        };
                        self.eval.share(svc) * sched.min(rate)
                    })
                    .sum()
            }
        };
        ub >= prune_ref
    }

    /// Whether a larger count for `depth`'s service can still matter at
    /// this prefix (the Eq. 15 cap, plus the weighted-min bound when the
    /// pinch is not this service's own component).
    fn should_grow(&self, depth: usize) -> bool {
        let svc = self.ctx.candidates[depth];
        let sched = self.eval.rho_sched();
        let rate = self.eval.rho_service_of(svc);
        match self.ctx.objective {
            MixObjective::WeightedMin => {
                let comp = rate / self.eval.share(svc);
                if comp >= sched {
                    return false; // Eq. 15 cap: j saturated its share
                }
                let prefix_min = (0..=depth).fold(sched, |m, d| m.min(self.component(d)));
                // Below the reference with the pinch elsewhere: growing
                // j cannot lift a bound it does not set.
                !(prefix_min < self.prune_ref() && comp > prefix_min)
            }
            MixObjective::WeightedSum => rate < sched,
        }
    }

    /// Whether the anytime deadline has expired (wall clock read every
    /// [`DEADLINE_CHECK_INTERVAL`] visits; sticky once raised).
    fn expired(&mut self) -> bool {
        let Some(deadline) = self.ctx.deadline else {
            return false;
        };
        if self.stats.truncated {
            return true;
        }
        self.ticks += 1;
        if self.ticks >= DEADLINE_CHECK_INTERVAL {
            self.ticks = 0;
            if Instant::now() >= deadline {
                self.stats.truncated = true;
            }
        }
        self.stats.truncated
    }

    /// The fixed per-service Eq. 15 rates of the current prefix
    /// (`0..=depth`, raw). Two prefixes at the same
    /// `(depth, servers placed)` share the scheduling rate, the
    /// remaining nodes, and the completion budget, so element-wise ≥
    /// here implies every completion scores at least as well.
    fn prefix_rates(&self, depth: usize) -> Vec<f64> {
        (0..=depth)
            .map(|d| self.eval.rho_service_of(self.ctx.candidates[d]))
            .collect()
    }

    /// Whether an already-expanded prefix dominates the current one.
    /// Depth 0 never qualifies (one prefix per `(depth, t)` key there).
    fn dominated(&self, depth: usize) -> bool {
        if !self.ctx.dominance || depth == 0 {
            return false;
        }
        let rates = self.prefix_rates(depth);
        self.fronts.get(&(depth, self.t)).is_some_and(|front| {
            front
                .iter()
                .any(|f| f.iter().zip(&rates).all(|(a, b)| a >= b))
        })
    }

    /// Records the current prefix on its dominance front (dropping
    /// entries it dominates; the front is capped at [`DOM_FRONT_CAP`]).
    fn record_front(&mut self, depth: usize) {
        if !self.ctx.dominance || depth == 0 {
            return;
        }
        let rates = self.prefix_rates(depth);
        let front = self.fronts.entry((depth, self.t)).or_default();
        front.retain(|f| !f.iter().zip(&rates).all(|(a, b)| b >= a));
        if front.len() < DOM_FRONT_CAP {
            front.push(rates);
        }
    }

    /// Books the untried tail of a count loop as one synthetic
    /// cap-pruned visit, keeping `visited == expanded + pruned` exact.
    fn truncate_tail(&mut self, c: usize, cmax: usize) {
        if c < cmax {
            self.stats.visited += 1;
            self.stats.pruned_by_cap += 1;
        }
    }

    fn descend(&mut self, depth: usize, budget: usize) {
        let parts = self.ctx.candidates.len();
        let last = depth + 1 == parts;
        let reserve = parts - depth - 1;
        let cmax = budget - reserve;
        // Internal digits move block-at-a-time (the composition grid);
        // the last digit server-at-a-time — each of its steps is one
        // O(log n) delta the walk pays anyway, so full resolution there
        // is free.
        let step = if last {
            1
        } else {
            self.ctx.blocks[depth].max(1)
        };
        let svc = self.ctx.candidates[depth];
        let mut local_peak = f64::NEG_INFINITY;
        let mut added = 0usize;
        let mut c = 0usize;
        while c < cmax {
            if self.expired() {
                break;
            }
            // The first count is always 1 (every demanded service gets
            // a server); the final block clamps to the budget.
            let take = if c == 0 { 1 } else { step.min(cmax - c) };
            for _ in 0..take {
                let idx = self.k + self.t;
                self.eval
                    .add_server_for(
                        Slot(self.server_parents[self.t]),
                        self.ctx.nodes[idx],
                        MflopRate(self.ctx.powers[idx]),
                        svc,
                    )
                    .expect("sweep nodes are unused");
                self.t += 1;
                added += 1;
            }
            c += take;
            self.counts[depth] = c;
            self.stats.visited += 1;
            if last {
                if self.zero_after[self.t] > 0 {
                    // Some agent never attracted a child: dominated by
                    // a smaller k.
                    self.stats.pruned_by_dominance += 1;
                } else {
                    self.stats.expanded += 1;
                    let obj = objective_score(self.ctx.objective, self.eval);
                    if self
                        .best
                        .as_ref()
                        .is_none_or(|b| obj > b.objective + TIE_EPS)
                    {
                        self.best = Some(KMixBest {
                            agents: self.k,
                            counts: self.counts.clone(),
                            objective: obj,
                        });
                    }
                    if obj + TIE_EPS < local_peak {
                        // Unimodal in the last count: past the crossing.
                        self.truncate_tail(c, cmax);
                        break;
                    }
                    local_peak = local_peak.max(obj);
                }
            } else if !self.should_descend(depth) {
                self.stats.pruned_by_bound += 1;
            } else if self.dominated(depth) {
                self.stats.pruned_by_dominance += 1;
            } else {
                self.stats.expanded += 1;
                self.record_front(depth);
                self.descend(depth + 1, budget - c);
            }
            if !self.should_grow(depth) {
                self.truncate_tail(c, cmax);
                break;
            }
        }
        for _ in 0..added {
            self.eval.undo();
            self.t -= 1;
        }
        self.counts[depth] = 0;
    }
}

/// Scans every composition for a fixed agent count `k`, returning the
/// locally best `(counts, objective)`. Independent of every other `k`
/// up to the (sound, strictly-below) `incumbent` pruning; the walk's
/// telemetry is absorbed into `stats`.
fn scan_k_mix(
    ctx: &MixCtx<'_>,
    k: usize,
    incumbent: f64,
    stats: &mut SweepStats,
) -> Option<KMixBest> {
    let n = ctx.nodes.len();
    let parts = ctx.candidates.len();
    let s_max = n - k;
    if s_max < parts {
        return None;
    }
    let wf = waterfill(ctx.params, &ctx.powers[..k], s_max);
    let mut eval =
        IncrementalEval::from_agents_mix(ctx.params, ctx.platform, &ctx.nodes[..k], ctx.mix);
    for &a in &wf.agent_parents {
        eval.assign_child_slot(Slot(a)).expect("agents exist");
    }
    eval.commit();
    let mut walk = MixWalk {
        ctx,
        eval: &mut eval,
        k,
        s_max,
        server_parents: &wf.server_parents,
        zero_after: &wf.zero_after,
        incumbent,
        t: 0,
        counts: vec![0; parts],
        best: None,
        stats: SweepStats::default(),
        fronts: HashMap::new(),
        ticks: 0,
    };
    walk.descend(0, s_max);
    stats.absorb(&walk.stats);
    walk.best
}

/// Exact-k neighborhood pass around the gridded winner: the k grid
/// lines locate the optimum only to within ±`k_block`, so every k
/// inside the winning line's window is scanned too (compositions still
/// gridded), folded with the walk's strict-improvement rule — ties
/// keep the grid winner. Runs on the caller's thread, so the parallel
/// and sequential sweeps fold the same candidates in the same order.
fn refine_k_window(
    ctx: &MixCtx<'_>,
    k_cap: usize,
    mut best: Option<KMixBest>,
    warm_obj: f64,
    stats: &mut SweepStats,
) -> Option<KMixBest> {
    if ctx.k_block <= 1 {
        return best;
    }
    let Some(center) = best.as_ref().map(|b| b.agents) else {
        return best;
    };
    let lo = center.saturating_sub(ctx.k_block - 1).max(1);
    let hi = (center + ctx.k_block - 1).min(k_cap);
    for k in lo..=hi {
        if (k - 1) % ctx.k_block == 0 {
            continue; // a grid line the family walk already swept
        }
        if past_deadline(ctx.deadline) {
            stats.truncated = true;
            break;
        }
        let incumbent = best
            .as_ref()
            .map_or(warm_obj, |b| warm_obj.max(b.objective));
        if let Some(cand) = scan_k_mix(ctx, k, incumbent, stats) {
            if best
                .as_ref()
                .is_none_or(|b| cand.objective > b.objective + TIE_EPS)
            {
                best = Some(cand);
            }
        }
    }
    best
}

/// Local hill climb on the gridded walk's winning configuration: the
/// best strict improvement among ±1 agent (at the same composition),
/// ±1 per digit, and single-server moves between digit pairs is taken
/// (first wins ties) until a fixed point, [`MAX_REFINE_STEPS`], or the
/// deadline. The agent moves are what make the `k_block` stride safe —
/// they walk the winner off its grid line to the local k optimum.
/// Every candidate is scored by a fresh replay — the exact computation
/// the final winner replay performs — so the refined objective stays
/// bit-consistent with the returned plan.
fn refine_cfg(ctx: &MixCtx<'_>, cfg: &mut KMixBest, stats: &mut SweepStats) {
    let parts = ctx.candidates.len();
    let n = ctx.nodes.len();
    let score = |k: usize, counts: &[usize]| -> Option<f64> {
        if k == 0 || n < k + parts || counts.contains(&0) {
            return None;
        }
        let s_max = n - k;
        let total: usize = counts.iter().sum();
        if total > s_max {
            return None;
        }
        let wf = waterfill(ctx.params, &ctx.powers[..k], s_max);
        if wf.zero_after[total] > 0 {
            return None;
        }
        let mut eval =
            IncrementalEval::from_agents_mix(ctx.params, ctx.platform, &ctx.nodes[..k], ctx.mix);
        for &a in &wf.agent_parents {
            eval.assign_child_slot(Slot(a)).expect("agents exist");
        }
        let mut t = 0usize;
        for (d, &cnt) in counts.iter().enumerate() {
            for _ in 0..cnt {
                let idx = k + t;
                eval.add_server_for(
                    Slot(wf.server_parents[t]),
                    ctx.nodes[idx],
                    MflopRate(ctx.powers[idx]),
                    ctx.candidates[d],
                )
                .expect("sweep nodes are unused");
                t += 1;
            }
        }
        Some(objective_score(ctx.objective, &eval))
    };
    for _ in 0..MAX_REFINE_STEPS {
        if past_deadline(ctx.deadline) {
            stats.truncated = true;
            return;
        }
        let mut best_move: Option<(usize, Vec<usize>, f64)> = None;
        {
            let mut consider = |k: usize, counts: Vec<usize>| {
                let floor = best_move.as_ref().map_or(cfg.objective, |&(_, _, s)| s);
                if let Some(sc) = score(k, &counts) {
                    if sc > floor + TIE_EPS {
                        best_move = Some((k, counts, sc));
                    }
                }
            };
            consider(cfg.agents + 1, cfg.counts.clone());
            if cfg.agents > 1 {
                consider(cfg.agents - 1, cfg.counts.clone());
            }
            for d in 0..parts {
                let mut up = cfg.counts.clone();
                up[d] += 1;
                consider(cfg.agents, up);
                if cfg.counts[d] > 1 {
                    let mut down = cfg.counts.clone();
                    down[d] -= 1;
                    consider(cfg.agents, down);
                }
            }
            for from in 0..parts {
                for to in 0..parts {
                    if from == to || cfg.counts[from] <= 1 {
                        continue;
                    }
                    let mut mv = cfg.counts.clone();
                    mv[from] -= 1;
                    mv[to] += 1;
                    consider(cfg.agents, mv);
                }
            }
        }
        let Some((k, counts, sc)) = best_move else {
            return; // fixed point
        };
        cfg.agents = k;
        cfg.counts = counts;
        cfg.objective = sc;
        stats.refine_steps += 1;
    }
}

/// Server → service map read off an engine's final state.
fn assignment_from_eval(eval: &IncrementalEval) -> ServerAssignment {
    let mut assignment = ServerAssignment::default();
    for s in eval.servers() {
        assignment
            .service_of
            .insert(eval.node(s), eval.service_of(s));
    }
    assignment
}

/// Hindsight redeal: the sweep's dealing fixed one matching of concrete
/// servers to per-service counts; let the waterfill
/// ([`partition_servers`]) re-deal the same server set and keep
/// whichever assignment scores higher under `params` (an unredealable
/// plan keeps the original — the redeal is a refinement, never a
/// requirement).
#[allow(clippy::too_many_arguments)] // the redeal needs the whole scoring context
fn redeal_if_better(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    mix: &ServiceMix,
    objective: MixObjective,
    assignment: ServerAssignment,
    obj: f64,
) -> (ServerAssignment, f64) {
    if let Ok(redealt) = partition_servers(params, platform, plan, mix) {
        if redealt != assignment {
            if let Ok(alt) = IncrementalEval::from_plan_mix(params, platform, plan, mix, &redealt) {
                let sc = objective_score(objective, &alt);
                if sc > obj + TIE_EPS {
                    return (redealt, sc);
                }
            }
        }
    }
    (assignment, obj)
}

/// Keeps whichever of the swept result and the warm seed scores higher
/// (strict improvement — ties keep the sweep, so the accelerators stay
/// bit-transparent wherever the family already wins).
fn better_of_warm(
    warm: Option<(DeploymentPlan, ServerAssignment, f64)>,
    plan: DeploymentPlan,
    assignment: ServerAssignment,
    obj: f64,
) -> (DeploymentPlan, ServerAssignment, f64) {
    match warm {
        Some((wp, wa, wo)) if wo > obj + TIE_EPS => (wp, wa, wo),
        _ => (plan, assignment, obj),
    }
}

/// Wraps a swept `(plan, assignment, objective)` into a [`MixPlan`] with
/// its model report under `params`.
fn finish_mix_plan(
    params: &ModelParams,
    platform: &Platform,
    plan: DeploymentPlan,
    mix: &ServiceMix,
    assignment: ServerAssignment,
    objective_value: f64,
) -> Result<MixPlan, PlannerError> {
    let report =
        IncrementalEval::from_plan_mix(params, platform, &plan, mix, &assignment)?.mix_report();
    Ok(MixPlan {
        plan,
        assignment,
        report,
        objective_value,
    })
}

impl SweepPlanner {
    /// The mix-aware sweep reference: the best deployment + server →
    /// service partition in the swept family (see the module docs),
    /// under the given [`MixObjective`]. The multi-service counterpart
    /// of [`best_plan`](SweepPlanner::best_plan) and the quality bar
    /// [`MixPlanner`] is judged by (the CI-gated
    /// `mix_vs_sweep` group asserts the heuristic stays within 10% of
    /// it). Identical to
    /// [`best_mix_plan_stats`](SweepPlanner::best_mix_plan_stats) with
    /// the telemetry dropped.
    ///
    /// A mix with a single demanded service delegates to the
    /// single-service sweep — same plan and ρ, bit for bit. Zero-share
    /// services are carried in the report but receive no servers.
    ///
    /// # Errors
    /// [`PlannerError::NotEnoughNodes`] when the platform cannot seat
    /// the root plus one server per demanded service, and the
    /// [`max_agents`](SweepPlanner::max_agents) errors of
    /// [`best_plan`](SweepPlanner::best_plan).
    pub fn best_mix_plan(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
    ) -> Result<MixPlan, PlannerError> {
        self.best_mix_plan_stats(platform, mix, objective)
            .map(|(plan, _)| plan)
    }

    /// [`best_mix_plan`](SweepPlanner::best_mix_plan) plus the
    /// [`SweepStats`] search telemetry: how many composition-walk nodes
    /// were expanded vs pruned (and why), how many refinement steps the
    /// gridded winner took, and whether the
    /// [`time_budget`](SweepPlanner::time_budget) truncated the search.
    /// The single-demanded-service delegation runs no composition walk
    /// and reports default (all-zero) stats.
    ///
    /// # Errors
    /// As [`best_mix_plan`](SweepPlanner::best_mix_plan).
    pub fn best_mix_plan_stats(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
    ) -> Result<(MixPlan, SweepStats), PlannerError> {
        let candidates: Vec<usize> = (0..mix.len()).filter(|&j| mix.share(j) > 0.0).collect();
        let n = platform.node_count();
        let needed = 1 + candidates.len();
        if n < needed {
            return Err(PlannerError::NotEnoughNodes {
                needed,
                available: n,
            });
        }
        self.validate_max_agents(n)?;
        let params = resolve_params(self.params, platform);
        if let [only] = candidates[..] {
            let plan = self.single_candidate_mix_plan(platform, mix, &params, only)?;
            return Ok((plan, SweepStats::default()));
        }
        if params.uses_link_bandwidths(platform) {
            return self.best_mix_plan_multi_site(platform, mix, objective, &params, &candidates);
        }
        let mut nodes = platform.ids_by_power_desc();
        self.coarsen_nodes(
            &params,
            platform,
            &mut nodes,
            mix_wapp_cap(mix, &candidates),
        );
        let warm = self.mix_warm_seed(&params, platform, mix, objective);
        let warm_obj = warm.as_ref().map_or(f64::NEG_INFINITY, |&(_, _, o)| o);
        let mut stats = SweepStats::default();
        let family = self.best_mix_over_nodes(
            &params,
            platform,
            mix,
            objective,
            &candidates,
            &nodes,
            warm_obj,
            &mut stats,
        );
        let (plan, assignment, objective_value) = match (family, warm) {
            (Ok((p, a, o)), warm) => better_of_warm(warm, p, a, o),
            // A fully pruned walk found nothing strictly above the warm
            // seed, so the seed is the family answer (this is what makes
            // warm incumbents a pure accelerator: the sweep never
            // returns less than the heuristic).
            (Err(PlannerError::InvalidConfig(_)), Some(w)) => w,
            (Err(e), _) => return Err(e),
        };
        let mix_plan = finish_mix_plan(&params, platform, plan, mix, assignment, objective_value)?;
        Ok((mix_plan, stats))
    }

    /// One demanded service: the composition axis is trivial (every
    /// server hosts it), so the single-service sweep *is* the family —
    /// delegate and keep the results bit-identical.
    fn single_candidate_mix_plan(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        params: &ModelParams,
        service: usize,
    ) -> Result<MixPlan, PlannerError> {
        let (plan, rho) = self.best_plan(platform, mix.service(service))?;
        let mut assignment = ServerAssignment::default();
        for slot in plan.slots() {
            if plan.role(slot) == Role::Server {
                assignment.service_of.insert(plan.node(slot), service);
            }
        }
        finish_mix_plan(params, platform, plan, mix, assignment, rho)
    }

    /// The warm incumbent: [`MixPlanner`]'s answer for the same inputs,
    /// re-scored on a fresh engine build so the value is bit-stable
    /// against everything the sweep compares it to. `None` when the
    /// heuristic cannot run or must not: the exact reference walk
    /// (`coarsen == Some(false)`) keeps the pre-acceleration semantics,
    /// and [`max_agents`](SweepPlanner::max_agents) is a cap
    /// `MixPlanner` does not honor — seeding from it could both prune
    /// unsoundly and fall back to a cap-violating plan.
    fn mix_warm_seed(
        &self,
        params: &ModelParams,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
    ) -> Option<(DeploymentPlan, ServerAssignment, f64)> {
        if self.coarsen == Some(false) || self.max_agents.is_some() {
            return None;
        }
        let heur = MixPlanner {
            params: Some(*params),
            objective,
            allow_conversion: true,
        }
        .plan_mix_unbounded(platform, mix)
        .ok()?;
        let eval =
            IncrementalEval::from_plan_mix(params, platform, &heur.plan, mix, &heur.assignment)
                .ok()?;
        Some((
            heur.plan,
            heur.assignment,
            objective_score(objective, &eval),
        ))
    }

    /// Builds the shared scan context: powers, suffix sums, the
    /// composition-grid blocks, and the accelerator switches.
    fn make_mix_ctx<'a>(
        &self,
        params: &'a ModelParams,
        platform: &'a Platform,
        mix: &'a ServiceMix,
        objective: MixObjective,
        candidates: &'a [usize],
        nodes: &'a [NodeId],
    ) -> MixCtx<'a> {
        let n = nodes.len();
        let powers: Vec<f64> = nodes.iter().map(|&id| platform.power(id).value()).collect();
        let mut suffix_power = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_power[i] = suffix_power[i + 1] + powers[i];
        }
        let grid_on = match self.coarsen {
            Some(forced) => forced,
            None => n > MIX_GRID_THRESHOLD,
        };
        let blocks: Vec<usize> = if grid_on && !powers.is_empty() {
            // Per-service block: the digit's useful range is its Eq. 15
            // saturation budget (beyond it growth is cap-pruned anyway),
            // mapped to about MIX_GRID_RESOLUTION grid points.
            let cap = rho_cap_of(params, powers[0]);
            candidates
                .iter()
                .map(|&j| {
                    let budget =
                        saturation_budget(params, cap, &powers, mix.service(j).wapp.value());
                    (budget.min(n) / MIX_GRID_RESOLUTION).max(1)
                })
                .collect()
        } else {
            vec![1; candidates.len()]
        };
        // The agent count gets the same geometric treatment as the
        // composition digits: the k loop is the outer multiplier on
        // every walk cost, and the objective-vs-k curve is smooth
        // enough for a stride + ±1 refinement to recover the optimum.
        let k_block = if grid_on {
            (n / MIX_GRID_RESOLUTION).max(1)
        } else {
            1
        };
        MixCtx {
            params,
            platform,
            mix,
            objective,
            candidates,
            nodes,
            powers,
            suffix_power,
            blocks,
            k_block,
            dominance: self.coarsen != Some(false),
            deadline: self.time_budget.map(|b| Instant::now() + b),
        }
    }

    /// The family search: per-`k` pruned walks folded into the single
    /// best configuration, seeded with `warm_obj` and carrying the
    /// incumbent across `k` values — sequentially by folding, in
    /// parallel through a shared max-atomic every worker reads before
    /// each scan and raises after it (sound: pruning is strictly-below
    /// and only achieved objectives enter).
    fn best_family_cfg(
        &self,
        ctx: &MixCtx<'_>,
        k_cap: usize,
        workers: usize,
        warm_obj: f64,
        stats: &mut SweepStats,
    ) -> Option<KMixBest> {
        // The swept k values: every k when exact, the `k_block` grid
        // lines when coarsened (the refiner's ±1 agent moves recover
        // the in-between optimum). Both paths walk the same set, so
        // sequential and parallel results stay identical.
        let k_block = ctx.k_block;
        let k_at = move |i: usize| 1 + i * k_block;
        if workers <= 1 {
            let mut best: Option<KMixBest> = None;
            for i in 0.. {
                let k = k_at(i);
                if k > k_cap {
                    break;
                }
                if past_deadline(ctx.deadline) {
                    stats.truncated = true;
                    break;
                }
                let incumbent = best
                    .as_ref()
                    .map_or(warm_obj, |b| warm_obj.max(b.objective));
                if let Some(cand) = scan_k_mix(ctx, k, incumbent, stats) {
                    if best
                        .as_ref()
                        .is_none_or(|b| cand.objective > b.objective + TIE_EPS)
                    {
                        best = Some(cand);
                    }
                }
            }
            return refine_k_window(ctx, k_cap, best, warm_obj, stats);
        }
        // Threaded: workers claim grid indices through `par_claim`; the
        // incumbent is shared across workers (and hence across k) as
        // ordered f64 bits. Results come back in index order, i.e.
        // ascending k.
        let shared = AtomicU64::new(ordered_bits(warm_obj));
        let per_k = crate::par_claim(workers, k_cap.div_ceil(k_block), |i| {
            let mut local = SweepStats::default();
            if past_deadline(ctx.deadline) {
                local.truncated = true;
                return (None, local);
            }
            // Acquire/AcqRel pair: the incumbent bound is data another
            // worker computed, so the reader must synchronize with the
            // publishing fetch_max (see the module-level concurrency note).
            let incumbent = from_ordered_bits(shared.load(Ordering::Acquire));
            let best = scan_k_mix(ctx, k_at(i), incumbent, &mut local);
            if let Some(b) = &best {
                shared.fetch_max(ordered_bits(b.objective), Ordering::AcqRel);
            }
            (best, local)
        });
        let mut best: Option<KMixBest> = None;
        for (cand, local) in per_k {
            stats.absorb(&local);
            let Some(cand) = cand else { continue };
            if best
                .as_ref()
                .is_none_or(|b| cand.objective > b.objective + TIE_EPS)
            {
                best = Some(cand);
            }
        }
        refine_k_window(ctx, k_cap, best, warm_obj, stats)
    }

    /// The uniform-network mix sweep core over an explicit
    /// power-descending node list, under `params.bandwidth` as the
    /// single `B` (`params` must not price individual links here — the
    /// multi-site family handles those). Returns the winning plan, its
    /// partition, and the objective value; walk telemetry lands in
    /// `stats`.
    #[allow(clippy::too_many_arguments)] // the family core needs the whole scoring context
    fn best_mix_over_nodes(
        &self,
        params: &ModelParams,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
        candidates: &[usize],
        nodes: &[NodeId],
        warm_obj: f64,
        stats: &mut SweepStats,
    ) -> Result<(DeploymentPlan, ServerAssignment, f64), PlannerError> {
        let n = nodes.len();
        let parts = candidates.len();
        if n < parts + 1 {
            return Err(PlannerError::NotEnoughNodes {
                needed: parts + 1,
                available: n,
            });
        }
        let ctx = self.make_mix_ctx(params, platform, mix, objective, candidates, nodes);
        let k_cap = self.k_cap(n).min(n - parts);
        let workers = self.worker_count(n, n - 1);
        let best = self.best_family_cfg(&ctx, k_cap, workers, warm_obj, stats);
        let mut cfg = best.ok_or_else(|| {
            PlannerError::InvalidConfig("no feasible mix deployment found".into())
        })?;
        if ctx.blocks.iter().any(|&b| b > 1) || ctx.k_block > 1 {
            refine_cfg(&ctx, &mut cfg, stats);
        }

        // Replay the winner (bit-exact: the walk's undos rewind exactly,
        // and the refiner scores by this same replay).
        let wf = waterfill(params, &ctx.powers[..cfg.agents], n - cfg.agents);
        let mut eval =
            IncrementalEval::from_agents_mix(params, platform, &nodes[..cfg.agents], mix);
        for &a in &wf.agent_parents {
            eval.assign_child_slot(Slot(a)).expect("agents exist");
        }
        let mut t = 0usize;
        for (d, &count) in cfg.counts.iter().enumerate() {
            for _ in 0..count {
                let idx = cfg.agents + t;
                eval.add_server_for(
                    Slot(wf.server_parents[t]),
                    nodes[idx],
                    MflopRate(ctx.powers[idx]),
                    candidates[d],
                )
                .expect("sweep nodes are unused");
                t += 1;
            }
        }
        eval.commit();
        debug_assert_eq!(
            objective_score(objective, &eval).to_bits(),
            cfg.objective.to_bits(),
            "the replay must reproduce the scanned objective"
        );
        let plan = realize_from_eval(&eval);
        let assignment = assignment_from_eval(&eval);
        let (assignment, obj) = redeal_if_better(
            params,
            platform,
            &plan,
            mix,
            objective,
            assignment,
            cfg.objective,
        );
        Ok((plan, assignment, obj))
    }

    /// The multi-site mix family: per-site mix sweeps at intra
    /// bandwidth (phase 1, per-link re-scored), then the shared
    /// multi-mid-agent cross-site growth (phase 2) and a final per-link
    /// hindsight redeal. Falls back to the min-B scalarized family
    /// re-scored per-link when no single site seats root + one server
    /// per demanded service. Per-site walk stats are summed in site
    /// order (a site whose sweep errors contributes none); the warm
    /// seed competes only in the final per-link comparison — per-site
    /// objectives live in different models and cannot bound each other.
    fn best_mix_plan_multi_site(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
        params: &ModelParams,
        candidates: &[usize],
    ) -> Result<(MixPlan, SweepStats), PlannerError> {
        let warm = self.mix_warm_seed(params, platform, mix, objective);
        let wapp_cap = mix_wapp_cap(mix, candidates);
        let per_site = self.per_site_sweeps(
            platform,
            params,
            candidates.len() + 1,
            wapp_cap,
            |inner, site_params, nodes| {
                let mut site_stats = SweepStats::default();
                let (plan, asg, _) = inner
                    .best_mix_over_nodes(
                        site_params,
                        platform,
                        mix,
                        objective,
                        candidates,
                        nodes,
                        f64::NEG_INFINITY,
                        &mut site_stats,
                    )
                    .ok()?;
                // Re-score under the per-link model.
                let eval =
                    IncrementalEval::from_plan_mix(params, platform, &plan, mix, &asg).ok()?;
                let obj = objective_score(objective, &eval);
                Some((plan, asg, obj, site_stats))
            },
        );
        let mut stats = SweepStats::default();
        let mut best: Option<(DeploymentPlan, ServerAssignment, f64)> = None;
        for (plan, asg, obj, site_stats) in per_site {
            stats.absorb(&site_stats);
            if best
                .as_ref()
                .is_none_or(|(_, _, cur)| obj > cur * (1.0 + TIE_EPS))
            {
                best = Some((plan, asg, obj));
            }
        }
        let Some((seed_plan, seed_asg, _)) = best else {
            // No site seats the whole mix: sweep the scalarized family
            // and re-score per-link.
            let mut nodes = platform.ids_by_power_desc();
            self.coarsen_nodes(params, platform, &mut nodes, wapp_cap);
            let scalar = ModelParams {
                site_aware: false,
                ..*params
            };
            let family = self.best_mix_over_nodes(
                &scalar,
                platform,
                mix,
                objective,
                candidates,
                &nodes,
                f64::NEG_INFINITY,
                &mut stats,
            );
            let (plan, asg, obj) = match family {
                Ok((plan, asg, _)) => {
                    let eval = IncrementalEval::from_plan_mix(params, platform, &plan, mix, &asg)?;
                    let obj = objective_score(objective, &eval);
                    (plan, asg, obj)
                }
                Err(PlannerError::InvalidConfig(_)) if warm.is_some() => {
                    warm.clone().expect("checked is_some")
                }
                Err(e) => return Err(e),
            };
            let (plan, asg, obj) = better_of_warm(warm, plan, asg, obj);
            let mix_plan = finish_mix_plan(params, platform, plan, mix, asg, obj)?;
            return Ok((mix_plan, stats));
        };

        // Phase 2: per-site sub-sweeps opening (multiple) mid-agents,
        // each step choosing (mid, service) jointly.
        let mut eval =
            IncrementalEval::from_plan_mix(params, platform, &seed_plan, mix, &seed_asg)?;
        self.extend_across_sites(
            params,
            platform,
            &mut eval,
            seed_plan.root(),
            candidates,
            wapp_cap,
            |e| objective_score(objective, e),
        );
        let plan = realize_from_eval(&eval);
        let assignment = assignment_from_eval(&eval);
        let obj = objective_score(objective, &eval);
        let (assignment, obj) =
            redeal_if_better(params, platform, &plan, mix, objective, assignment, obj);
        let (plan, assignment, obj) = better_of_warm(warm, plan, assignment, obj);
        let mix_plan = finish_mix_plan(params, platform, plan, mix, assignment, obj)?;
        Ok((mix_plan, stats))
    }

    /// The raw family winner's objective for the uniform path — no warm
    /// final comparison, no hindsight redeal, no refinement — so the
    /// parity suite can pin the accelerated walk bit-identical to the
    /// unpruned enumeration of the same family.
    #[cfg(test)]
    pub(crate) fn family_objective(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
    ) -> Option<f64> {
        let candidates: Vec<usize> = (0..mix.len()).filter(|&j| mix.share(j) > 0.0).collect();
        let params = resolve_params(self.params, platform);
        let mut nodes = platform.ids_by_power_desc();
        self.coarsen_nodes(
            &params,
            platform,
            &mut nodes,
            mix_wapp_cap(mix, &candidates),
        );
        let ctx = self.make_mix_ctx(&params, platform, mix, objective, &candidates, &nodes);
        let n = nodes.len();
        let k_cap = self.k_cap(n).min(n - candidates.len());
        let workers = self.worker_count(n, n - 1);
        let mut stats = SweepStats::default();
        self.best_family_cfg(&ctx, k_cap, workers, f64::NEG_INFINITY, &mut stats)
            .map(|b| b.objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mix::evaluate_mix;
    use crate::planner::MixPlanner;
    use adept_hierarchy::validate::{validate_assignment, validate_relaxed};
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster, multi_site_grid};
    use adept_platform::{BackgroundLoad, CapacityProbe, MbitRate, SiteId};
    use adept_workload::Dgemm;
    use std::time::Duration;

    fn mix2() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(310).service(), 2.0),
            (Dgemm::new(450).service(), 1.0),
        ])
    }

    fn mix3() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(220).service(), 2.0),
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(450).service(), 1.0),
        ])
    }

    /// Brute-force composition list: every vector in `{1..=total}^parts`
    /// summing to `total` — the O(total^parts) specification the
    /// enumerator is checked against.
    fn brute_compositions(total: usize, parts: usize) -> Vec<Vec<usize>> {
        let mut all = Vec::new();
        let count = (total + 1).pow(parts as u32);
        for mut code in 0..count {
            let mut v = Vec::with_capacity(parts);
            for _ in 0..parts {
                v.push(code % (total + 1));
                code /= total + 1;
            }
            if v.iter().all(|&c| c >= 1) && v.iter().sum::<usize>() == total {
                all.push(v);
            }
        }
        all.sort();
        all
    }

    #[test]
    fn compositions_sum_never_repeat_and_cover_the_space() {
        // Exhaustive cross-check at n <= 8, S <= 3 (the satellite's
        // property triple: sums, uniqueness, full coverage).
        for parts in 1..=3usize {
            for total in 0..=8usize {
                let mut got: Vec<Vec<usize>> = Vec::new();
                for_each_composition(total, parts, |c| got.push(c.to_vec()));
                for c in &got {
                    assert_eq!(c.len(), parts);
                    assert_eq!(c.iter().sum::<usize>(), total, "{c:?} must sum to {total}");
                    assert!(c.iter().all(|&x| x >= 1), "{c:?} has an empty part");
                }
                let mut sorted = got.clone();
                sorted.sort();
                let mut dedup = sorted.clone();
                dedup.dedup();
                assert_eq!(sorted.len(), dedup.len(), "repeated composition");
                assert_eq!(sorted, brute_compositions(total, parts), "coverage gap");
            }
        }
        // Degenerate inputs produce nothing, silently.
        for_each_composition(5, 0, |_| panic!("no zero-part compositions"));
        for_each_composition(1, 2, |_| panic!("total below parts"));
    }

    #[test]
    fn compositions_arrive_in_lexicographic_order() {
        let mut prev: Option<Vec<usize>> = None;
        for_each_composition(7, 3, |c| {
            if let Some(p) = &prev {
                assert!(p[..] < *c, "{p:?} !< {c:?}");
            }
            prev = Some(c.to_vec());
        });
        assert!(prev.is_some());
    }

    /// The pruning-soundness check: on a platform small enough to walk
    /// the whole (k, composition) family unpruned, the sweep must not
    /// return anything below the exhaustive optimum.
    #[test]
    fn tiny_platform_matches_exhaustive_reference() {
        let platform = heterogenized_cluster(
            "orsay",
            7,
            adept_platform::MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        let mix = mix2();
        let params = crate::model::ModelParams::from_platform(&platform);
        let nodes = platform.ids_by_power_desc();
        let powers: Vec<f64> = nodes.iter().map(|&id| platform.power(id).value()).collect();
        for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
            let got = SweepPlanner::default()
                .best_mix_plan(&platform, &mix, objective)
                .unwrap();
            let mut brute = f64::NEG_INFINITY;
            for k in 1..=nodes.len() - 2 {
                let wf = waterfill(&params, &powers[..k], nodes.len() - k);
                for s in 2..=nodes.len() - k {
                    if wf.zero_after[s] > 0 {
                        continue; // dominated by a smaller k
                    }
                    for_each_composition(s, 2, |counts| {
                        let mut eval =
                            IncrementalEval::from_agents_mix(&params, &platform, &nodes[..k], &mix);
                        for &a in &wf.agent_parents {
                            eval.assign_child_slot(Slot(a)).unwrap();
                        }
                        let mut t = 0usize;
                        for (d, &c) in counts.iter().enumerate() {
                            for _ in 0..c {
                                eval.add_server_for(
                                    Slot(wf.server_parents[t]),
                                    nodes[k + t],
                                    MflopRate(powers[k + t]),
                                    d,
                                )
                                .unwrap();
                                t += 1;
                            }
                        }
                        brute = brute.max(objective_score(objective, &eval));
                    });
                }
            }
            assert!(
                got.objective_value >= brute - 1e-12,
                "{objective:?}: sweep {} misses the exhaustive optimum {brute}",
                got.objective_value
            );
        }
    }

    #[test]
    fn single_service_mix_is_bit_identical_to_the_sweep() {
        // Randomized platforms; the acceptance criterion's parity test.
        let platforms = vec![
            lyon_cluster(30),
            heterogenized_cluster(
                "orsay",
                45,
                adept_platform::MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                11,
            ),
            multi_site_grid(
                2,
                12,
                adept_platform::MflopRate(400.0),
                MbitRate(100.0),
                MbitRate(5.0),
                9,
            ),
        ];
        for platform in &platforms {
            for size in [10u32, 310, 1000] {
                let svc = Dgemm::new(size).service();
                let (plan, rho) = SweepPlanner::default().best_plan(platform, &svc).unwrap();
                for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
                    let got = SweepPlanner::default()
                        .best_mix_plan(platform, &ServiceMix::single(svc.clone()), objective)
                        .unwrap();
                    assert!(
                        got.plan.structurally_eq(&plan),
                        "dgemm-{size} {objective:?}: plans differ"
                    );
                    assert_eq!(
                        got.objective_value.to_bits(),
                        rho.to_bits(),
                        "dgemm-{size} {objective:?}: {} != sweep rho {rho}",
                        got.objective_value
                    );
                    assert_eq!(got.assignment.count_for(0), plan.server_count());
                }
                // A zero-share passenger service must not change the
                // family: still the single-service sweep, bit for bit.
                let with_idle =
                    ServiceMix::new(vec![(svc.clone(), 1.0), (Dgemm::new(100).service(), 0.0)]);
                let got = SweepPlanner::default()
                    .best_mix_plan(platform, &with_idle, MixObjective::WeightedMin)
                    .unwrap();
                assert!(got.plan.structurally_eq(&plan));
                assert_eq!(got.objective_value.to_bits(), rho.to_bits());
                assert_eq!(got.assignment.count_for(1), 0);
            }
        }
    }

    #[test]
    fn mix_sweep_plan_is_valid_and_report_consistent() {
        let platform = lyon_cluster(40);
        let mix = mix3();
        let params = crate::model::ModelParams::from_platform(&platform);
        for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
            let got = SweepPlanner::default()
                .best_mix_plan(&platform, &mix, objective)
                .unwrap();
            assert!(validate_relaxed(&got.plan).is_empty());
            assert!(
                validate_assignment(&got.plan, &got.assignment.service_of, mix.len()).is_empty()
            );
            let reference =
                evaluate_mix(&params, &platform, &got.plan, &mix, &got.assignment).unwrap();
            assert!(
                (got.report.rho - reference.rho).abs() <= 1e-9 * reference.rho.max(1.0),
                "{objective:?}: reported {} vs re-evaluated {}",
                got.report.rho,
                reference.rho
            );
            if objective == MixObjective::WeightedMin {
                assert!(
                    (got.objective_value - got.report.rho).abs() <= 1e-9 * got.report.rho.max(1.0),
                    "weighted-min objective is the mix rate"
                );
            }
        }
    }

    #[test]
    fn mix_sweep_is_the_quality_bar_for_the_mix_planner() {
        // The gate's property at test scale: the heuristic reaches at
        // least 90% of the sweep reference — and the reference itself
        // never falls below the heuristic by more than the same margin
        // (each explores configurations the other cannot).
        let scenarios: Vec<(Platform, ServiceMix)> = vec![
            (lyon_cluster(40), mix3()),
            (
                heterogenized_cluster(
                    "orsay",
                    48,
                    adept_platform::MflopRate(400.0),
                    BackgroundLoad::default(),
                    CapacityProbe::exact(),
                    7,
                ),
                mix2(),
            ),
        ];
        for (platform, mix) in &scenarios {
            let sweep = SweepPlanner::default()
                .best_mix_plan(platform, mix, MixObjective::WeightedMin)
                .unwrap();
            let heur = MixPlanner::default()
                .plan_mix_unbounded(platform, mix)
                .unwrap();
            assert!(
                heur.objective_value >= 0.9 * sweep.objective_value,
                "MixPlanner {} below 90% of the sweep reference {}",
                heur.objective_value,
                sweep.objective_value
            );
            assert!(
                sweep.objective_value >= 0.9 * heur.objective_value,
                "sweep reference {} embarrassingly below the heuristic {}",
                sweep.objective_value,
                heur.objective_value
            );
        }
    }

    #[test]
    fn parallel_and_sequential_mix_sweeps_agree_exactly() {
        // Big enough to cross PARALLEL_THRESHOLD; worker count forced so
        // the threaded path runs even on single-CPU machines.
        let platform = heterogenized_cluster(
            "orsay",
            90,
            adept_platform::MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            5,
        );
        let mix = mix2();
        for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
            let seq = SweepPlanner::sequential()
                .best_mix_plan(&platform, &mix, objective)
                .unwrap();
            for workers in [2usize, 5] {
                let par = SweepPlanner::with_threads(workers)
                    .best_mix_plan(&platform, &mix, objective)
                    .unwrap();
                assert_eq!(
                    par.objective_value.to_bits(),
                    seq.objective_value.to_bits(),
                    "{objective:?} workers={workers}: {} != {}",
                    par.objective_value,
                    seq.objective_value
                );
                assert!(par.plan.structurally_eq(&seq.plan));
                assert_eq!(par.assignment, seq.assignment);
            }
        }
    }

    #[test]
    fn multi_site_mix_sweep_keeps_the_quality_bar() {
        let platform = multi_site_grid(
            2,
            12,
            adept_platform::MflopRate(400.0),
            MbitRate(100.0),
            MbitRate(5.0),
            9,
        );
        let mix = mix2();
        let params = crate::model::ModelParams::from_platform(&platform);
        let got = SweepPlanner::default()
            .best_mix_plan(&platform, &mix, MixObjective::WeightedMin)
            .unwrap();
        // Reported objective is the per-link model's view of the plan.
        let reference = evaluate_mix(&params, &platform, &got.plan, &mix, &got.assignment).unwrap();
        assert!(
            (got.objective_value - reference.rho).abs() <= 1e-9 * reference.rho.max(1.0),
            "reported {} vs per-link {}",
            got.objective_value,
            reference.rho
        );
        // Dominates the min-B scalarized family under per-link scoring.
        let scalar = SweepPlanner {
            params: Some(params.scalarized()),
            ..SweepPlanner::default()
        }
        .best_mix_plan(&platform, &mix, MixObjective::WeightedMin)
        .unwrap();
        let scalar_rho = evaluate_mix(&params, &platform, &scalar.plan, &mix, &scalar.assignment)
            .unwrap()
            .rho;
        assert!(
            got.objective_value >= scalar_rho * (1.0 - 1e-9),
            "multi-site mix sweep {} below scalarized {scalar_rho}",
            got.objective_value
        );
        // Dominates every single-site mix sweep: the per-site family is
        // phase 1's candidate set.
        for site in [SiteId(0), SiteId(1)] {
            let mut b = Platform::builder(platform.network().clone());
            for s in platform.sites() {
                b.add_site(s.name.clone());
            }
            for &id in &platform.nodes_on_site(site) {
                let node = platform.node(id).unwrap();
                b.add_node(node.name.clone(), node.power, node.site)
                    .unwrap();
            }
            let single = b.build().unwrap();
            let sp = SweepPlanner::default()
                .best_mix_plan(&single, &mix, MixObjective::WeightedMin)
                .unwrap();
            let srho = evaluate_mix(
                &crate::model::ModelParams::from_platform(&single),
                &single,
                &sp.plan,
                &mix,
                &sp.assignment,
            )
            .unwrap()
            .rho;
            assert!(
                got.objective_value >= srho * (1.0 - 1e-9),
                "{site}: multi-site {} below single-site {srho}",
                got.objective_value
            );
        }
    }

    #[test]
    fn zero_share_service_gets_no_servers_in_the_general_path() {
        let platform = lyon_cluster(30);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 2.0),
            (Dgemm::new(450).service(), 1.0),
            (Dgemm::new(1000).service(), 0.0),
        ]);
        let got = SweepPlanner::default()
            .best_mix_plan(&platform, &mix, MixObjective::WeightedMin)
            .unwrap();
        assert_eq!(got.assignment.count_for(2), 0);
        assert_ne!(got.report.binding_service, Some(2));
        assert!(got.assignment.count_for(0) >= 1);
        assert!(got.assignment.count_for(1) >= 1);
    }

    #[test]
    fn too_small_platform_is_an_error() {
        let platform = lyon_cluster(3);
        assert!(matches!(
            SweepPlanner::default().best_mix_plan(&platform, &mix3(), MixObjective::WeightedMin),
            Err(PlannerError::NotEnoughNodes { needed: 4, .. })
        ));
    }

    /// Replays the family selection with no pruning at all: every
    /// `(k, composition)` scored on a fresh engine, folded with the
    /// walk's exact acceptance rule (strict + `TIE_EPS`) in the walk's
    /// exact order (ascending `k`; lexicographic count vectors within a
    /// `k`, totals interleaved) — the specification the pruned walk
    /// must match bit for bit.
    fn oracle_family_objective(
        platform: &Platform,
        mix: &ServiceMix,
        objective: MixObjective,
    ) -> Option<f64> {
        let params = crate::model::ModelParams::from_platform(platform);
        let nodes = platform.ids_by_power_desc();
        let powers: Vec<f64> = nodes.iter().map(|&id| platform.power(id).value()).collect();
        let n = nodes.len();
        let candidates: Vec<usize> = (0..mix.len()).filter(|&j| mix.share(j) > 0.0).collect();
        let parts = candidates.len();
        let k_cap = (n - 1).min(n - parts);
        let mut best: Option<f64> = None;
        for k in 1..=k_cap {
            let s_max = n - k;
            if s_max < parts {
                continue;
            }
            let wf = waterfill(&params, &powers[..k], s_max);
            // The walk's order is lexicographic over the full count
            // vector with the total varying — collect and sort.
            let mut comps: Vec<Vec<usize>> = Vec::new();
            for s in parts..=s_max {
                for_each_composition(s, parts, |c| comps.push(c.to_vec()));
            }
            comps.sort();
            let mut k_best: Option<f64> = None;
            for counts in &comps {
                let total: usize = counts.iter().sum();
                if wf.zero_after[total] > 0 {
                    continue; // dominated by a smaller k
                }
                let mut eval =
                    IncrementalEval::from_agents_mix(&params, platform, &nodes[..k], mix);
                for &a in &wf.agent_parents {
                    eval.assign_child_slot(Slot(a)).unwrap();
                }
                let mut t = 0usize;
                for (d, &c) in counts.iter().enumerate() {
                    for _ in 0..c {
                        eval.add_server_for(
                            Slot(wf.server_parents[t]),
                            nodes[k + t],
                            MflopRate(powers[k + t]),
                            candidates[d],
                        )
                        .unwrap();
                        t += 1;
                    }
                }
                let obj = objective_score(objective, &eval);
                if k_best.is_none_or(|b| obj > b + TIE_EPS) {
                    k_best = Some(obj);
                }
            }
            if let Some(kb) = k_best {
                if best.is_none_or(|b| kb > b + TIE_EPS) {
                    best = Some(kb);
                }
            }
        }
        best
    }

    /// The acceptance criterion's parity suite: at n ≤ 48 the
    /// accelerated walk (dominance pruning on, the default) and the
    /// exact reference walk (`coarsen: Some(false)`) both return the
    /// unpruned enumeration's objective, bit for bit, under both
    /// objectives.
    #[test]
    fn accelerated_walk_is_bit_identical_to_the_unpruned_family() {
        let scenarios: Vec<(Platform, ServiceMix)> = vec![
            (lyon_cluster(24), mix3()),
            (
                heterogenized_cluster(
                    "orsay",
                    48,
                    adept_platform::MflopRate(400.0),
                    BackgroundLoad::default(),
                    CapacityProbe::exact(),
                    7,
                ),
                mix2(),
            ),
        ];
        for (platform, mix) in &scenarios {
            for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
                let oracle = oracle_family_objective(platform, mix, objective).unwrap();
                let accelerated = SweepPlanner::sequential()
                    .family_objective(platform, mix, objective)
                    .unwrap();
                let exact = SweepPlanner {
                    coarsen: Some(false),
                    threads: Some(1),
                    ..SweepPlanner::default()
                }
                .family_objective(platform, mix, objective)
                .unwrap();
                assert_eq!(
                    accelerated.to_bits(),
                    oracle.to_bits(),
                    "{objective:?}: accelerated {accelerated} != oracle {oracle}"
                );
                assert_eq!(
                    exact.to_bits(),
                    oracle.to_bits(),
                    "{objective:?}: exact walk {exact} != oracle {oracle}"
                );
            }
        }
    }

    /// The coarse-vs-exact quality floor (satellite): the gridded,
    /// warm-seeded, dominance-pruned sweep stays within 1% of the exact
    /// reference walk on randomized 1- and 2-site platforms at n ≤ 400,
    /// under both objectives.
    #[test]
    fn coarse_walk_stays_within_a_percent_of_exact() {
        let single_site: Vec<(Platform, ServiceMix)> = vec![
            (
                heterogenized_cluster(
                    "orsay",
                    120,
                    adept_platform::MflopRate(400.0),
                    BackgroundLoad::default(),
                    CapacityProbe::exact(),
                    3,
                ),
                mix2(),
            ),
            (
                heterogenized_cluster(
                    "orsay",
                    100,
                    adept_platform::MflopRate(400.0),
                    BackgroundLoad::default(),
                    CapacityProbe::exact(),
                    19,
                ),
                mix3(),
            ),
        ];
        let two_site: Vec<(Platform, ServiceMix)> = vec![(
            multi_site_grid(
                2,
                60,
                adept_platform::MflopRate(400.0),
                MbitRate(100.0),
                MbitRate(5.0),
                13,
            ),
            mix2(),
        )];
        for (platform, mix) in single_site.iter().chain(&two_site) {
            for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
                let coarse = SweepPlanner {
                    coarsen: Some(true),
                    ..SweepPlanner::default()
                }
                .best_mix_plan(platform, mix, objective)
                .unwrap();
                let exact = SweepPlanner {
                    coarsen: Some(false),
                    ..SweepPlanner::default()
                }
                .best_mix_plan(platform, mix, objective)
                .unwrap();
                assert!(
                    coarse.objective_value >= 0.99 * exact.objective_value,
                    "{objective:?} n={}: coarse {} below 99% of exact {}",
                    platform.node_count(),
                    coarse.objective_value,
                    exact.objective_value
                );
            }
        }
    }

    /// SweepStats sanity (satellite): every visited node lands in
    /// exactly one bucket, with and without the composition grid.
    #[test]
    fn sweep_stats_account_for_every_visited_node() {
        let platform = lyon_cluster(60);
        let mix = mix3();
        for planner in [
            SweepPlanner::sequential(),
            SweepPlanner {
                coarsen: Some(true),
                threads: Some(1),
                ..SweepPlanner::default()
            },
            SweepPlanner {
                coarsen: Some(false),
                threads: Some(1),
                ..SweepPlanner::default()
            },
        ] {
            for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
                let (_, stats) = planner
                    .best_mix_plan_stats(&platform, &mix, objective)
                    .unwrap();
                assert!(stats.visited > 0, "the walk visited nothing");
                assert!(stats.expanded > 0, "the walk expanded nothing");
                assert_eq!(
                    stats.visited,
                    stats.expanded + stats.pruned(),
                    "coarsen={:?} {objective:?}: {stats:?} loses nodes",
                    planner.coarsen
                );
                assert!(!stats.truncated, "no budget was set");
            }
        }
        // The parallel path sums per-k stats to the same invariant
        // (the counts themselves vary with the schedule, see SweepStats).
        let platform = heterogenized_cluster(
            "orsay",
            90,
            adept_platform::MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            5,
        );
        let (_, stats) = SweepPlanner::with_threads(3)
            .best_mix_plan_stats(&platform, &mix2(), MixObjective::WeightedMin)
            .unwrap();
        assert_eq!(stats.visited, stats.expanded + stats.pruned());
        assert!(stats.expanded > 0);
    }

    /// The anytime knob (satellite): a zero budget truncates
    /// immediately and falls back to the warm seed — still a valid
    /// plan — while no budget never reports truncation. Covers the
    /// sequential fold and the threaded grid walk (80 nodes crosses
    /// `PARALLEL_THRESHOLD`, below which the worker count is 1).
    #[test]
    fn time_budget_truncates_to_a_valid_best_so_far() {
        let mix = mix3();
        for (platform, threads) in [(lyon_cluster(40), 1usize), (lyon_cluster(80), 3)] {
            let (plan, stats) = SweepPlanner {
                time_budget: Some(Duration::ZERO),
                threads: Some(threads),
                ..SweepPlanner::default()
            }
            .best_mix_plan_stats(&platform, &mix, MixObjective::WeightedMin)
            .unwrap();
            assert!(
                stats.truncated,
                "threads={threads}: a zero budget must truncate"
            );
            assert!(plan.objective_value > 0.0);
            assert!(validate_relaxed(&plan.plan).is_empty());
            assert!(
                validate_assignment(&plan.plan, &plan.assignment.service_of, mix.len()).is_empty()
            );
            // The fallback is exactly the warm seed's quality or better.
            let heur = MixPlanner::default()
                .plan_mix_unbounded(&platform, &mix)
                .unwrap();
            assert!(
                plan.objective_value >= heur.objective_value * (1.0 - 1e-9),
                "threads={threads}: truncated sweep {} below the warm seed {}",
                plan.objective_value,
                heur.objective_value
            );
            let (_, stats) = SweepPlanner::with_threads(threads)
                .best_mix_plan_stats(&platform, &mix, MixObjective::WeightedMin)
                .unwrap();
            assert!(
                !stats.truncated,
                "threads={threads}: no budget, no truncation"
            );
        }
    }

    /// Warm incumbents make the sweep a true upper envelope: it never
    /// returns less than the heuristic it seeds from, on any path
    /// (uniform and multi-site), under both objectives.
    #[test]
    fn sweep_never_returns_less_than_the_heuristic() {
        let scenarios: Vec<(Platform, ServiceMix)> = vec![
            (lyon_cluster(40), mix3()),
            (
                heterogenized_cluster(
                    "orsay",
                    48,
                    adept_platform::MflopRate(400.0),
                    BackgroundLoad::default(),
                    CapacityProbe::exact(),
                    7,
                ),
                mix2(),
            ),
            (
                multi_site_grid(
                    2,
                    12,
                    adept_platform::MflopRate(400.0),
                    MbitRate(100.0),
                    MbitRate(5.0),
                    9,
                ),
                mix2(),
            ),
        ];
        for (platform, mix) in &scenarios {
            for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
                let sweep = SweepPlanner::default()
                    .best_mix_plan(platform, mix, objective)
                    .unwrap();
                let heur = MixPlanner {
                    objective,
                    ..MixPlanner::default()
                }
                .plan_mix_unbounded(platform, mix)
                .unwrap();
                assert!(
                    sweep.objective_value >= heur.objective_value * (1.0 - 1e-9),
                    "{objective:?}: sweep {} below its warm seed {}",
                    sweep.objective_value,
                    heur.objective_value
                );
            }
        }
    }
}
