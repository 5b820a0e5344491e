//! Model-guided sweep over deployment families — the reference "optimal".
//!
//! Under the Section 3 model, a deployment is characterized (up to
//! throughput) by: which nodes are agents, which are servers, and the
//! per-agent degree distribution (see `realize`). This
//! planner sweeps:
//!
//! * the number of agents `k` (taken strongest-first, so the binding
//!   weakest agent is as strong as possible), and
//! * the number of servers `s` (strongest remaining first),
//!
//! balancing degrees by waterfill, and returns the best plan under Eq. 16.
//!
//! The inner loop is incremental: adding the `s`-th server assigns one more
//! child slot (heap-based waterfill step, `O(log k)`) and updates the
//! service-power running sums in `O(1)`, so one agent count costs
//! `O(n log n)`.
//!
//! **The tail bound: an exact early exit.** The outer `k`-loop scans
//! agent counts in chunks and stops once no larger `k` can win. After a
//! chunk, with `k₀` the next agent count, it computes
//!
//! ```text
//! TB(k₀) = max over s of min(pred[k₀+s−1], service(k₀, s), S(s))
//! S(1)   = sch_pow(powers[k₀−1], 1)
//! S(s≥2) = min(S(1), sch_pow(powers[0], 2))
//! ```
//!
//! where `pred` is the Eq. 14 server bound of the weakest server and
//! `service(k₀, s)` the Eq. 15 rate of servers `powers[k₀..k₀+s]`,
//! summed exactly as the scan sums it, and stops when
//! `TB(k₀) ≤ best ρ + TIE_EPS`. The exit is exact. Take any `k′ ≥ k₀`
//! and any `s` the scan scores, i.e. with no childless agent:
//!
//! 1. The servers `powers[k′..k′+s]` are pointwise no stronger than
//!    `powers[k₀..k₀+s]`, since the list descends. The scan sums them
//!    with the same operations in the same order, and IEEE-rounded add,
//!    divide and reciprocal are monotone, so its Eq. 15 rate and its
//!    Eq. 14 prediction bound are at most `k₀`'s.
//! 2. The weakest agent, `powers[k′−1] ≤ powers[k₀−1]`, has at least one
//!    child, so the scan's minimum scheduling power is at most `S(1)`.
//! 3. When `s ≥ 2`, the `k′` agents hold `k′ − 1 + s > k′` children, so
//!    some agent holds a second child, and the minimum is at most
//!    `sch_pow(powers[0], 2)`. `agent_cycle` is built from sums,
//!    products and quotients of non-negative terms, so `sch_pow` falls
//!    with degree and rises with power in floating point too.
//!
//! So every later candidate's ρ is at most `TB(k₀)` and fails the
//! strict-improvement test, and the winner is the full loop's, bit for
//! bit. A check costs `O(n − k₀)` flops and no heap work. On the 988-node
//! site lists of the 4 × 250,000 grid (DGEMM 310) the winner is
//! `k = 194` and the cut fires at `k₀ = 225`: 224 of 987 agent counts
//! are scanned.
//!
//! A chunk's agent counts are independent, so on large platforms they
//! are distributed over worker threads by [`par_claim`](crate::par_claim)
//! (one round per chunk), which returns the per-`k` winners in
//! ascending-`k` order; they merge with the same strict-improvement rule
//! either way, and the bound is checked between chunks, so the parallel
//! sweep selects the same configuration and returns the same ρ as the
//! sequential one. Set [`SweepPlanner::threads`] to `Some(1)` (as
//! [`SweepPlanner::sequential`] does) to force the sequential path.
//!
//! This is the strongest polynomial-time reference we can compute and
//! serves as Table 4's "optimal" when judging the heuristic ("Heur. Perf."
//! = heuristic ρ / sweep ρ). It is *not* proven optimal on heterogeneous
//! platforms (the true problem is NP-hard, Section 1), but on homogeneous
//! clusters the swept family contains every complete spanning d-ary tree's
//! throughput, so it can only match or beat the CSD optimum of \[10\].
//!
//! **Coarsen-then-refine (large platforms).** The quadratic sweep is
//! exact but hopeless at 10⁵–10⁶ slots. Above `COARSEN_THRESHOLD`
//! nodes per swept list the planner first *coarsens*: every list is cut
//! to its `saturation_budget` — no deployment beats
//! `sch_pow(strongest, 1)`, so once the strongest-first Eq. 15 service
//! rate reaches that cap, deeper nodes cannot matter (a 4× + 64 margin
//! keeps the argument safely conservative). The *refine* step then runs
//! the ordinary exact machinery on the truncated lists: per-site sweeps
//! (distributed over worker threads, one site per task, merged in site
//! order so the winner is deterministic) and the cross-site growth
//! phase with its spare pools bounded by the same budget. Because the
//! swept family only ever deploys prefixes of the sorted lists, the
//! truncation reproduces the flat sweep's choice whenever the winner
//! fits the budget — which the ρ cap guarantees at saturation scale —
//! and a budget at or above the list size is bit-for-bit a no-op. Force
//! the behaviour either way with [`SweepPlanner::coarsen`].
//!
//! **Service mixes.** [`SweepPlanner::best_mix_plan`] (module
//! [`sweep_mix`](super::sweep_mix)) extends the family with a third
//! axis: integer *compositions* of the server count across the mix's
//! services, walked as O(log n) engine deltas and kept tractable by a
//! per-service **Eq. 15 pruning bound** — once a service's rate
//! saturates its share of the (only-ever-falling) scheduling rate,
//! every larger count for it is dominated, which caps each composition
//! digit near its saturation point instead of at `n`. See the
//! `sweep_mix` module docs for the full argument.
//!
//! **Multi-site platforms.** Both references run the same two phases:
//! the per-site sweeps (`per_site_sweeps`: one site per task, each at
//! its intra bandwidth) and the cross-site growth (`extend_across_sites`,
//! scored by ρ or by the mix objective). Each sweep buckets the nodes by
//! site in one pass over the catalog (`site_lists`), and each phase-1
//! task ranks its site strongest-first lazily ([`NodeRanking`]) and hands
//! the ranking to phase 2: phase 1 scans the site's coarsened prefix,
//! and phase 2 draws the site's spares from its ranking, reading it only
//! as deep as the saturation budget when coarsening is on. A ranking
//! sorts only what is read, so a 250,000-node site sorts about a
//! thousand entries, not the site. Their scan cores stay separate:
//! [`best_plan`](SweepPlanner::best_plan) steps the exact family with
//! O(1) closed-form updates, while a one-service composition walk would
//! grid `k` above `MIX_GRID_THRESHOLD` (96 nodes) and pay one engine
//! delta per step — so the mix reference delegates one-candidate mixes
//! to `best_plan`, bit for bit.

// audit: allow-file(unwrap, "sweep engine invariants documented in each expect; the
// Table 4 parity tests cover the walk")
use super::realize::Waterfill;
use super::{resolve_params, Planner, PlannerError};
use crate::model::throughput::{sch_pow, service_rate_from_sums};
use crate::model::{batch, comm, IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Slot};
use adept_platform::{MflopRate, NodeId, NodeRanking, Platform};
use adept_workload::{ClientDemand, ServiceMix, ServiceSpec};

/// Strict-improvement resolution of the sweep: ties within this margin
/// keep the earlier (fewer-agents, fewer-nodes) configuration.
pub(crate) const TIE_EPS: f64 = 1e-12;

/// Below this node count the sweep stays sequential — thread spawn
/// overhead would dominate the agent-count scan. Measured on the bench
/// host via [`SweepPlanner::with_threads`]: under ~64 nodes a scan_k
/// finishes faster than a worker spawn+join round trip.
pub(crate) const PARALLEL_THRESHOLD: usize = 64;

/// Above this many nodes in one swept list, [`SweepPlanner::coarsen`]'s
/// `None` default turns the saturation truncation on. Below it the full
/// quadratic sweep is cheap enough to stay exact.
pub(crate) const COARSEN_THRESHOLD: usize = 4096;

/// Saturation budget for a power-descending node list: how deep a sweep
/// can possibly need to reach into it (**coarsening**, phase "coarsen"
/// of coarsen-then-refine).
///
/// No deployment's throughput exceeds `rho_cap` — Eq. 16's ρ is capped
/// by every agent's scheduling power, the root's included, and
/// `sch_pow(strongest, 1)` bounds that (degree ≥ 1, power ≤ strongest).
/// Walking servers strongest-first, `s_sat` is the count at which the
/// Eq. 15 service rate alone reaches `rho_cap`: past it extra servers
/// cannot raise ρ, they only shift which constraint binds. The budget
/// retains `4·s_sat + 64` (at least 256) entries — the margin covers
/// the agents the winning split takes out of the same prefix and the
/// real servers being weaker than the strongest-first bound assumes.
///
/// The swept family only ever deploys a **prefix** of the sorted list
/// (`k` agents then `s` servers, both strongest-first), so truncating
/// to the budget reproduces the flat sweep bit-for-bit whenever the
/// flat winner (and every per-`k` winner that could shadow it) fits in
/// the prefix — and `rho_cap` is exactly why they do. A budget at or
/// above the list length is a no-op by construction.
///
/// The powers come as an iterator that is read only up to `s_sat`, so
/// sizing a 10⁵-node list's budget reads its first few hundred entries
/// — all of them only when the list never saturates. Fed from a
/// [`NodeRanking`]'s iterator, those reads are all the ranking sorts.
pub(crate) fn saturation_budget(
    params: &ModelParams,
    rho_cap: f64,
    powers_desc: impl IntoIterator<Item = f64>,
    wapp: f64,
) -> usize {
    let wpre = params.calibration.server.wpre.value();
    let transfer = comm::service_transfer_time(params).value();
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut s_sat = 0usize;
    for w in powers_desc {
        s_sat += 1;
        numerator += wpre / wapp;
        denominator += w / wapp;
        if service_rate_from_sums(transfer, numerator, denominator) >= rho_cap {
            break;
        }
    }
    (4 * s_sat).saturating_add(64).max(256)
}

/// The ρ upper bound behind [`saturation_budget`]: the scheduling power
/// of the strongest node at degree one.
pub(crate) fn rho_cap_of(params: &ModelParams, strongest: f64) -> f64 {
    sch_pow(params, adept_platform::MflopRate(strongest), 1)
}

/// The saturation truncation of every swept list: the prefix of a
/// strongest-first ranking that its [`saturation_budget`] under `params`
/// keeps, with the ρ cap taken from the ranking's own strongest node —
/// right because the swept families draw only from the list. The budget
/// reads powers from the ranking lazily, so the ranking sorts only the
/// budget-length prefix this returns. [`SweepPlanner::coarsen_nodes`]
/// applies it to the flat, per-site and mix lists alike; phase 2's spare
/// pools (`extend_across_sites`) size the same budget against the
/// platform-wide ρ cap instead. `wapp` should be the heaviest demanded
/// service's ([`mix_wapp_cap`] for a mix): the heavier the service, the
/// less each server contributes to Eq. 15 and the deeper the sweep may
/// need to reach, so the heaviest maximizes the budget and keeps the
/// truncation conservative.
pub(crate) fn truncate_to_saturation_budget<'r>(
    params: &ModelParams,
    platform: &Platform,
    ranking: &'r mut NodeRanking,
    wapp: f64,
) -> &'r [NodeId] {
    let keep = match ranking.get(0) {
        None => 0,
        Some(strongest) => {
            let cap = rho_cap_of(params, platform.power(strongest).value());
            let powers = ranking.iter().map(|id| platform.power(id).value());
            saturation_budget(params, cap, powers, wapp)
        }
    };
    ranking.prefix(keep)
}

/// The conservative `wapp` a mix hands to
/// [`truncate_to_saturation_budget`] (and to the composition-grid block
/// sizing): the heaviest demanded service's per-request work.
pub(crate) fn mix_wapp_cap(mix: &ServiceMix, candidates: &[usize]) -> f64 {
    candidates
        .iter()
        .map(|&j| mix.service(j).wapp.value())
        .fold(0.0f64, f64::max)
}

/// The sweep planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepPlanner {
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
    /// Worker threads for the outer agent-count loop (and the per-site
    /// refinement) on large platforms. `None` (default) uses the
    /// machine's available parallelism; an explicit value is clamped to
    /// at least one worker, so `Some(1)` and `Some(0)` both run the
    /// sequential scan. Platforms below the size threshold always run
    /// sequentially. The chosen plan does not depend on the worker
    /// count.
    pub threads: Option<usize>,
    /// Coarsen-then-refine: truncate every swept node list to its
    /// `saturation_budget` before scanning (and bound phase 2's
    /// per-site spare pools the same way). `None` (default) turns the
    /// truncation on automatically once a list exceeds
    /// `COARSEN_THRESHOLD` nodes; `Some(true)` forces it at any size
    /// (testing hook), `Some(false)` forces the exact flat sweep —
    /// which is O(n²) and impractical past ~10⁴ nodes.
    ///
    /// For [`best_mix_plan`](SweepPlanner::best_mix_plan) the same knob
    /// governs the **composition grid** and the walk accelerators
    /// (warm incumbents, dominance pruning): `Some(false)` is the exact
    /// pre-acceleration reference walk — the parity oracle and the
    /// bench ablation — while `None`/`Some(true)` keep them on (the
    /// grid auto-activates by swept-list size under `None`). See the
    /// [`sweep_mix`](super::sweep_mix) module docs.
    pub coarsen: Option<bool>,
}

impl SweepPlanner {
    /// A sweep forced onto the sequential path (ablation/debug hook):
    /// [`with_threads(1)`](Self::with_threads).
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// A sweep with an explicit worker count (testing/tuning hook).
    /// `0` is clamped to one worker — i.e. the sequential scan.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            ..Self::default()
        }
    }

    /// Whether a swept list of `n_local` nodes gets the saturation
    /// truncation (see [`SweepPlanner::coarsen`]).
    pub(crate) fn coarsen_active(&self, n_local: usize) -> bool {
        self.coarsen.unwrap_or(n_local > COARSEN_THRESHOLD)
    }

    /// The prefix of a strongest-first ranking that the sweep scans:
    /// [`truncate_to_saturation_budget`]'s when coarsening is active for
    /// the ranking's size, the whole ranking otherwise (then one plain
    /// sort). The ranking sorts only the prefix returned.
    pub(crate) fn coarsen_nodes<'r>(
        &self,
        params: &ModelParams,
        platform: &Platform,
        ranking: &'r mut NodeRanking,
        wapp_cap: f64,
    ) -> &'r [NodeId] {
        if self.coarsen_active(ranking.len()) {
            truncate_to_saturation_budget(params, platform, ranking, wapp_cap)
        } else {
            ranking.prefix(usize::MAX)
        }
    }

    /// The flat node list a sweep scans: every node of the platform
    /// ranked strongest first, cut by [`coarsen_nodes`].
    ///
    /// [`coarsen_nodes`]: SweepPlanner::coarsen_nodes
    pub(crate) fn flat_nodes(
        &self,
        params: &ModelParams,
        platform: &Platform,
        wapp_cap: f64,
    ) -> Vec<NodeId> {
        let mut ranking = platform.rank_by_power(platform.ids());
        self.coarsen_nodes(params, platform, &mut ranking, wapp_cap)
            .to_vec()
    }

    /// Worker-thread count for a loop over `n_local` items, honoring
    /// [`threads`](Self::threads) and the spawn-overhead threshold;
    /// `cap` bounds useful parallelism (e.g. the agent-count range for
    /// the k-loop, the site count for per-site refinement).
    pub(crate) fn worker_count(&self, n_local: usize, cap: usize) -> usize {
        if n_local < PARALLEL_THRESHOLD {
            return 1;
        }
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|c| c.get())
                    .unwrap_or(1)
            })
            .min(cap)
            .max(1)
    }
}

/// Winner of one `k` scan: the best server count for that agent count.
#[derive(Debug, Clone, Copy)]
struct KBest {
    agents: usize,
    servers: usize,
    rho: f64,
}

/// Model scalars the scan needs, precomputed once per node list and
/// shared by every per-`k` scan (and every worker thread).
#[derive(Debug)]
struct ScanCtx<'a> {
    params: &'a ModelParams,
    powers: &'a [f64],
    /// `1 / server_prediction_cycle(powers[i])`, batched once
    /// ([`batch::prediction_rates_into`]). Powers descend, so the Eq. 14
    /// server bound of a server prefix is the **last** (weakest) entry —
    /// the per-step running min becomes one array lookup, and the O(n²)
    /// scalar kernel calls across the k-sweep collapse to O(n).
    pred_rates: Vec<f64>,
    wpre: f64,
    wapp: f64,
    transfer: f64,
}

impl<'a> ScanCtx<'a> {
    /// The scan context of the power-descending list `powers` for a
    /// service of per-request work `wapp`.
    fn new(params: &'a ModelParams, powers: &'a [f64], wapp: f64) -> Self {
        let mut pred_rates = Vec::new();
        batch::prediction_rates_into(params, powers, &mut pred_rates);
        Self {
            params,
            powers,
            pred_rates,
            wpre: params.calibration.server.wpre.value(),
            wapp,
            transfer: comm::service_transfer_time(params).value(),
        }
    }
}

/// Agent counts the k-loop of [`SweepPlanner::best_over_nodes`] scans
/// per worker between two [`tail_bound`] checks. A threaded chunk costs
/// one spawn round, so a larger chunk spawns less often but can scan
/// further past the winner.
const K_CHUNK: usize = 32;

/// Scans the server counts for a fixed agent count `k` (growing `s` until
/// ρ falls past its peak), returning the locally best `(servers, rho)`
/// under the sweep's strict-improvement rule. Fully independent of every
/// other `k`; `O(n log n)`. [`tail_bound`] bounds what it can score at
/// every larger `k`.
fn scan_k(ctx: &ScanCtx<'_>, n: usize, k: usize) -> Option<KBest> {
    let mut waterfill = Waterfill::new(ctx.params, &ctx.powers[..k]);
    let mut min_sp = f64::INFINITY;
    // The k-1 non-root agents each consume one child slot.
    for _ in 0..k - 1 {
        min_sp = min_sp.min(waterfill.step().1);
    }
    // Service-power running sums (Eq. 10/15); the prediction bound of
    // Eq. 14 is the weakest server's precomputed rate — servers are
    // added in descending power order, so that is the latest one.
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut best: Option<KBest> = None;
    let mut best_for_k = f64::NEG_INFINITY;
    for s in 1..=(n - k) {
        min_sp = min_sp.min(waterfill.step().1);
        let w = ctx.powers[k + s - 1];
        numerator += ctx.wpre / ctx.wapp;
        denominator += w / ctx.wapp;
        let min_pred = ctx.pred_rates[k + s - 1];
        let service_pow = service_rate_from_sums(ctx.transfer, numerator, denominator);
        if waterfill.childless() > 0 {
            continue; // dominated by a smaller k; keep growing s
        }
        let rho = min_sp.min(min_pred).min(service_pow);
        // Strict improvement only: ties keep the earlier (fewer-nodes)
        // configuration — "least resources".
        let better = match &best {
            None => true,
            Some(cur) => rho > cur.rho + TIE_EPS,
        };
        if better {
            best = Some(KBest {
                agents: k,
                servers: s,
                rho,
            });
        }
        if rho + TIE_EPS < best_for_k {
            break; // unimodal in s: past the sched/service crossing
        }
        best_for_k = best_for_k.max(rho);
    }
    best
}

/// Folds per-`k` winners, in ascending `k`, into the running winner
/// `best` with the sweep's acceptance rule — the same chain the
/// sequential loop walks.
fn merge_in_k_order(
    mut best: Option<KBest>,
    candidates: impl IntoIterator<Item = KBest>,
) -> Option<KBest> {
    for cand in candidates {
        if best.is_none_or(|cur| cand.rho > cur.rho + TIE_EPS) {
            best = Some(cand);
        }
    }
    best
}

/// An upper bound on every ρ that [`scan_k`] scores at any agent count
/// `k ≥ k0`: `TB(k₀)` of the module docs, which prove it. `O(n − k0)`.
fn tail_bound(ctx: &ScanCtx<'_>, n: usize, k0: usize) -> f64 {
    // S(1): the weakest agent holds at least one child.
    let one_child = sch_pow(ctx.params, MflopRate(ctx.powers[k0 - 1]), 1);
    // S(s ≥ 2): and some agent, no stronger than the root, holds two.
    let two_children = one_child.min(sch_pow(ctx.params, MflopRate(ctx.powers[0]), 2));
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut bound = f64::NEG_INFINITY;
    for s in 1..=(n - k0) {
        let i = k0 + s - 1;
        numerator += ctx.wpre / ctx.wapp;
        denominator += ctx.powers[i] / ctx.wapp;
        let service_pow = service_rate_from_sums(ctx.transfer, numerator, denominator);
        let sched = if s == 1 { one_child } else { two_children };
        bound = bound.max(sched.min(ctx.pred_rates[i]).min(service_pow));
    }
    bound
}

/// The agent-count loop: scans `k = 1, 2, …` in chunks of [`K_CHUNK`]
/// per worker, folds each chunk into the running winner, and stops once
/// the [`tail_bound`] of the next `k` cannot beat it. Returns the winner
/// of the loop over every `k < n`.
fn best_k(ctx: &ScanCtx<'_>, n: usize, workers: usize) -> Option<KBest> {
    let chunk = K_CHUNK * workers;
    let mut best = None;
    let mut k0 = 1;
    while k0 < n {
        let end = (k0 + chunk).min(n);
        // Claim index i scans k = k0 + i; the per-k winners come back in
        // ascending k order whatever the worker count.
        let per_k = crate::par_claim(workers, end - k0, |i| scan_k(ctx, n, k0 + i));
        best = merge_in_k_order(best, per_k.into_iter().flatten());
        k0 = end;
        if k0 < n && best.is_some_and(|b| tail_bound(ctx, n, k0) <= b.rho + TIE_EPS) {
            break;
        }
    }
    best
}

impl SweepPlanner {
    /// Returns the best plan together with its modelled throughput.
    ///
    /// On a platform with a heterogeneous network (and site-aware
    /// pricing on), the swept family changes shape — per-site sweeps
    /// plus a cross-site per-site server-count sweep (see
    /// `best_plan_multi_site`); the returned ρ is then the per-link
    /// (hetero) model's.
    ///
    /// # Errors
    /// [`PlannerError::NotEnoughNodes`] below two nodes.
    pub fn best_plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
    ) -> Result<(DeploymentPlan, f64), PlannerError> {
        let n = platform.node_count();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        let params = resolve_params(self.params, platform);
        if params.uses_link_bandwidths(platform) {
            // Also taken for a single-site PerSitePair network: the
            // per-site phase prices its links at the intra bandwidth
            // (not the scalarized min, which would drag in an unused
            // inter-site link) and the returned ρ stays the per-link
            // model's.
            return self.best_plan_multi_site(platform, service, &params);
        }
        let nodes = self.flat_nodes(&params, platform, service.wapp.value());
        self.best_over_nodes(&params, platform, service, &nodes)
    }

    /// The uniform-network sweep core over an explicit power-descending
    /// node list (the whole platform, or one site's nodes for the
    /// multi-site family), under `params.bandwidth` as the single `B`.
    /// Scans agent counts in chunks until the tail bound (module docs)
    /// shows that no larger count can win, so the answer is the full
    /// loop's while the scan often stops near the winner.
    fn best_over_nodes(
        &self,
        params: &ModelParams,
        platform: &Platform,
        service: &ServiceSpec,
        nodes: &[NodeId],
    ) -> Result<(DeploymentPlan, f64), PlannerError> {
        let n = nodes.len();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        let powers: Vec<f64> = nodes.iter().map(|&id| platform.power(id).value()).collect();
        let ctx = ScanCtx::new(params, &powers, service.wapp.value());

        let workers = self.worker_count(n, n - 1);
        let cfg = best_k(&ctx, n, workers)
            .ok_or_else(|| PlannerError::InvalidConfig("no feasible deployment found".into()))?;
        let degrees =
            Waterfill::degrees_after(params, &powers[..cfg.agents], cfg.agents - 1 + cfg.servers);
        let plan = super::realize::realize(
            &nodes[0..cfg.agents],
            &nodes[cfg.agents..cfg.agents + cfg.servers],
            &degrees,
        );
        Ok((plan, cfg.rho))
    }

    /// The multi-site sweep family, keeping the reference quality bar
    /// meaningful under heterogeneous communication:
    ///
    /// 1. **Per-site sweeps** ([`per_site_sweeps`]) — the full uniform
    ///    sweep runs inside every site with `B` set to that site's intra
    ///    bandwidth (links inside a site *are* uniform, so this stays the
    ///    exact family search); each winner is re-scored under the
    ///    per-link model and the best single-site deployment seeds
    ///    phase 2.
    /// 2. **Per-site sub-sweeps** ([`extend_across_sites`]) — every site
    ///    (the seed's included) grows server groups behind one or more
    ///    site-local mid-agents on the site-aware incremental engine,
    ///    committing the best strictly-improving attach, open or steal
    ///    move until a full round adds nothing; only the mid-agent↔root
    ///    messages per request cross the WAN.
    ///
    /// Both phases are shared with the mix reference's multi-site family,
    /// and both read one strongest-first ranking per site: phase 1 ranks
    /// each site's nodes and hands the rankings to phase 2. Falls back to
    /// the min-B scalarized sweep re-scored under the per-link model when
    /// no single site can seat two nodes.
    ///
    /// [`per_site_sweeps`]: SweepPlanner::per_site_sweeps
    /// [`extend_across_sites`]: SweepPlanner::extend_across_sites
    fn best_plan_multi_site(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        params: &ModelParams,
    ) -> Result<(DeploymentPlan, f64), PlannerError> {
        let wapp = service.wapp.value();
        let (mut rankings, per_site) =
            self.per_site_sweeps(platform, params, 2, wapp, |inner, site_params, nodes| {
                let (plan, _) = inner
                    .best_over_nodes(site_params, platform, service, nodes)
                    .ok()?;
                // Re-score under the per-link model (exact for a single-site
                // plan unless a client site is declared elsewhere).
                let rho = params.evaluate(platform, &plan, service).rho;
                Some((plan, rho))
            });
        let mut best: Option<(DeploymentPlan, f64)> = None;
        for (plan, rho) in per_site {
            if best
                .as_ref()
                .is_none_or(|(_, cur)| rho > cur * (1.0 + TIE_EPS))
            {
                best = Some((plan, rho));
            }
        }
        let Some((seed, _)) = best else {
            // No site seats two nodes: sweep the scalarized family and
            // re-score per-link.
            let nodes = self.flat_nodes(params, platform, wapp);
            let (plan, _) = self.best_over_nodes(params, platform, service, &nodes)?;
            let rho = params.evaluate(platform, &plan, service).rho;
            return Ok((plan, rho));
        };
        let mut eval = IncrementalEval::from_plan(params, platform, &seed, service);
        self.extend_across_sites(
            params,
            platform,
            &mut rankings,
            &mut eval,
            seed.root(),
            &[0],
            wapp,
            |e| e.rho(),
        );
        let rho = eval.rho();
        Ok((super::realize::realize_from_eval(&eval), rho))
    }

    /// Every site's node ids in id order, indexed by site, from one pass
    /// over the catalog. Phase 1 ranks each list strongest first inside
    /// the site's task; sites too small for phase 1 get a ranking too,
    /// since phase 2 takes spares from them.
    fn site_lists(platform: &Platform) -> Vec<Vec<NodeId>> {
        let mut lists = vec![Vec::new(); platform.site_count()];
        for (id, site) in platform.ids().zip(platform.site_table().iter()) {
            lists[site.index()].push(id);
        }
        lists
    }

    /// Phase 1 of both multi-site sweeps: ranks every site's nodes
    /// strongest first ([`Platform::rank_by_power`]) and runs `sweep` once
    /// per site that holds at least `min_nodes` nodes. Returns the
    /// rankings, indexed by site, for phase 2, and the results that are
    /// `Some`, in site order.
    ///
    /// `sweep` receives the inner planner, the site's model parameters
    /// and the scanned prefix of the site's ranking. The parameters price
    /// every link at the site's intra bandwidth with `site_aware` off —
    /// links inside a site are uniform — and the prefix is the ranking
    /// coarsened under that model with `wapp_cap` (see [`coarsen_nodes`]),
    /// so a coarsened site sorts only its budget-length head. Sites run in
    /// parallel, one per task; each task builds its site's ranking from
    /// [`site_lists`] and hands it back with its result. The inner planner
    /// then keeps its k-loop sequential so the two levels do not multiply
    /// thread counts.
    ///
    /// [`coarsen_nodes`]: SweepPlanner::coarsen_nodes
    /// [`site_lists`]: SweepPlanner::site_lists
    pub(crate) fn per_site_sweeps<R: Send>(
        &self,
        platform: &Platform,
        params: &ModelParams,
        min_nodes: usize,
        wapp_cap: f64,
        sweep: impl Fn(&SweepPlanner, &ModelParams, &[NodeId]) -> Option<R> + Sync,
    ) -> (Vec<NodeRanking>, Vec<R>) {
        let net = platform.network();
        let sites = platform.sites();
        let lists = Self::site_lists(platform);
        let workers = self.worker_count(platform.node_count(), sites.len());
        let inner = if workers > 1 {
            SweepPlanner {
                threads: Some(1),
                ..*self
            }
        } else {
            *self
        };
        let per_site = crate::par_claim(workers, sites.len(), |i| {
            let site = &sites[i];
            let mut ranking = platform.rank_by_power(lists[i].iter().copied());
            if ranking.len() < min_nodes {
                return (ranking, None);
            }
            let site_params = ModelParams {
                bandwidth: net.bandwidth_between(site.id, site.id),
                site_aware: false,
                ..*params
            };
            // Budget under the site's own bandwidth — the model this
            // site's sweep runs in. The scalarized min-B would deflate
            // the ρ cap and cut the list below the flat winner.
            let nodes = self.coarsen_nodes(&site_params, platform, &mut ranking, wapp_cap);
            let result = sweep(&inner, &site_params, nodes);
            (ranking, result)
        });
        let (rankings, results): (Vec<_>, Vec<_>) = per_site.into_iter().unzip();
        (rankings, results.into_iter().flatten().collect())
    }

    /// Phase 2 of both multi-site sweeps: grows server groups behind
    /// site-local mid-agents on the site-aware engine `eval`, whose tree
    /// hangs off `root`. Each site's spares are the nodes of its ranking
    /// in `rankings` (phase 1's, see [`per_site_sweeps`]) that `eval` does
    /// not use, in rank order.
    ///
    /// Every site may hold **multiple mid-agents**. Each step of a site's
    /// sub-sweep probes every candidate move — attach the next spare
    /// under *any* of the site's attach targets (the seed's own agents
    /// count) for any of `candidates`, open a fresh mid-agent pair under
    /// the root, or **convert** the site's strongest spare into a
    /// mid-agent that steal-rebalances children away from the binding
    /// agent ([`promote_and_steal`](super::realize::promote_and_steal))
    /// — and commits the best one that raises `score` by more than
    /// [`TIE_EPS`] relative. When no attachment helps, a conversion
    /// relieves the bottleneck agent and re-opens attach headroom, as
    /// Algorithm 1's `shift_nodes` does. Only the mid↔root messages
    /// cross the WAN.
    ///
    /// `candidates` are the service indices a new server may host (`&[0]`
    /// for a single-service evaluator); `score` is the objective (ρ, or a
    /// mix objective). Probes are engine deltas undone before the next
    /// probe, so the evaluator is bit-exactly unchanged on rejection.
    ///
    /// When coarsening is active for the largest site, every site's spare
    /// pool is cut at its [`saturation_budget`] under `wapp_cap`, against
    /// the **platform-wide** ρ cap (spares feed the global tree): the pool
    /// is the first budget-many unused entries of the site's ranking, and
    /// both the budget and the pool read the ranking lazily, so it sorts
    /// only that deep. Spares are consumed strongest-first under strict
    /// improvement, so a budget past the saturation point changes
    /// nothing; it only stops a million-node site from sorting and
    /// materializing a million-entry pool. `wapp_cap` should be the
    /// **largest** demanded service's, which maximizes the budget. With
    /// coarsening off the pool is every unused node of the ranking; phase
    /// 1 has then sorted every site it swept whole, in one plain sort, and
    /// the sites it skipped are too small to seat a sweep.
    ///
    /// [`per_site_sweeps`]: SweepPlanner::per_site_sweeps
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn extend_across_sites(
        &self,
        params: &ModelParams,
        platform: &Platform,
        rankings: &mut [NodeRanking],
        eval: &mut IncrementalEval,
        root: Slot,
        candidates: &[usize],
        wapp_cap: f64,
        score: impl Fn(&IncrementalEval) -> f64,
    ) {
        debug_assert!(eval.is_site_aware());
        debug_assert_eq!(eval.pending_deltas(), 0, "grow from a committed state");
        let largest_site = rankings.iter().map(NodeRanking::len).max().unwrap_or(0);
        // Each ranking opens with its site's strongest node.
        let strongest = self.coarsen_active(largest_site).then(|| {
            rankings
                .iter_mut()
                .filter_map(|ranking| ranking.get(0))
                .map(|id| platform.power(id).value())
                .fold(0.0f64, f64::max)
        });
        // Strongest-first spare nodes per site.
        let unused = |id: &NodeId| !eval.uses_node(*id);
        let mut spare: Vec<Vec<NodeId>> = platform
            .sites()
            .iter()
            .zip(rankings.iter_mut())
            .map(|(s, ranking)| {
                let keep = strongest.map_or(usize::MAX, |strongest| {
                    // Budget under the site's intra bandwidth (a spare
                    // attaches to a site-local mid), against the ρ cap the
                    // platform's strongest node sets for the whole tree.
                    let site_params = ModelParams {
                        bandwidth: platform.network().bandwidth_between(s.id, s.id),
                        ..*params
                    };
                    let cap = rho_cap_of(&site_params, strongest);
                    let powers = ranking
                        .iter()
                        .filter(unused)
                        .map(|id| platform.power(id).value());
                    saturation_budget(&site_params, cap, powers, wapp_cap)
                });
                let mut v: Vec<NodeId> = ranking.iter().filter(unused).take(keep).collect();
                v.reverse(); // pop() takes the strongest
                v
            })
            .collect();
        // Attach targets per site: the seed's own agents count (a spare on
        // the seed's site belongs under the existing tree, not behind a
        // fresh root-level mid), plus every mid opened or converted below.
        let mut mids: Vec<Vec<Slot>> = vec![Vec::new(); platform.site_count()];
        for agent in eval.agents() {
            mids[eval.site_of_slot(agent).index()].push(agent);
        }
        for _pass in 0..MAX_CROSS_SITE_PASSES {
            let mut grew = false;
            for site_idx in 0..platform.site_count() {
                // The site's sub-sweep: commit best improving moves until
                // none is left.
                loop {
                    let base = score(eval);
                    let mut best: Option<(CrossSiteMove, f64)> = None;
                    let consider = |mv: CrossSiteMove, sc: f64, best: &mut Option<_>| {
                        if best.as_ref().is_none_or(|&(_, cur)| sc > cur) {
                            *best = Some((mv, sc));
                        }
                    };
                    if let Some(&node) = spare[site_idx].last() {
                        let power = platform.power(node);
                        for &mid in &mids[site_idx] {
                            for &service in candidates {
                                eval.add_server_for(mid, node, power, service)
                                    .expect("spare nodes are unused");
                                let sc = score(eval);
                                eval.undo();
                                consider(CrossSiteMove::Attach { mid, service }, sc, &mut best);
                            }
                        }
                        if spare[site_idx].len() >= 2 {
                            let first = spare[site_idx][spare[site_idx].len() - 2];
                            let first_power = platform.power(first);
                            let mid = eval
                                .add_server(root, node, power)
                                .expect("spare nodes are unused");
                            eval.promote_to_agent(mid).expect("just added");
                            for &service in candidates {
                                eval.add_server_for(mid, first, first_power, service)
                                    .expect("spare nodes are unused");
                                let sc = score(eval);
                                eval.undo();
                                consider(CrossSiteMove::Open { service }, sc, &mut best);
                            }
                            eval.undo_all(); // promote + mid add
                        }
                    }
                    if let Some((mv, sc)) = best {
                        if sc > base * (1.0 + TIE_EPS) {
                            let node = *spare[site_idx].last().expect("probed a spare");
                            let power = platform.power(node);
                            match mv {
                                CrossSiteMove::Attach { mid, service } => {
                                    eval.add_server_for(mid, node, power, service)
                                        .expect("probe just succeeded");
                                    spare[site_idx].pop();
                                }
                                CrossSiteMove::Open { service } => {
                                    let mid = eval
                                        .add_server(root, node, power)
                                        .expect("probe just succeeded");
                                    eval.promote_to_agent(mid).expect("just added");
                                    let first = spare[site_idx][spare[site_idx].len() - 2];
                                    eval.add_server_for(mid, first, platform.power(first), service)
                                        .expect("probe just succeeded");
                                    mids[site_idx].push(mid);
                                    spare[site_idx].pop();
                                    spare[site_idx].pop();
                                }
                            }
                            eval.commit();
                            grew = true;
                            continue;
                        }
                    }
                    // Attachment stalled: scheduling binds, so one more
                    // server anywhere only hurts. Open a steal-rebalanced
                    // mid instead — the site's strongest spare joins as an
                    // agent and adopts children away from the binding agent
                    // (`promote_and_steal`), relieving the bottleneck
                    // without sacrificing any server's Eq. 15 capacity and
                    // re-opening attach headroom for the next rounds.
                    let steal_worked = spare[site_idx].last().and_then(|&node| {
                        let mid = eval
                            .add_server(root, node, platform.power(node))
                            .expect("spare nodes are unused");
                        // On failure promote_and_steal has already
                        // unwound everything, the root attach included.
                        super::realize::promote_and_steal(params, eval, mid).then_some(mid)
                    });
                    if let Some(mid) = steal_worked {
                        let sc = score(eval);
                        if sc > base * (1.0 + TIE_EPS) {
                            eval.commit();
                            mids[site_idx].push(mid);
                            spare[site_idx].pop();
                            grew = true;
                            continue;
                        }
                        eval.undo_all();
                    }
                    break;
                }
            }
            if !grew {
                break;
            }
        }
    }
}

/// One candidate move of the cross-site growth phase.
#[derive(Debug, Clone, Copy)]
enum CrossSiteMove {
    /// Attach the site's strongest spare as a server for `service`
    /// under the already-open mid-agent `mid`.
    Attach { mid: Slot, service: usize },
    /// Open a **new** mid-agent on the site (strongest spare) with the
    /// second spare as its first server for `service` — accepted only
    /// as a pair, since a bare agent level never helps.
    Open { service: usize },
}

/// Upper bound on phase-2 rounds over the sites: a later site's group can
/// re-open headroom for an earlier one, but strict improvement makes
/// every extra round add at least one node, so a handful suffices.
const MAX_CROSS_SITE_PASSES: usize = 4;

impl Planner for SweepPlanner {
    fn name(&self) -> &str {
        "sweep-optimal"
    }

    fn plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        _demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        Ok(self.best_plan(platform, service)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::homogeneous::HomogeneousCsdPlanner;
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate};
    use adept_workload::Dgemm;
    use proptest::prelude::*;

    #[test]
    fn sweep_at_least_as_good_as_csd_family() {
        let platform = lyon_cluster(25);
        for size in [10u32, 100, 310, 1000] {
            let svc = Dgemm::new(size).service();
            let (_, sweep_rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
            let csd = HomogeneousCsdPlanner::default();
            let plan = csd.plan(&platform, &svc, ClientDemand::Unbounded).unwrap();
            let csd_rho = crate::model::ModelParams::from_platform(&platform)
                .evaluate(&platform, &plan, &svc)
                .rho;
            assert!(
                sweep_rho >= csd_rho - 1e-9,
                "dgemm-{size}: sweep {sweep_rho} < csd {csd_rho}"
            );
        }
    }

    #[test]
    fn sweep_rho_matches_full_model_evaluation_of_its_plan() {
        let platform = lyon_cluster(45);
        let svc = Dgemm::new(310).service();
        let (plan, rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
        let full = crate::model::ModelParams::from_platform(&platform)
            .evaluate(&platform, &plan, &svc)
            .rho;
        assert!(
            (rho - full).abs() < 1e-9 * full.max(1.0),
            "incremental rho {rho} vs full evaluation {full}"
        );
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_exactly() {
        // Big enough to cross PARALLEL_THRESHOLD; the worker count is
        // forced so the threaded path runs even on single-CPU machines.
        let platform = heterogenized_cluster(
            "orsay",
            150,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        for size in [10u32, 100, 310, 1000] {
            let svc = Dgemm::new(size).service();
            for workers in [2usize, 4, 7] {
                let (p_par, rho_par) = SweepPlanner::with_threads(workers)
                    .best_plan(&platform, &svc)
                    .unwrap();
                let (p_seq, rho_seq) = SweepPlanner::sequential()
                    .best_plan(&platform, &svc)
                    .unwrap();
                assert_eq!(
                    rho_par.to_bits(),
                    rho_seq.to_bits(),
                    "dgemm-{size} workers={workers}: parallel rho {rho_par} != sequential {rho_seq}"
                );
                assert!(
                    p_par.structurally_eq(&p_seq),
                    "dgemm-{size} workers={workers}: parallel plan differs"
                );
            }
        }
    }

    #[test]
    fn dgemm10_sweep_picks_minimal_deployment() {
        let platform = lyon_cluster(21);
        let (plan, _) = SweepPlanner::default()
            .best_plan(&platform, &Dgemm::new(10).service())
            .unwrap();
        assert_eq!(plan.len(), 2, "agent-limited: 1 agent + 1 server");
    }

    #[test]
    fn dgemm1000_sweep_picks_star_with_all_nodes() {
        let platform = lyon_cluster(21);
        let (plan, _) = SweepPlanner::default()
            .best_plan(&platform, &Dgemm::new(1000).service())
            .unwrap();
        assert_eq!(plan.agent_count(), 1, "server-limited: star");
        assert_eq!(plan.server_count(), 20);
    }

    #[test]
    fn sweep_works_on_heterogeneous_platform() {
        let platform = heterogenized_cluster(
            "orsay",
            40,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            9,
        );
        let (plan, rho) = SweepPlanner::default()
            .best_plan(&platform, &Dgemm::new(310).service())
            .unwrap();
        assert!(rho > 0.0);
        // Strongest node must be the root.
        let root_power = platform.power(plan.node(plan.root()));
        let max_power = platform
            .powers()
            .iter()
            .map(|w| w.value())
            .fold(0.0f64, f64::max);
        assert!((root_power.value() - max_power).abs() < 1e-9);
    }

    /// Four sites of 0, 1, 9 and 30 nodes, each with its own node power
    /// and intra bandwidth, node ids dealt round-robin across the sites.
    fn uneven_sites(inter: f64) -> Platform {
        use adept_platform::{MbitRate, Network, Seconds};
        let sizes = [0usize, 1, 9, 30];
        let powers = [300.0, 420.0, 380.0, 250.0];
        let mut b = Platform::builder(Network::PerSitePair {
            intra: [100.0, 50.0, 200.0, 100.0].map(MbitRate).to_vec(),
            inter: MbitRate(inter),
            latency: Seconds::ZERO,
        });
        let sites: Vec<_> = (0..sizes.len())
            .map(|s| b.add_site(format!("site-{s}")))
            .collect();
        for i in 0..sizes[3] {
            for s in (0..sizes.len()).filter(|&s| i < sizes[s]) {
                b.add_node(format!("site-{s}-n{i}"), MflopRate(powers[s]), sites[s])
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn multi_site_sweep_keeps_the_quality_bar() {
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let svc = Dgemm::new(310).service();
        for platform in [
            multi_site_grid(2, 15, MflopRate(400.0), MbitRate(100.0), MbitRate(5.0), 9),
            uneven_sites(5.0),
            uneven_sites(20.0),
        ] {
            let params = crate::model::ModelParams::from_platform(&platform);
            let (plan, rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
            // The reported rho is the per-link model's evaluation of the plan.
            let full = params.evaluate(&platform, &plan, &svc).rho;
            assert!(
                (rho - full).abs() <= 1e-9 * full.max(1.0),
                "reported {rho} vs per-link {full}"
            );
            // Dominates the min-B scalarized sweep's plan under per-link
            // evaluation (phase 1 alone already prices intra links right).
            let scalar_planner = SweepPlanner {
                params: Some(params.scalarized()),
                ..SweepPlanner::default()
            };
            let (scalar_plan, _) = scalar_planner.best_plan(&platform, &svc).unwrap();
            let scalar_rho = params.evaluate(&platform, &scalar_plan, &svc).rho;
            assert!(
                rho >= scalar_rho * (1.0 - 1e-9),
                "multi-site sweep {rho} must dominate scalarized {scalar_rho}"
            );
            // Dominates every single-site sweep: the per-site family is
            // phase 1's candidate set.
            for site in platform.sites().iter().map(|s| s.id) {
                let on_site = platform.nodes_on_site(site);
                if on_site.len() < 2 {
                    continue;
                }
                let mut b = Platform::builder(platform.network().clone());
                for s in platform.sites() {
                    b.add_site(s.name.clone());
                }
                for &id in &on_site {
                    b.add_node(platform.name(id), platform.power(id), site)
                        .unwrap();
                }
                let single = b.build().unwrap();
                let (sp, _) = SweepPlanner::default().best_plan(&single, &svc).unwrap();
                let srho = crate::model::ModelParams::from_platform(&single)
                    .evaluate(&single, &sp, &svc)
                    .rho;
                assert!(
                    rho >= srho * (1.0 - 1e-9),
                    "{site}: multi-site {rho} below single-site {srho}"
                );
            }
        }
    }

    #[test]
    fn single_site_per_site_pair_sweep_ignores_the_unused_wan() {
        // One populated site on a PerSitePair network whose (unused)
        // inter-site bandwidth is the minimum: the sweep must price links
        // at the intra bandwidth and return the per-link model's rho, not
        // plan under the min-B scalarization.
        use adept_platform::{MbitRate, Network, Seconds};
        let mut b = Platform::builder(Network::PerSitePair {
            intra: vec![MbitRate(100.0)],
            inter: MbitRate(10.0),
            latency: Seconds::ZERO,
        });
        let s = b.add_site("only");
        for i in 0..12 {
            b.add_node(format!("n{i}"), MflopRate(400.0 - 7.0 * i as f64), s)
                .unwrap();
        }
        let platform = b.build().unwrap();
        let svc = Dgemm::new(310).service();
        let params = crate::model::ModelParams::from_platform(&platform);
        let (plan, rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
        let full = params.evaluate(&platform, &plan, &svc).rho;
        assert!(
            (rho - full).abs() <= 1e-9 * full.max(1.0),
            "reported {rho} vs per-link {full}"
        );
        // And it must beat what the scalarized sweep's plan achieves when
        // both are judged per-link (the scalarization plans for a 10 Mb/s
        // network that does not exist).
        let (scalar_plan, _) = SweepPlanner {
            params: Some(params.scalarized()),
            ..SweepPlanner::default()
        }
        .best_plan(&platform, &svc)
        .unwrap();
        let scalar_rho = params.evaluate(&platform, &scalar_plan, &svc).rho;
        assert!(rho >= scalar_rho * (1.0 - 1e-9));
    }

    #[test]
    fn forced_coarsening_is_bit_identical_when_budget_covers_the_site() {
        // 15-node sites sit far under the minimum 256-entry budget, so
        // the truncation is a no-op and the coarse planner must walk the
        // exact same family — plan and rho bit for bit.
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let platform = multi_site_grid(2, 15, MflopRate(400.0), MbitRate(100.0), MbitRate(5.0), 9);
        for size in [10u32, 310, 1000] {
            let svc = Dgemm::new(size).service();
            let (flat_plan, flat_rho) = SweepPlanner {
                coarsen: Some(false),
                ..SweepPlanner::default()
            }
            .best_plan(&platform, &svc)
            .unwrap();
            let (coarse_plan, coarse_rho) = SweepPlanner {
                coarsen: Some(true),
                ..SweepPlanner::default()
            }
            .best_plan(&platform, &svc)
            .unwrap();
            assert_eq!(
                coarse_rho.to_bits(),
                flat_rho.to_bits(),
                "dgemm-{size}: coarse rho {coarse_rho} != flat {flat_rho}"
            );
            assert!(
                coarse_plan.structurally_eq(&flat_plan),
                "dgemm-{size}: coarse plan differs"
            );
        }
    }

    #[test]
    fn coarsening_keeps_quality_when_the_budget_bites() {
        // 600 nodes per site with a light service: the saturation budget
        // (min 256) truncates the per-site lists, yet the winner uses a
        // small prefix, so the coarse sweep must match the flat one to
        // the sweep's own 1e-9 quality bar.
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let platform =
            multi_site_grid(2, 600, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 7);
        let svc = Dgemm::new(100).service();
        let (_, flat_rho) = SweepPlanner {
            coarsen: Some(false),
            ..SweepPlanner::default()
        }
        .best_plan(&platform, &svc)
        .unwrap();
        let (coarse_plan, coarse_rho) = SweepPlanner {
            coarsen: Some(true),
            ..SweepPlanner::default()
        }
        .best_plan(&platform, &svc)
        .unwrap();
        // The budget must actually bite somewhere for this test to mean
        // anything: the plan cannot seat more nodes than two budgets.
        assert!(coarse_plan.len() < 1200, "budget never engaged");
        assert!(
            (coarse_rho - flat_rho).abs() <= 1e-9 * flat_rho.max(1.0),
            "coarse {coarse_rho} vs flat {flat_rho}"
        );
    }

    #[test]
    fn saturation_budget_never_shrinks_below_floor_and_caps_at_need() {
        let platform = lyon_cluster(100);
        let params = crate::model::ModelParams::from_platform(&platform);
        let powers: Vec<f64> = platform
            .ids_by_power_desc()
            .iter()
            .map(|&id| platform.power(id).value())
            .collect();
        let cap = rho_cap_of(&params, powers[0]);
        // A trivially light service saturates immediately: floor of 256.
        let b_light = saturation_budget(&params, cap, powers.iter().copied(), 1e-9);
        assert_eq!(b_light, 256);
        // A heavy service never saturates on 100 nodes: 4n + 64 keeps
        // the whole list (budget >= need, so truncation is a no-op).
        let b_heavy = saturation_budget(&params, cap, powers.iter().copied(), 1e12);
        assert_eq!(b_heavy, 4 * powers.len() + 64);
        assert!(b_heavy >= powers.len(), "budget must cover the need");
    }

    /// The k-loop without the tail-bound exit: every agent count scanned
    /// and folded with `merge_in_k_order`.
    fn full_k_loop(ctx: &ScanCtx<'_>, n: usize) -> Option<KBest> {
        merge_in_k_order(None, (1..n).filter_map(|k| scan_k(ctx, n, k)))
    }

    /// Every ρ the scan scores at agent count `k`, at every server count
    /// that leaves no agent childless — `scan_k` without its stop past
    /// the peak.
    fn scored_rhos(ctx: &ScanCtx<'_>, n: usize, k: usize) -> Vec<f64> {
        let mut waterfill = Waterfill::new(ctx.params, &ctx.powers[..k]);
        let mut min_sp = f64::INFINITY;
        for _ in 0..k - 1 {
            min_sp = min_sp.min(waterfill.step().1);
        }
        let (mut numerator, mut denominator) = (1.0, 0.0);
        let mut rhos = Vec::new();
        for s in 1..=(n - k) {
            min_sp = min_sp.min(waterfill.step().1);
            numerator += ctx.wpre / ctx.wapp;
            denominator += ctx.powers[k + s - 1] / ctx.wapp;
            if waterfill.childless() == 0 {
                let service_pow = service_rate_from_sums(ctx.transfer, numerator, denominator);
                rhos.push(min_sp.min(ctx.pred_rates[k + s - 1]).min(service_pow));
            }
        }
        rhos
    }

    #[test]
    fn tail_bound_stops_the_pipeline_site_scan_after_its_winner() {
        // Each site of the 4 × 250,000 grid sweeps its 988 strongest
        // nodes, all of 400 MFlop/s, at 100 Mb/s.
        let powers = [400.0; 988];
        let params = ModelParams::new(adept_platform::MbitRate(100.0));
        let ctx = ScanCtx::new(&params, &powers, Dgemm::new(310).service().wapp.value());
        let key = |b: KBest| (b.agents, b.servers, b.rho.to_bits());
        let full = full_k_loop(&ctx, 988).expect("k = 1 always scores");
        assert_eq!((full.agents, full.servers), (194, 195));
        for workers in [1, 3] {
            let cut = best_k(&ctx, 988, workers).expect("k = 1 always scores");
            assert_eq!(key(cut), key(full), "workers = {workers}");
        }
        // The first check past the winner fires: k0 = 1 + 7 · 32.
        assert!(tail_bound(&ctx, 988, 225) <= full.rho + TIE_EPS);
    }

    /// List lengths around the chunk size and the pipeline grid's
    /// 988-node site lists.
    const TAIL_SIZES: [usize; 10] = [2, 3, 31, 32, 33, 63, 64, 65, 200, 988];

    /// One tail-bound case: a power-descending list and the model it is
    /// swept under.
    #[derive(Debug)]
    struct TailCase {
        powers: Vec<f64>,
        params: ModelParams,
        wapp: f64,
        workers: usize,
    }

    /// Cases whose list holds at most `max_n` nodes. `levels` picks 1–4
    /// distinct powers (the pipeline grid has 4), or continuous powers at
    /// 4; the latency is 0 or up to 1 ms; 1 or 3 workers.
    fn arb_tail_case(max_n: usize) -> impl Strategy<Value = TailCase> {
        let sizes: Vec<usize> = TAIL_SIZES.into_iter().filter(|&n| n <= max_n).collect();
        (
            (0..sizes.len(), 0usize..5, 0usize..5),
            (5.0f64..1000.0, 0.0f64..2e-3),
            (0usize..2, 0u64..1 << 40),
        )
            .prop_map(
                move |((size, levels, dgemm), (bandwidth, latency), (threaded, seed))| {
                    let mut state = seed | 1;
                    let mut unit = || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 11) as f64 / (1u64 << 53) as f64
                    };
                    let distinct = [400.0, 310.0, 250.0, 175.0];
                    let mut powers: Vec<f64> = (0..sizes[size])
                        .map(|_| match levels {
                            4 => 50.0 + 750.0 * unit(),
                            l => distinct[(unit() * (l + 1) as f64) as usize],
                        })
                        .collect();
                    powers.sort_by(|a, b| b.total_cmp(a));
                    // Half the cases run with no latency at all.
                    let latency = if latency < 1e-3 { 0.0 } else { latency - 1e-3 };
                    TailCase {
                        powers,
                        params: ModelParams::new(adept_platform::MbitRate(bandwidth))
                            .with_latency(adept_platform::Seconds(latency)),
                        wapp: Dgemm::new([10, 100, 310, 1000, 2000][dgemm])
                            .service()
                            .wapp
                            .value(),
                        workers: [1, 3][threaded],
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cut_k_loop_returns_the_full_loops_winner(c in arb_tail_case(usize::MAX)) {
            let n = c.powers.len();
            let ctx = ScanCtx::new(&c.params, &c.powers, c.wapp);
            let key = |best: Option<KBest>| best.map(|b| (b.agents, b.servers, b.rho.to_bits()));
            prop_assert_eq!(
                key(best_k(&ctx, n, c.workers)),
                key(full_k_loop(&ctx, n))
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tail_bound_covers_every_later_score(c in arb_tail_case(64)) {
            let n = c.powers.len();
            let ctx = ScanCtx::new(&c.params, &c.powers, c.wapp);
            // The highest ρ scored at any k ≥ k0, k0 walking down.
            let mut later = f64::NEG_INFINITY;
            for k0 in (1..n).rev() {
                later = scored_rhos(&ctx, n, k0).into_iter().fold(later, f64::max);
                let bound = tail_bound(&ctx, n, k0);
                prop_assert!(later <= bound, "k0 = {}: scored {} above {}", k0, later, bound);
            }
        }
    }

    #[test]
    fn sweep_errors_on_single_node() {
        let platform = lyon_cluster(1);
        assert!(SweepPlanner::default()
            .best_plan(&platform, &Dgemm::new(10).service())
            .is_err());
    }

    #[test]
    fn with_threads_zero_is_clamped_to_one_worker() {
        // Regression: an explicit zero worker count must run the
        // sequential scan, not spawn an empty pool that returns nothing.
        let platform = heterogenized_cluster(
            "orsay",
            80,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        let svc = Dgemm::new(310).service();
        let (plan0, rho0) = SweepPlanner::with_threads(0)
            .best_plan(&platform, &svc)
            .unwrap();
        let (plan_seq, rho_seq) = SweepPlanner::sequential()
            .best_plan(&platform, &svc)
            .unwrap();
        assert_eq!(rho0.to_bits(), rho_seq.to_bits());
        assert!(plan0.structurally_eq(&plan_seq));
    }
}
