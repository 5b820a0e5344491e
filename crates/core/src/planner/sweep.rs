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
//! service-power running sums in `O(1)`, so the whole sweep costs
//! `O(n² log n)` model evaluations' worth of work — fast enough for the
//! 200-node Grid'5000 scenarios.
//!
//! The outer `k`-loop's iterations are fully independent, so on large
//! platforms they are distributed over worker threads by
//! [`par_claim`](crate::par_claim), which returns the per-`k` winners in
//! ascending-`k` order; they merge with the same strict-improvement rule
//! either way, so the parallel sweep selects the same configuration and
//! returns the same ρ as the sequential one. Set
//! [`SweepPlanner::threads`] to `Some(1)` (as
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
//! scored by ρ or by the mix objective). Their scan cores stay separate:
//! [`best_plan`](SweepPlanner::best_plan) steps the exact family with
//! O(1) closed-form updates, while a one-service composition walk would
//! grid `k` above `MIX_GRID_THRESHOLD` (96 nodes) and pay one engine
//! delta per step — so the mix reference delegates one-candidate mixes
//! to `best_plan`, bit for bit.

// audit: allow-file(unwrap, "sweep engine invariants documented in each expect; the
// Table 4 parity tests cover the walk")
use super::realize::HeapEntry;
use super::{resolve_params, Planner, PlannerError};
use crate::model::throughput::{sch_pow, service_rate_from_sums};
use crate::model::{batch, comm, IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, PlanError, Slot};
use adept_platform::{NodeId, Platform};
use adept_workload::{ClientDemand, ServiceMix, ServiceSpec};
use std::collections::BinaryHeap;
use std::time::Duration;

/// Strict-improvement resolution of the sweep: ties within this margin
/// keep the earlier (fewer-agents, fewer-nodes) configuration.
pub(crate) const TIE_EPS: f64 = 1e-12;

/// Below this node count the sweep stays sequential — thread spawn
/// overhead would dominate the O(n² log n) scan. Measured on the bench
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
pub(crate) fn saturation_budget(
    params: &ModelParams,
    rho_cap: f64,
    powers_desc: &[f64],
    wapp: f64,
) -> usize {
    let wpre = params.calibration.server.wpre.value();
    let transfer = comm::service_transfer_time(params).value();
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut s_sat = powers_desc.len();
    for (s, &w) in powers_desc.iter().enumerate() {
        numerator += wpre / wapp;
        denominator += w / wapp;
        if service_rate_from_sums(transfer, numerator, denominator) >= rho_cap {
            s_sat = s + 1;
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

/// **The** saturation truncation, shared by every coarsening site (the
/// single place the budget is computed and applied — `coarsen_nodes`,
/// the mix sweep's node lists, and phase 2's per-site spare pools all
/// call through here). Cuts a power-descending node list to its
/// [`saturation_budget`] under `params`, with the ρ cap taken from
/// `cap_power` (`None` = the list's own strongest node — right when the
/// deployment draws only from this list; phase 2 passes the
/// platform-wide strongest because spares feed the global tree). `wapp`
/// should be the heaviest demanded service's ([`mix_wapp_cap`] for a
/// mix): the heavier the service, the less each server contributes to
/// Eq. 15 and the deeper the sweep may need to reach, so the heaviest
/// maximizes the budget and keeps the truncation conservative. Lists of
/// fewer than two nodes are left alone.
pub(crate) fn truncate_to_saturation_budget(
    params: &ModelParams,
    platform: &Platform,
    nodes: &mut Vec<NodeId>,
    cap_power: Option<f64>,
    wapp: f64,
) {
    if nodes.len() < 2 {
        return;
    }
    let powers: Vec<f64> = nodes.iter().map(|&id| platform.power(id).value()).collect();
    let cap = rho_cap_of(params, cap_power.unwrap_or(powers[0]));
    let budget = saturation_budget(params, cap, &powers, wapp);
    nodes.truncate(budget);
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
    /// Optional cap on the swept agent count `k`; `None` (default)
    /// sweeps every feasible count. A cap of `0` is a configuration
    /// error, and a cap of `n` or more nodes is
    /// [`PlanError::NotEnoughServers`] — honoring it would leave no
    /// node to serve, so the sweep range would silently be empty.
    pub max_agents: Option<usize>,
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
    /// Anytime knob for the mix reference
    /// ([`best_mix_plan`](SweepPlanner::best_mix_plan) and
    /// [`best_mix_plan_stats`](SweepPlanner::best_mix_plan_stats)):
    /// `Some(budget)` stops the composition walk when the wall-clock
    /// budget expires and returns the best configuration found so far,
    /// with [`SweepStats::truncated`](super::sweep_mix::SweepStats::truncated)
    /// raised. `None` (default) runs to completion. A truncated sweep
    /// is still a valid plan — at worst the warm-start seed — but it is
    /// **not** deterministic across machines (wall clocks differ), so
    /// leave it off wherever bit-reproducibility matters. Ignored by
    /// the single-service [`best_plan`](SweepPlanner::best_plan), whose
    /// scan is quadratic, not exponential, and needs no bail-out.
    pub time_budget: Option<Duration>,
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

    /// Validates [`max_agents`](Self::max_agents) against the platform
    /// size, so a nonsensical cap surfaces as a typed error instead of
    /// an empty sweep range reporting "no feasible deployment".
    pub(crate) fn validate_max_agents(&self, n: usize) -> Result<(), PlannerError> {
        match self.max_agents {
            Some(0) => Err(PlannerError::InvalidConfig(
                "max_agents must be at least 1 (the root is an agent)".into(),
            )),
            Some(m) if m >= n => Err(PlannerError::Plan(PlanError::NotEnoughServers {
                needed: 1,
                available: n.saturating_sub(m),
            })),
            _ => Ok(()),
        }
    }

    /// The agent-count range swept over `n_local` nodes: the global cap
    /// (already validated) clamped to the local node list.
    pub(crate) fn k_cap(&self, n_local: usize) -> usize {
        self.max_agents
            .unwrap_or(n_local - 1)
            .min(n_local.saturating_sub(1))
    }

    /// Whether a swept list of `n_local` nodes gets the saturation
    /// truncation (see [`SweepPlanner::coarsen`]).
    pub(crate) fn coarsen_active(&self, n_local: usize) -> bool {
        self.coarsen.unwrap_or(n_local > COARSEN_THRESHOLD)
    }

    /// Truncates a power-descending node list to its saturation budget
    /// when coarsening is active for its size; no-op otherwise. The cap
    /// on achievable ρ comes from the list's own strongest node — for
    /// the families swept here the deployment draws only from the list.
    pub(crate) fn coarsen_nodes(
        &self,
        params: &ModelParams,
        platform: &Platform,
        nodes: &mut Vec<NodeId>,
        wapp_cap: f64,
    ) {
        if self.coarsen_active(nodes.len()) {
            truncate_to_saturation_budget(params, platform, nodes, None, wapp_cap);
        }
    }

    /// Worker-thread count for a loop over `n_local` items, honoring
    /// [`threads`](Self::threads) and the spawn-overhead threshold;
    /// `cap` bounds useful parallelism (e.g. `k_cap` for the k-loop, the
    /// site count for per-site refinement).
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
#[derive(Debug, Clone, Copy)]
struct ScanCtx<'a> {
    params: &'a ModelParams,
    powers: &'a [f64],
    /// `1 / server_prediction_cycle(powers[i])`, batched once
    /// ([`batch::prediction_rates_into`]). Powers descend, so the Eq. 14
    /// server bound of a server prefix is the **last** (weakest) entry —
    /// the per-step running min becomes one array lookup, and the O(n²)
    /// scalar kernel calls across the k-sweep collapse to O(n).
    pred_rates: &'a [f64],
    wpre: f64,
    wapp: f64,
    transfer: f64,
}

/// One waterfill step: hand the next child slot to the agent whose
/// scheduling power after the assignment is highest; returns nothing but
/// updates the degree, min-scheduling-power, and zero-agent bookkeeping.
fn assign_one(
    ctx: &ScanCtx<'_>,
    degrees: &mut [usize],
    heap: &mut BinaryHeap<HeapEntry>,
    min_sp: &mut f64,
    zero_agents: &mut usize,
) {
    let top = heap.pop().expect("k >= 1 agents in the heap");
    let i = top.agent;
    if degrees[i] == 0 {
        *zero_agents -= 1;
    }
    degrees[i] += 1;
    *min_sp = min_sp.min(top.sp_after);
    heap.push(HeapEntry {
        sp_after: sch_pow(
            ctx.params,
            adept_platform::MflopRate(ctx.powers[i]),
            degrees[i] + 1,
        ),
        agent: i,
    });
}

fn initial_heap(ctx: &ScanCtx<'_>, k: usize) -> BinaryHeap<HeapEntry> {
    (0..k)
        .map(|i| HeapEntry {
            sp_after: sch_pow(ctx.params, adept_platform::MflopRate(ctx.powers[i]), 1),
            agent: i,
        })
        .collect()
}

/// Scans all server counts for a fixed agent count `k`, returning the
/// locally best `(servers, rho)` under the sweep's strict-improvement
/// rule. Fully independent of every other `k`.
fn scan_k(ctx: &ScanCtx<'_>, n: usize, k: usize) -> Option<KBest> {
    let mut degrees = vec![0usize; k];
    let mut zero_agents = k;
    let mut min_sp = f64::INFINITY;
    let mut heap = initial_heap(ctx, k);
    // The k-1 non-root agents each consume one child slot.
    for _ in 0..k - 1 {
        assign_one(ctx, &mut degrees, &mut heap, &mut min_sp, &mut zero_agents);
    }
    // Service-power running sums (Eq. 10/15); the prediction bound of
    // Eq. 14 is the weakest server's precomputed rate — servers are
    // added in descending power order, so that is the latest one.
    let mut numerator = 1.0;
    let mut denominator = 0.0;
    let mut best: Option<KBest> = None;
    let mut best_for_k = f64::NEG_INFINITY;
    for s in 1..=(n - k) {
        assign_one(ctx, &mut degrees, &mut heap, &mut min_sp, &mut zero_agents);
        let w = ctx.powers[k + s - 1];
        numerator += ctx.wpre / ctx.wapp;
        denominator += w / ctx.wapp;
        let min_pred = ctx.pred_rates[k + s - 1];
        let service_pow = service_rate_from_sums(ctx.transfer, numerator, denominator);
        if zero_agents > 0 {
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

/// Replays the waterfill for the winning `(k, total_children)` to recover
/// its degree distribution — run once, after the scan has chosen.
fn waterfill_degrees_for(ctx: &ScanCtx<'_>, k: usize, total_children: usize) -> Vec<usize> {
    let mut degrees = vec![0usize; k];
    let mut zero_agents = k;
    let mut min_sp = f64::INFINITY;
    let mut heap = initial_heap(ctx, k);
    for _ in 0..total_children {
        assign_one(ctx, &mut degrees, &mut heap, &mut min_sp, &mut zero_agents);
    }
    degrees
}

/// Folds per-`k` winners in ascending `k` with the sweep's acceptance
/// rule — the same chain the sequential loop walks.
fn merge_in_k_order(candidates: impl IntoIterator<Item = KBest>) -> Option<KBest> {
    let mut best: Option<KBest> = None;
    for cand in candidates {
        let better = match &best {
            None => true,
            Some(cur) => cand.rho > cur.rho + TIE_EPS,
        };
        if better {
            best = Some(cand);
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
    /// [`PlannerError::NotEnoughNodes`] below two nodes;
    /// [`PlannerError::InvalidConfig`] for a zero
    /// [`max_agents`](Self::max_agents) cap and
    /// [`PlanError::NotEnoughServers`] (wrapped) for a cap that leaves
    /// no server below it.
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
        self.validate_max_agents(n)?;
        let params = resolve_params(self.params, platform);
        if params.uses_link_bandwidths(platform) {
            // Also taken for a single-site PerSitePair network: the
            // per-site phase prices its links at the intra bandwidth
            // (not the scalarized min, which would drag in an unused
            // inter-site link) and the returned ρ stays the per-link
            // model's.
            return self.best_plan_multi_site(platform, service, &params);
        }
        let mut nodes = platform.ids_by_power_desc();
        self.coarsen_nodes(&params, platform, &mut nodes, service.wapp.value());
        self.best_over_nodes(&params, platform, service, &nodes)
    }

    /// The uniform-network sweep core over an explicit power-descending
    /// node list (the whole platform, or one site's nodes for the
    /// multi-site family), under `params.bandwidth` as the single `B`.
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
        let mut pred_rates = Vec::new();
        batch::prediction_rates_into(params, &powers, &mut pred_rates);
        let ctx = ScanCtx {
            params,
            powers: &powers,
            pred_rates: &pred_rates,
            wpre: params.calibration.server.wpre.value(),
            wapp: service.wapp.value(),
            transfer: comm::service_transfer_time(params).value(),
        };

        let k_cap = self.k_cap(n);
        let workers = self.worker_count(n, n - 1);
        // Claim index i scans k = i + 1; the per-k winners come back in
        // ascending k order whatever the worker count.
        let per_k = crate::par_claim(workers, k_cap, |i| scan_k(&ctx, n, i + 1));
        let best = merge_in_k_order(per_k.into_iter().flatten());

        let cfg =
            best.ok_or_else(|| PlannerError::InvalidConfig("no feasible deployment found".into()))?;
        let degrees = waterfill_degrees_for(&ctx, cfg.agents, cfg.agents - 1 + cfg.servers);
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
    /// Both phases are shared with the mix reference's multi-site family.
    /// Falls back to the min-B scalarized sweep re-scored under the
    /// per-link model when no single site can seat two nodes.
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
        let per_site =
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
            let mut nodes = platform.ids_by_power_desc();
            self.coarsen_nodes(params, platform, &mut nodes, wapp);
            let (plan, _) = self.best_over_nodes(params, platform, service, &nodes)?;
            let rho = params.evaluate(platform, &plan, service).rho;
            return Ok((plan, rho));
        };
        let mut eval = IncrementalEval::from_plan(params, platform, &seed, service);
        self.extend_across_sites(params, platform, &mut eval, seed.root(), &[0], wapp, |e| {
            e.rho()
        });
        let rho = eval.rho();
        Ok((super::realize::realize_from_eval(&eval), rho))
    }

    /// Phase 1 of both multi-site sweeps: runs `sweep` once per site that
    /// holds at least `min_nodes` nodes, and returns the results that are
    /// `Some`, in site order.
    ///
    /// `sweep` receives the inner planner, the site's model parameters
    /// and the site's power-descending node list. The parameters price
    /// every link at the site's intra bandwidth with `site_aware` off —
    /// links inside a site are uniform — and the list is coarsened under
    /// that model with `wapp_cap` (see [`coarsen_nodes`]). Sites run in
    /// parallel, one per task; the inner planner then keeps its k-loop
    /// sequential so the two levels do not multiply thread counts.
    ///
    /// [`coarsen_nodes`]: SweepPlanner::coarsen_nodes
    pub(crate) fn per_site_sweeps<R: Send>(
        &self,
        platform: &Platform,
        params: &ModelParams,
        min_nodes: usize,
        wapp_cap: f64,
        sweep: impl Fn(&SweepPlanner, &ModelParams, &[NodeId]) -> Option<R> + Sync,
    ) -> Vec<R> {
        let net = platform.network();
        let sites = platform.sites();
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
            let mut nodes = platform.nodes_on_site(site.id);
            if nodes.len() < min_nodes {
                return None;
            }
            super::improve::by_power_desc(platform, &mut nodes);
            let site_params = ModelParams {
                bandwidth: net.bandwidth_between(site.id, site.id),
                site_aware: false,
                ..*params
            };
            // Budget under the site's own bandwidth — the model this
            // site's sweep runs in. The scalarized min-B would deflate
            // the ρ cap and cut the list below the flat winner.
            self.coarsen_nodes(&site_params, platform, &mut nodes, wapp_cap);
            sweep(&inner, &site_params, &nodes)
        });
        per_site.into_iter().flatten().collect()
    }

    /// Phase 2 of both multi-site sweeps: grows server groups behind
    /// site-local mid-agents on the site-aware engine `eval`, whose tree
    /// hangs off `root`.
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
    /// mix objective). [`max_agents`] is honored across the open and
    /// steal moves (phase 1 already respects it per site). Probes are
    /// engine deltas undone before the next probe, so the evaluator is
    /// bit-exactly unchanged on rejection.
    ///
    /// When coarsening is active for the largest site, every site's spare
    /// pool is cut at its [`saturation_budget`] under `wapp_cap`, against
    /// the **platform-wide** ρ cap (spares feed the global tree). Spares
    /// are consumed strongest-first under strict improvement, so a budget
    /// past the saturation point changes nothing; it only stops a
    /// million-node site from materializing a million-entry pool.
    /// `wapp_cap` should be the **largest** demanded service's, which
    /// maximizes the budget.
    ///
    /// [`max_agents`]: SweepPlanner::max_agents
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn extend_across_sites(
        &self,
        params: &ModelParams,
        platform: &Platform,
        eval: &mut IncrementalEval,
        root: Slot,
        candidates: &[usize],
        wapp_cap: f64,
        score: impl Fn(&IncrementalEval) -> f64,
    ) {
        debug_assert!(eval.is_site_aware());
        debug_assert_eq!(eval.pending_deltas(), 0, "grow from a committed state");
        let largest_site = platform
            .sites()
            .iter()
            .map(|s| platform.nodes_on_site(s.id).len())
            .max()
            .unwrap_or(0);
        let agent_budget = self.max_agents.unwrap_or(usize::MAX);
        let mut agent_count = eval.agents().count();
        let strongest = self.coarsen_active(largest_site).then(|| {
            platform
                .nodes()
                .iter()
                .map(|n| n.power.value())
                .fold(0.0f64, f64::max)
        });
        // Strongest-first spare nodes per site.
        let mut spare: Vec<Vec<NodeId>> = platform
            .sites()
            .iter()
            .map(|s| {
                let mut v: Vec<NodeId> = platform
                    .nodes_on_site(s.id)
                    .into_iter()
                    .filter(|&id| !eval.uses_node(id))
                    .collect();
                super::improve::by_power_desc(platform, &mut v);
                if let Some(strongest) = strongest {
                    // Budget under the site's intra bandwidth (a spare
                    // attaches to a site-local mid), against the ρ cap the
                    // platform's strongest node sets for the whole tree.
                    let site_params = ModelParams {
                        bandwidth: platform.network().bandwidth_between(s.id, s.id),
                        ..*params
                    };
                    truncate_to_saturation_budget(
                        &site_params,
                        platform,
                        &mut v,
                        Some(strongest),
                        wapp_cap,
                    );
                }
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
                        if spare[site_idx].len() >= 2 && agent_count < agent_budget {
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
                                    agent_count += 1;
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
                    let steal_worked = match spare[site_idx].last() {
                        Some(&node) if agent_count < agent_budget => {
                            let mid = eval
                                .add_server(root, node, platform.power(node))
                                .expect("spare nodes are unused");
                            // On failure promote_and_steal has already
                            // unwound everything, the root attach included.
                            super::realize::promote_and_steal(params, eval, mid).then_some(mid)
                        }
                        _ => None,
                    };
                    if let Some(mid) = steal_worked {
                        let sc = score(eval);
                        if sc > base * (1.0 + TIE_EPS) {
                            eval.commit();
                            mids[site_idx].push(mid);
                            agent_count += 1;
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
            .nodes()
            .iter()
            .map(|n| n.power.value())
            .fold(0.0f64, f64::max);
        assert!((root_power.value() - max_power).abs() < 1e-9);
    }

    #[test]
    fn multi_site_sweep_keeps_the_quality_bar() {
        use adept_platform::generator::multi_site_grid;
        use adept_platform::{MbitRate, SiteId};
        let platform = multi_site_grid(2, 15, MflopRate(400.0), MbitRate(100.0), MbitRate(5.0), 9);
        let svc = Dgemm::new(310).service();
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
        let b_light = saturation_budget(&params, cap, &powers, 1e-9);
        assert_eq!(b_light, 256);
        // A heavy service never saturates on 100 nodes: 4n + 64 keeps
        // the whole list (budget >= need, so truncation is a no-op).
        let b_heavy = saturation_budget(&params, cap, &powers, 1e12);
        assert_eq!(b_heavy, 4 * powers.len() + 64);
        assert!(b_heavy >= powers.len(), "budget must cover the need");
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

    #[test]
    fn max_agents_cap_binds_on_both_paths() {
        // 80 nodes crosses PARALLEL_THRESHOLD so the capped k-queue is
        // exercised on the threaded path too.
        let platform = heterogenized_cluster(
            "orsay",
            80,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        let svc = Dgemm::new(100).service();
        let (free_plan, free_rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
        assert!(
            free_plan.agent_count() > 1,
            "scenario must need more than one agent for the cap to bind"
        );
        for planner in [
            SweepPlanner {
                max_agents: Some(1),
                ..SweepPlanner::sequential()
            },
            SweepPlanner {
                max_agents: Some(1),
                threads: Some(2),
                ..SweepPlanner::default()
            },
        ] {
            let (plan, rho) = planner.best_plan(&platform, &svc).unwrap();
            assert_eq!(plan.agent_count(), 1, "the cap must bind");
            assert!(
                rho <= free_rho * (1.0 + 1e-12),
                "a capped family cannot beat the free sweep"
            );
        }
        // The cap must also hold across the multi-site phase 2, whose
        // Open/steal moves add agents outside the per-site scans.
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let grid = multi_site_grid(2, 18, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 7);
        let free = SweepPlanner::default().best_plan(&grid, &svc).unwrap().0;
        assert!(free.agent_count() > 2, "phase 2 must want extra agents");
        for cap in [1usize, 2] {
            let (plan, _) = SweepPlanner {
                max_agents: Some(cap),
                ..SweepPlanner::default()
            }
            .best_plan(&grid, &svc)
            .unwrap();
            assert!(
                plan.agent_count() <= cap,
                "cap {cap} violated: {} agents",
                plan.agent_count()
            );
        }
    }

    #[test]
    fn max_agents_beyond_the_platform_is_a_typed_error() {
        use adept_hierarchy::PlanError;
        let platform = lyon_cluster(10);
        let svc = Dgemm::new(310).service();
        // A cap of n (or more) leaves no server below it: previously an
        // empty sweep range, now a typed NotEnoughServers.
        for cap in [10usize, 11] {
            for planner in [
                SweepPlanner {
                    max_agents: Some(cap),
                    ..SweepPlanner::sequential()
                },
                SweepPlanner {
                    max_agents: Some(cap),
                    threads: Some(2),
                    ..SweepPlanner::default()
                },
            ] {
                assert!(
                    matches!(
                        planner.best_plan(&platform, &svc),
                        Err(PlannerError::Plan(PlanError::NotEnoughServers {
                            needed: 1,
                            ..
                        }))
                    ),
                    "cap {cap} must be NotEnoughServers"
                );
            }
        }
        // A zero cap is a configuration error (the root is an agent).
        assert!(matches!(
            SweepPlanner {
                max_agents: Some(0),
                ..SweepPlanner::default()
            }
            .best_plan(&platform, &svc),
            Err(PlannerError::InvalidConfig(_))
        ));
        // The mix-aware reference validates the same way.
        use adept_workload::ServiceMix;
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(450).service(), 1.0),
        ]);
        assert!(matches!(
            SweepPlanner {
                max_agents: Some(10),
                ..SweepPlanner::default()
            }
            .best_mix_plan(&platform, &mix, crate::planner::MixObjective::WeightedMin),
            Err(PlannerError::Plan(PlanError::NotEnoughServers { .. }))
        ));
    }
}
