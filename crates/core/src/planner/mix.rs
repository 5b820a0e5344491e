//! Multi-service deployment planning — one growth loop for a whole
//! [`ServiceMix`], on the batched incremental evaluator.
//!
//! The pre-batched way to plan a mix was to run Algorithm 1 once per
//! service (or once on the demand-weighted mean service) and then carve
//! the resulting tree's servers up with
//! [`partition_servers`](crate::model::mix::partition_servers). That
//! re-pays the greedy loop per service and optimizes the wrong objective:
//! each single-service run grows toward *its* sched/service crossing, not
//! the mix's. [`MixPlanner`] instead runs **one** growth/rebalance loop
//! in which every step chooses both *where* a node attaches (the argmax
//! scheduling-power agent, as in Algorithm 1) and *which service* it
//! hosts (the assignment that most improves the mix objective), probing
//! through one shared [`IncrementalEval`] whose per-service Eq. 15 sums
//! update in the same O(log n) delta.
//!
//! The per-step service choice is **analytic**: the scheduling effect of
//! one more child is probed with a single `assign_child_slot`/undo pair
//! (O(log n), service-independent) and each candidate service's new rate
//! comes from [`service_rate_with_extra_at`](crate::model::IncrementalEval::service_rate_with_extra_at)
//! in O(1) —
//! bit-identical to applying the delta — so planning an S-service mix
//! costs about one single-service heuristic run plus O(S²) scalar work
//! per step, not S runs (the `mix_scaling` bench group holds a 4-service
//! mix at n = 400 under the cost of two independent single-service
//! plans).
//!
//! Two objectives are supported:
//!
//! * [`MixObjective::WeightedMin`] (default) — maximize the completed-mix
//!   rate `min(ρ_sched, min_j ρ_service_j / f_j)`, the rate the
//!   deployment sustains when requests arrive in the mix's shares;
//! * [`MixObjective::WeightedSum`] — maximize `Σ_j f_j · min(ρ_sched,
//!   ρ_service_j)`, the share-weighted sum of each service's standalone
//!   throughput (no cross-service rate coupling; the "independent
//!   tenants" view).
//!
//! Growth stops when the per-service [`MixDemand`] is met (the
//! least-resources rule, per service), when nodes run out, or when
//! neither attachment nor a `shift_nodes`-style conversion improves the
//! objective.
//!
//! This loop is the only implementation of Algorithm 1's growth:
//! [`HeuristicPlanner`] runs it on a one-service mix.

// audit: allow-file(unwrap, "mix planner invariants documented in each expect; the
// mix parity tests exercise the build")
use super::heuristic::HeuristicPlanner;
use super::realize::{promote_and_steal, realize_from_eval, AttachHeap};
use super::{resolve_params, PlannerError, EPS};
use crate::model::mix::{MixReport, ServerAssignment};
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Slot};
use adept_platform::{MflopRate, NodeRanking, Platform, SiteId};
use adept_workload::{MixDemand, ServiceMix};

/// What a [`MixPlanner`] maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixObjective {
    /// The completed-mix rate `min(ρ_sched, min_j ρ_service_j / f_j)` —
    /// requests arrive interleaved in the mix's shares, so the service
    /// with the least share-normalized capacity caps everyone (weighted
    /// max-min fairness).
    #[default]
    WeightedMin,
    /// The share-weighted sum `Σ_j f_j · min(ρ_sched, ρ_service_j)` of
    /// standalone per-service throughputs — total useful work when the
    /// services' request streams are independent.
    WeightedSum,
}

impl MixObjective {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MixObjective::WeightedMin => "weighted-min",
            MixObjective::WeightedSum => "weighted-sum",
        }
    }
}

/// A planned multi-service deployment: the shared hierarchy, the
/// server→service partition, and its evaluation.
#[derive(Debug, Clone)]
pub struct MixPlan {
    /// The shared agent/server hierarchy.
    pub plan: DeploymentPlan,
    /// Which service each server hosts.
    pub assignment: ServerAssignment,
    /// Model evaluation of the result.
    pub report: MixReport,
    /// Final value of the planner's objective.
    pub objective_value: f64,
}

/// Single-loop multi-service planner over the batched incremental
/// evaluator. See the module docs for the algorithm.
///
/// Besides serving plans directly, this heuristic is the **warm
/// incumbent** of the mix sweep reference: [`SweepPlanner::best_mix_plan`]
/// seeds its branch-and-bound with this planner's (re-scored) answer
/// and falls back to it when the whole walk prunes below the seed — so
/// the reference is, by construction, never worse than the heuristic.
///
/// [`SweepPlanner::best_mix_plan`]: super::SweepPlanner::best_mix_plan
#[derive(Debug, Clone, Copy)]
pub struct MixPlanner {
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
    /// The objective to maximize.
    pub objective: MixObjective,
    /// Enable the `shift_nodes` server→agent conversion when attachment
    /// stalls (as in Algorithm 1).
    pub allow_conversion: bool,
}

impl Default for MixPlanner {
    fn default() -> Self {
        Self {
            params: None,
            objective: MixObjective::default(),
            allow_conversion: true,
        }
    }
}

impl MixPlanner {
    /// A planner maximizing the given objective.
    pub fn with_objective(objective: MixObjective) -> Self {
        Self {
            objective,
            ..Self::default()
        }
    }

    /// Plans the highest-objective deployment the platform allows
    /// (unbounded demand for every service).
    ///
    /// # Errors
    /// See [`plan_mix`](MixPlanner::plan_mix).
    pub fn plan_mix_unbounded(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
    ) -> Result<MixPlan, PlannerError> {
        self.plan_mix(platform, mix, &MixDemand::unbounded(mix.len()))
    }

    /// Plans a deployment for the mix under a per-service demand vector:
    /// one growth/rebalance loop choosing attachment point and hosted
    /// service jointly, stopping at the demand (least resources) or at
    /// the objective's peak.
    ///
    /// # Errors
    /// [`PlannerError::NotEnoughNodes`] when the platform cannot seat the
    /// root plus one server per demanded service;
    /// [`PlannerError::InvalidConfig`] when the demand vector's length
    /// does not match the mix.
    pub fn plan_mix(
        &self,
        platform: &Platform,
        mix: &ServiceMix,
        demand: &MixDemand,
    ) -> Result<MixPlan, PlannerError> {
        if demand.len() != mix.len() {
            return Err(PlannerError::InvalidConfig(format!(
                "demand vector covers {} services, mix has {}",
                demand.len(),
                mix.len()
            )));
        }
        // Both objectives are share-driven: a zero-share service receives
        // no requests, so no demand on it can ever be served (or grown
        // toward) here — reject the contradiction instead of silently
        // pinning the service at zero capacity. Demand-driven revision of
        // an existing deployment is `OnlinePlanner::replan_mix`'s job.
        if let Some(j) = (0..mix.len()).find(|&j| mix.share(j) == 0.0 && demand.rate(j) > 0.0) {
            return Err(PlannerError::InvalidConfig(format!(
                "service {j} has zero request share but positive demand ({} req/s)",
                demand.rate(j)
            )));
        }
        // A service is a growth candidate when requests can reach it.
        let candidates: Vec<usize> = (0..mix.len()).filter(|&j| mix.share(j) > 0.0).collect();
        let needed = 1 + candidates.len().max(1);
        let n = platform.node_count();
        if n < needed {
            return Err(PlannerError::NotEnoughNodes {
                needed,
                available: n,
            });
        }
        let params = resolve_params(self.params, platform);
        let eval = self.grow(&params, platform, mix, demand, &candidates);
        let mut current = objective_score(self.objective, &eval);

        let plan = realize_from_eval(&eval);
        let mut assignment = ServerAssignment::default();
        for s in eval.servers() {
            assignment
                .service_of
                .insert(eval.node(s), eval.service_of(s));
        }
        let mut report = eval.mix_report();

        // Final refinement: re-deal the chosen server set with the
        // hindsight waterfill (`partition_servers`, which sees the whole
        // set at once). The greedy's online dealing can land a boundary
        // server one service off; keep whichever assignment scores
        // higher without giving up demand satisfaction.
        if let Ok(redealt) = crate::model::mix::partition_servers(&params, platform, &plan, mix) {
            if redealt != assignment {
                let realt = IncrementalEval::from_plan_mix(&params, platform, &plan, mix, &redealt)
                    .expect("waterfill covers every server");
                let sc = objective_score(self.objective, &realt);
                let met_now = demand_met(&eval, demand);
                let met_alt = demand_met(&realt, demand);
                if (met_alt && !met_now) || (met_alt == met_now && sc > current * (1.0 + EPS)) {
                    assignment = redealt;
                    report = realt.mix_report();
                    current = sc;
                }
            }
        }

        Ok(MixPlan {
            plan,
            assignment,
            report,
            objective_value: current,
        })
    }

    /// Algorithm 1's greedy growth under this planner's objective — the
    /// seed, the attach loop and the `shift_nodes` conversions — returning
    /// the committed engine for the caller to realize. Needs
    /// `1 + candidates.len()` nodes. [`HeuristicPlanner`] runs it on a
    /// one-service mix.
    pub(crate) fn grow(
        &self,
        params: &ModelParams,
        platform: &Platform,
        mix: &ServiceMix,
        demand: &MixDemand,
        candidates: &[usize],
    ) -> IncrementalEval {
        // Strongest first, sorted only as deep as the loop reads it;
        // `next` is the rank of the next node to offer.
        let mut ranking = HeuristicPlanner::ranked_nodes(params, platform);

        // Seed: the strongest node roots the tree; each demanded service
        // receives one seed server (strongest remaining nodes) — the mix
        // counterpart of Algorithm 1's steps 3–5 minimal deployment.
        let root = ranking.get(0).expect("the caller checked the node count");
        let mut eval = IncrementalEval::from_agents_mix(params, platform, &[root], mix);
        let mut server_order: Vec<Slot> = Vec::new();
        let mut next = 1usize;
        for &j in candidates {
            let node = ranking
                .get(next)
                .expect("the caller checked the node count");
            let slot = eval
                .add_server_for(Slot(0), node, platform.power(node), j)
                .expect("seed nodes are unused");
            server_order.push(slot);
            next += 1;
        }
        eval.commit();

        // Greedy growth (Algorithm 1 steps 9–39, mix objective).
        let mut heap = AttachHeap::new(params, &eval);
        let mut current = objective_score(self.objective, &eval);
        let mut next_victim = 0usize;

        while !demand_met(&eval, demand) {
            let Some(node) = ranking.get(next) else {
                break;
            };
            let power = platform.power(node);
            let site = platform.site_of(node);

            let agent = heap.best_for(params, &eval, site);
            let service_min = eval.rho_service();
            let choice =
                best_attach_service(&mut eval, agent, power, site, self.objective, candidates);
            if accept_growth(self.objective, &choice, current, service_min) {
                let slot = eval
                    .add_server_for(agent, node, power, choice.service)
                    .expect("ranked nodes past the cursor are unused");
                debug_assert_eq!(
                    choice.score.to_bits(),
                    objective_score(self.objective, &eval).to_bits(),
                    "the analytic probe must equal the applied delta"
                );
                eval.commit();
                heap.update(params, &eval, agent);
                server_order.push(slot);
                current = choice.score;
                next += 1;
                continue;
            }

            // Attachment stalled at the sched/service crossing: try the
            // shift_nodes conversion on the strongest unpromoted server.
            if self.allow_conversion && next_victim < server_order.len() {
                let victim = server_order[next_victim];
                if let Some((consumed, sc)) = try_conversion_mix(
                    params,
                    platform,
                    &mut eval,
                    demand,
                    &mut ranking,
                    next,
                    current,
                    &mut heap,
                    victim,
                    &mut server_order,
                    self.objective,
                    candidates,
                ) {
                    next_victim += 1;
                    current = sc;
                    next += consumed;
                    continue;
                }
            }
            break;
        }

        eval
    }
}

/// The planner's objective as a function of the evaluator state.
pub(crate) fn objective_score(objective: MixObjective, eval: &IncrementalEval) -> f64 {
    match objective {
        MixObjective::WeightedMin => eval.rho(),
        MixObjective::WeightedSum => {
            let sched = eval.rho_sched();
            (0..eval.service_count())
                // A zero-share service contributes nothing by definition;
                // skipping it (instead of multiplying by 0) keeps an
                // unbounded per-service rate from turning the whole sum
                // into `inf * 0.0 = NaN`, which every later plateau
                // comparison would silently absorb as "not better".
                .filter(|&j| eval.share(j) > 0.0)
                .map(|j| eval.share(j) * sched.min(eval.rho_service_of(j)))
                .sum()
        }
    }
}

/// `min_{divisors[k] > 0} ρ_service_k / divisors[k]` — the service-phase
/// minimum under arbitrary per-service divisors (zero divisor = that
/// component never binds). With the mix shares this is
/// [`rho_service`](IncrementalEval::rho_service)'s weighted min; with
/// per-service demand rates it is the online replanner's service margin.
/// `∞` when every divisor is zero.
pub(crate) fn normalized_service_min(eval: &IncrementalEval, divisors: &[f64]) -> f64 {
    let mut m = f64::INFINITY;
    for (k, &d) in divisors.iter().enumerate() {
        if d > 0.0 {
            m = m.min(eval.rho_service_of(k) / d);
        }
    }
    m
}

/// [`normalized_service_min`] combined with the scheduling component
/// `ρ_sched / sched_divisor` (skipped when the divisor is zero). With
/// the mix shares and a unit scheduling divisor this equals
/// [`rho`](IncrementalEval::rho) bit-for-bit; with demand rates and
/// their sum it is the satisfaction margin (≥ 1 ⇔ demand met on every
/// component).
pub(crate) fn normalized_min(eval: &IncrementalEval, divisors: &[f64], sched_divisor: f64) -> f64 {
    let sched = if sched_divisor > 0.0 {
        eval.rho_sched() / sched_divisor
    } else {
        f64::INFINITY
    };
    sched.min(normalized_service_min(eval, divisors))
}

/// True when the evaluator state satisfies the per-service demand.
pub(crate) fn demand_met(eval: &IncrementalEval, demand: &MixDemand) -> bool {
    let rates: Vec<f64> = (0..eval.service_count())
        .map(|j| eval.rho_service_of(j))
        .collect();
    demand.satisfied_by(eval.rho_sched(), &rates)
}

/// The winning candidate of an attach probe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttachChoice {
    /// Service the new server should host.
    pub service: usize,
    /// Objective value after the attach.
    pub score: f64,
    /// The probe's tie-break field, minimized on score ties. Under the
    /// min objective: the share-normalized rate of `service` *before*
    /// the attach (how starved it was; `∞` for a zero-share service) —
    /// this is also what [`accept_growth`]'s plateau rule reads. Under
    /// the sum objective: the *negated* share-weighted marginal gain of
    /// the attach, so ties resolve to the candidate whose server buys
    /// the most objective.
    pub starved: f64,
    /// Scheduling throughput after the attach.
    pub sched_after: f64,
}

/// Scheduling throughput after attaching one server of power `power` on
/// `site` under `agent`: the parent's degree-and-link bump (one tree
/// probe + undo) and the new server's own prediction cycle — bit-identical
/// to applying the attach and reading [`rho_sched`](IncrementalEval::rho_sched)
///. On a site-aware evaluator the server's
/// prediction cycle prices the server↔parent link.
fn sched_after_attach(
    eval: &mut IncrementalEval,
    agent: Slot,
    power: MflopRate,
    site: SiteId,
) -> f64 {
    eval.assign_child_slot_at(agent, site)
        .expect("attach targets are agents");
    let sched_tree = eval.rho_sched();
    eval.undo();
    sched_tree.min(1.0 / eval.server_cycle_at(power, site, agent))
}

/// The analytic min-objective attach probe under arbitrary per-service
/// divisors (see [`normalized_min`]): one scheduling probe shared by
/// every candidate service, then O(1) per candidate via
/// [`service_rate_with_extra_at`](IncrementalEval::service_rate_with_extra_at).
/// Scores are bit-identical to applying the candidate delta and reading
/// `normalized_min`. Selection maximizes the score; score ties (within
/// [`EPS`] relative) resolve to the most starved candidate, then the
/// lower index — on a plateau every joint-minimum service ties, and the
/// starved one is the step that makes progress.
#[allow(clippy::too_many_arguments)] // an attach probe carries the whole demand context
pub(crate) fn best_attach_normalized(
    eval: &mut IncrementalEval,
    agent: Slot,
    power: MflopRate,
    site: SiteId,
    divisors: &[f64],
    sched_divisor: f64,
    candidates: &[usize],
) -> AttachChoice {
    let sched_raw = sched_after_attach(eval, agent, power, site);
    let sched_after = if sched_divisor > 0.0 {
        sched_raw / sched_divisor
    } else {
        f64::INFINITY
    };
    select_best(candidates, sched_after, |cand, starved_of| {
        let extra = eval.service_rate_with_extra_at(cand, power, site);
        let mut sc = sched_after;
        for (k, &d) in divisors.iter().enumerate() {
            if d > 0.0 {
                let rate = if k == cand {
                    extra
                } else {
                    eval.rho_service_of(k)
                };
                sc = sc.min(rate / d);
            }
        }
        *starved_of = if divisors[cand] > 0.0 {
            eval.rho_service_of(cand) / divisors[cand]
        } else {
            f64::INFINITY
        };
        sc
    })
}

/// The candidate-selection loop shared by every attach probe: scores
/// each candidate through `score_of` (which also reports how starved
/// the candidate was before the attach), maximizes the score, and
/// resolves score ties (within [`EPS`] relative) to the most starved
/// candidate, then the lower index.
fn select_best(
    candidates: &[usize],
    sched_after: f64,
    mut score_of: impl FnMut(usize, &mut f64) -> f64,
) -> AttachChoice {
    debug_assert!(!candidates.is_empty(), "at least one demanded service");
    let mut best: Option<AttachChoice> = None;
    for &cand in candidates {
        let mut starved = f64::INFINITY;
        let sc = score_of(cand, &mut starved);
        let wins = match &best {
            None => true,
            Some(b) => {
                sc > b.score * (1.0 + EPS) || (sc >= b.score * (1.0 - EPS) && starved < b.starved)
            }
        };
        if wins {
            best = Some(AttachChoice {
                service: cand,
                score: sc,
                starved,
                sched_after,
            });
        }
    }
    best.expect("candidates are non-empty")
}

/// Best service for attaching a server of power `power` (living on
/// `site`) under `agent` per the planner's objective, probed analytically
/// (no committed deltas). Scores are bit-identical to applying each
/// candidate delta and reading [`objective_score`]; ties resolve as in
/// [`best_attach_normalized`].
pub(crate) fn best_attach_service(
    eval: &mut IncrementalEval,
    agent: Slot,
    power: MflopRate,
    site: SiteId,
    objective: MixObjective,
    candidates: &[usize],
) -> AttachChoice {
    let s = eval.service_count();
    match objective {
        MixObjective::WeightedMin => {
            let shares: Vec<f64> = (0..s).map(|k| eval.share(k)).collect();
            best_attach_normalized(eval, agent, power, site, &shares, 1.0, candidates)
        }
        MixObjective::WeightedSum => {
            let sched_after = sched_after_attach(eval, agent, power, site);
            select_best(candidates, sched_after, |cand, starved_of| {
                let extra = eval.service_rate_with_extra_at(cand, power, site);
                // Sum-aware tie-break: near a plateau every candidate's
                // score agrees to within EPS, so rank ties by the
                // share-weighted marginal gain of the attach itself —
                // the objective's own derivative — rather than the
                // min-objective's starvation notion (which would steer
                // a *sum* objective toward fairness, handing servers to
                // low-share services that contribute the least).
                // `select_best` minimizes the tie field, hence negated.
                *starved_of = if eval.share(cand) > 0.0 {
                    -(eval.share(cand)
                        * (sched_after.min(extra) - sched_after.min(eval.rho_service_of(cand))))
                } else {
                    f64::INFINITY
                };
                (0..s)
                    .filter(|&k| eval.share(k) > 0.0) // see objective_score
                    .map(|k| {
                        let rate = if k == cand {
                            extra
                        } else {
                            eval.rho_service_of(k)
                        };
                        eval.share(k) * sched_after.min(rate)
                    })
                    .sum()
            })
        }
    }
}

/// Growth acceptance rule. A strict objective improvement always
/// commits. Under [`MixObjective::WeightedMin`] a **plateau step** also
/// commits: when several services are joint minima, a server handed to
/// one of them leaves the min at the others — no strict gain — yet the
/// min can only ever rise after *each* joint minimum receives one. Such
/// a step is accepted when the objective did not drop, the chosen
/// service sat at the service-phase minimum, and scheduling stays
/// strictly above that minimum (the add is on the useful side of the
/// sched/service crossing). Each plateau step strictly improves the
/// leximin of the per-service rates and shrinks the joint-minimum set,
/// so at most S−1 of them precede a strict improvement — termination
/// and the least-resources rule are preserved.
pub(crate) fn accept_growth(
    objective: MixObjective,
    choice: &AttachChoice,
    current: f64,
    service_min: f64,
) -> bool {
    if choice.score > current * (1.0 + EPS) {
        return true;
    }
    objective == MixObjective::WeightedMin
        && choice.score >= current * (1.0 - EPS)
        && choice.starved <= service_min * (1.0 + EPS)
        && choice.sched_after > service_min * (1.0 + EPS)
}

/// The `shift_nodes` conversion under the mix objective, as pure deltas:
/// promote `victim` (the strongest unpromoted server), steal-rebalance
/// children toward it while that lifts the binding agent's scheduling
/// power, then grow servers from `ranking`, starting at rank `next` —
/// service chosen per node — while the objective improves. Commits and
/// returns `(consumed, score)` when the batch strictly beats `current`;
/// otherwise unwinds to the input state bit-exactly and returns `None`.
#[allow(clippy::too_many_arguments)] // a probe needs the whole growth-loop state
fn try_conversion_mix(
    params: &ModelParams,
    platform: &Platform,
    eval: &mut IncrementalEval,
    demand: &MixDemand,
    ranking: &mut NodeRanking,
    next: usize,
    current: f64,
    heap: &mut AttachHeap,
    victim: Slot,
    server_order: &mut Vec<Slot>,
    objective: MixObjective,
    candidates: &[usize],
) -> Option<(usize, f64)> {
    debug_assert_eq!(eval.pending_deltas(), 0, "probe from a committed state");
    if eval.server_count() < 2 {
        return None;
    }
    if !promote_and_steal(params, eval, victim) {
        return None;
    }

    // Grow under the rebalanced hierarchy while the objective improves,
    // all still on the delta stack.
    heap.rebuild(params, eval);
    let mut score = objective_score(objective, eval);
    let mut consumed = 0usize;
    while let Some(more) = ranking.get(next + consumed) {
        if demand_met(eval, demand) {
            break;
        }
        let power = platform.power(more);
        let site = platform.site_of(more);
        let agent = heap.best_for(params, eval, site);
        let service_min = eval.rho_service();
        let choice = best_attach_service(eval, agent, power, site, objective, candidates);
        if accept_growth(objective, &choice, score, service_min) {
            let slot = eval
                .add_server_for(agent, more, power, choice.service)
                .expect("ranked nodes past the cursor are unused");
            score = choice.score;
            consumed += 1;
            heap.update(params, eval, agent);
            server_order.push(slot);
        } else {
            break;
        }
    }

    if score > current * (1.0 + EPS) {
        eval.commit();
        heap.rebuild(params, eval);
        Some((consumed, score))
    } else {
        eval.undo_all();
        server_order.truncate(server_order.len() - consumed);
        heap.rebuild(params, eval);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mix::{evaluate_mix, partition_servers};
    use crate::planner::{HeuristicPlanner, Planner};
    use adept_hierarchy::validate::{validate_assignment, validate_relaxed};
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe};
    use adept_workload::{ClientDemand, Dgemm, ServiceSpec};

    fn four_mix() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(100).service(), 4.0),
            (Dgemm::new(220).service(), 2.0),
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(450).service(), 1.0),
        ])
    }

    #[test]
    fn planned_mix_is_valid_and_report_matches_reference() {
        let platform = lyon_cluster(60);
        let mix = four_mix();
        let params = ModelParams::from_platform(&platform);
        let got = MixPlanner::default()
            .plan_mix_unbounded(&platform, &mix)
            .unwrap();
        assert!(validate_relaxed(&got.plan).is_empty());
        assert!(validate_assignment(&got.plan, &got.assignment.service_of, mix.len()).is_empty());
        let reference = evaluate_mix(&params, &platform, &got.plan, &mix, &got.assignment).unwrap();
        assert!(
            (got.report.rho - reference.rho).abs() <= 1e-9 * reference.rho.max(1.0),
            "planner-reported {} vs re-evaluated {}",
            got.report.rho,
            reference.rho
        );
        assert!(
            (got.objective_value - got.report.rho).abs() <= 1e-9 * got.report.rho.max(1.0),
            "weighted-min objective is the mix rate"
        );
    }

    #[test]
    fn joint_planning_beats_mean_service_plus_partition() {
        // The replaced pipeline: Algorithm 1 on the demand-weighted mean
        // service, then partition_servers. The joint loop must match or
        // beat it on the mix rate.
        for (n, seed) in [(40usize, 7u64), (80, 21)] {
            let platform = heterogenized_cluster(
                "orsay",
                n,
                MflopRate(400.0),
                BackgroundLoad::default(),
                CapacityProbe::exact(),
                seed,
            );
            let mix = four_mix();
            let params = ModelParams::from_platform(&platform);
            let joint = MixPlanner::default()
                .plan_mix_unbounded(&platform, &mix)
                .unwrap();
            let mean = ServiceSpec::new("mean", adept_platform::Mflop(mix.mean_wapp()));
            let tree = HeuristicPlanner::paper()
                .plan(&platform, &mean, ClientDemand::Unbounded)
                .unwrap();
            let part = partition_servers(&params, &platform, &tree, &mix).unwrap();
            let old = evaluate_mix(&params, &platform, &tree, &mix, &part).unwrap();
            assert!(
                joint.report.rho >= old.rho * (1.0 - 1e-9),
                "n={n}: joint {} < mean+partition {}",
                joint.report.rho,
                old.rho
            );
        }
    }

    #[test]
    fn single_service_mix_reduces_to_the_heuristic() {
        // On one service both planners walk the same greedy loop.
        let platform = lyon_cluster(45);
        for size in [10u32, 310, 1000] {
            let svc = Dgemm::new(size).service();
            let mix = ServiceMix::single(svc.clone());
            let got = MixPlanner::default()
                .plan_mix_unbounded(&platform, &mix)
                .unwrap();
            let single = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let params = ModelParams::from_platform(&platform);
            let rho_single = params.evaluate(&platform, &single, &svc).rho;
            assert!(
                (got.report.rho - rho_single).abs() <= 1e-9 * rho_single.max(1.0),
                "dgemm-{size}: mix {} vs heuristic {}",
                got.report.rho,
                rho_single
            );
        }
    }

    #[test]
    fn demand_caps_growth_per_service() {
        let platform = lyon_cluster(60);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(1000).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ]);
        let unbounded = MixPlanner::default()
            .plan_mix_unbounded(&platform, &mix)
            .unwrap();
        let capped = MixPlanner::default()
            .plan_mix(&platform, &mix, &MixDemand::targets(vec![0.5, 0.5]))
            .unwrap();
        assert!(
            capped.plan.len() < unbounded.plan.len(),
            "a modest demand must use fewer nodes ({} vs {})",
            capped.plan.len(),
            unbounded.plan.len()
        );
        assert!(capped.report.rho_service[0] >= 0.5);
        assert!(capped.report.rho_service[1] >= 0.5);
        assert!(capped.report.rho_sched >= 1.0);
    }

    #[test]
    fn weighted_sum_tie_break_ranks_by_marginal_gain_not_starvation() {
        // A scheduling-capped plateau: the root agent is so weak that
        // sched sits far below every service rate, so attaching the
        // spare server to either service moves the weighted sum by
        // exactly zero — an exact score tie. The min-objective's
        // starvation tie-break would hand the server to the high-share
        // service (lower share-normalized rate); the sum-aware rule
        // sees both marginals at zero and keeps the first candidate.
        use adept_platform::Network;
        let mut b = Platform::builder(Network::Homogeneous {
            bandwidth: adept_platform::MbitRate(100.0),
            latency: adept_platform::Seconds::ZERO,
        });
        let site = b.add_site("s");
        let weak_agent = b.add_node("agent", MflopRate(1.0), site).unwrap();
        let s0 = b.add_node("srv0", MflopRate(1000.0), site).unwrap();
        let s1 = b.add_node("srv1", MflopRate(1000.0), site).unwrap();
        let _spare = b.add_node("spare", MflopRate(1000.0), site).unwrap();
        let platform = b.build().unwrap();

        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(310).service(), 4.0),
        ]);
        let mut plan = DeploymentPlan::with_root(weak_agent);
        let root = Slot(0);
        plan.add_server(root, s0).unwrap();
        plan.add_server(root, s1).unwrap();
        let assignment = ServerAssignment {
            service_of: [(s0, 0), (s1, 1)].into_iter().collect(),
        };
        let params = ModelParams::from_platform(&platform);
        let mut eval =
            IncrementalEval::from_plan_mix(&params, &platform, &plan, &mix, &assignment).unwrap();
        assert!(
            eval.rho_sched() < eval.rho_service_of(0).min(eval.rho_service_of(1)),
            "the plateau premise: scheduling must be the binding stage"
        );
        let choice = best_attach_service(
            &mut eval,
            root,
            MflopRate(1000.0),
            site,
            MixObjective::WeightedSum,
            &[0, 1],
        );
        assert_eq!(
            choice.service, 0,
            "zero marginal on both sides resolves to the first candidate, \
             not the more starved high-share service"
        );
        assert_eq!(choice.starved, 0.0, "the negated marginal gain is zero");
    }

    #[test]
    fn weighted_sum_never_below_weighted_min_value() {
        // Any deployment's weighted sum dominates its weighted min, so
        // the sum-optimized plan scores at least the min-optimized plan.
        let platform = lyon_cluster(40);
        let mix = four_mix();
        let min_plan = MixPlanner::default()
            .plan_mix_unbounded(&platform, &mix)
            .unwrap();
        let sum_plan = MixPlanner::with_objective(MixObjective::WeightedSum)
            .plan_mix_unbounded(&platform, &mix)
            .unwrap();
        assert!(sum_plan.objective_value >= min_plan.report.rho - 1e-9);
        assert_eq!(MixObjective::WeightedSum.label(), "weighted-sum");
    }

    #[test]
    fn zero_share_service_consumes_no_nodes() {
        let platform = lyon_cluster(30);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 0.0),
        ]);
        let got = MixPlanner::default()
            .plan_mix(
                &platform,
                &mix,
                &MixDemand::targets(vec![f64::INFINITY, 0.0]),
            )
            .unwrap();
        assert_eq!(got.assignment.count_for(1), 0);
        assert_ne!(got.report.binding_service, Some(1));
        // Demanding a zero-share service is a contradiction, not a
        // silently unmet target.
        assert!(matches!(
            MixPlanner::default().plan_mix(&platform, &mix, &MixDemand::targets(vec![1.0, 5.0])),
            Err(PlannerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn degenerate_demand_never_poisons_either_objective() {
        // Regression: an unbounded (infinite) target riding with a
        // zero-share service must flow through both objectives without
        // producing a NaN anywhere — the weighted-sum previously summed
        // `share * min(sched, rate)` over every service, one
        // `inf * 0.0` away from poisoning all plateau comparisons.
        let platform = lyon_cluster(30);
        let mix = ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 0.0),
        ]);
        let demand = MixDemand::targets(vec![f64::INFINITY, 0.0]);
        for objective in [MixObjective::WeightedMin, MixObjective::WeightedSum] {
            let got = MixPlanner::with_objective(objective)
                .plan_mix(&platform, &mix, &demand)
                .unwrap();
            assert!(
                got.objective_value.is_finite(),
                "{objective:?}: objective {} must be finite",
                got.objective_value
            );
            assert!(got.report.rho.is_finite());
            assert!(got.report.rho_service.iter().all(|r| r.is_finite()));
            assert!(got.assignment.count_for(1) == 0, "idle service stays empty");
        }
        // The validating constructor rejects real poison at the door.
        assert!(MixDemand::try_targets(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn too_small_platform_is_an_error() {
        let platform = lyon_cluster(3);
        let mix = four_mix();
        assert!(matches!(
            MixPlanner::default().plan_mix_unbounded(&platform, &mix),
            Err(PlannerError::NotEnoughNodes { needed: 5, .. })
        ));
        let demand = MixDemand::targets(vec![1.0]);
        assert!(matches!(
            MixPlanner::default().plan_mix(&platform, &mix, &demand),
            Err(PlannerError::InvalidConfig(_))
        ));
    }
}
