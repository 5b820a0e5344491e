//! The paper's deployment heuristic — Section 4, Algorithm 1.
//!
//! The heuristic builds the hierarchy greedily from nodes sorted by
//! scheduling power:
//!
//! 1. **Sort** (steps 1–2): every node is scored as an agent with
//!    `n_nodes − 1` children (`calc_sch_pow`) and nodes are ranked
//!    descending (`sort_nodes`). The head of the ranking becomes the
//!    root. One pass over the catalog scores each node and builds the
//!    ranking's entry for it. The ranking sorts lazily, only as deep as
//!    growth reads it ([`NodeRanking`]), in exactly the full sort's order.
//! 2. **Degenerate case** (steps 3–7): if the root's scheduling power with
//!    a *single* child is already below `min(service power of one server,
//!    client demand)` — `min_ser_cv` — the deployment is one agent and one
//!    server: "if more servers are added to the node, scheduling power
//!    will decrease".
//! 3. **Greedy growth** (steps 9–39): repeatedly take the next node from
//!    the sorted list and try two actions, committing whichever yields the
//!    higher modelled throughput:
//!    * **attach** it as a server under the agent that keeps the highest
//!      post-attachment scheduling power (`supported_children` reasoning —
//!      the placement that does the least harm to Eq. 14);
//!    * **convert** (`shift_nodes`, steps 16–17): promote the strongest
//!      current server to an agent and grow children under it while that
//!      improves throughput (the inner while of steps 18–24).
//!
//!    Growth stops when nodes run out, the client demand is met, or
//!    throughput starts decreasing (step 10's `diff` test).
//!
//! ## Fidelity notes
//!
//! The published pseudo-code leaves several points ambiguous (its loop
//! variables `diff`/`throughput_diff` are both defined as "minimum
//! throughput among ρsched, ρservice and client demand", and the outer
//! loop's direction test cannot be taken literally). This implementation
//! resolves them as follows, keeping the paper's documented *behaviour*
//! (Table 4 and Section 5.3 shapes):
//!
//! * the growth loop is [`MixPlanner`]'s, run on a one-service mix under
//!   [`MixObjective::WeightedSum`]: with a single service of share 1
//!   both objectives score exactly the Eq. 16 ρ, and weighted-sum
//!   commits strict improvements only (more than 1e-9 relative) — this
//!   realizes both "throughput of the hierarchy starts decreasing" and
//!   the least-resources preference;
//! * steps 3–7 need no branch of their own: when the root's scheduling
//!   power at one child binds the seed pair, every attach lowers it
//!   further and a conversion needs two servers, so the loop stops at
//!   the pair;
//! * conversion is evaluated with lookahead (convert **and** fill) before
//!   being compared against plain attachment, mirroring the inner while
//!   loop of steps 18–24;
//! * `shift_nodes`'s victim is the most powerful current server, which is
//!   the first server the sorted order produced.
//!
//! With `rebalance = true` the greedy result is post-processed by the
//! iterative bottleneck-removal pass of the authors' earlier work \[7\]
//! (see [`improve`]) — an extension, off by default.
//!
//! ## Probe cost
//!
//! The deployment lives inside an
//! [`IncrementalEval`](crate::model::IncrementalEval), which computes
//! Eq. 16 exactly, and is realized into a tree once, at the end. An
//! attach probe is analytic: one O(log n) child-slot delta and undo
//! prices the scheduling effect, and the new Eq. 15 rate is read in
//! O(1), bit-identical to applying the attach. A conversion is a batch
//! of deltas, committed or unwound as a whole. This module's tests keep
//! a growth loop that clones the plan and re-runs Eq. 13–16 from scratch
//! per probe, O(n), as the reference: the planner must commit the same
//! moves, so both plans' ρ agree to 1e-9 relative.
//!
//! ## Heterogeneous communication
//!
//! On a multi-site platform (per-site-pair network, site-aware pricing
//! on) the growth loop runs on the site-aware engine: attach targets are
//! ranked by **(power, link) jointly** — the full post-attach cycle
//! including the real agent↔candidate link — instead of power alone, the
//! attach probe prices the new server↔parent link, and `shift_nodes`
//! conversions steal concrete children so every moved link is priced at
//! its true bandwidth. The `hetero_scaling` bench and
//! `site_aware_heuristic_beats_min_b_scalarization_across_sites` pin the
//! quality gap over the historical min-bandwidth scalarization (force it
//! back with [`ModelParams::scalarized`] as the `params` override).

use super::mix::{MixObjective, MixPlanner};
use super::realize::realize_from_eval;
use super::{improve, resolve_params, single_demand, Planner, PlannerError};
use crate::model::{batch, ModelParams};
use adept_hierarchy::DeploymentPlan;
use adept_platform::{NodeRanking, Platform};
use adept_workload::{ClientDemand, ServiceMix, ServiceSpec};

/// The paper's heterogeneous deployment heuristic (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct HeuristicPlanner {
    /// Optional model-parameter override.
    pub params: Option<ModelParams>,
    /// Enable the `shift_nodes` server→agent conversion (paper default).
    /// Disabling it degrades the heuristic to pure star growth — the
    /// `ablation_shift` bench quantifies the difference.
    pub allow_conversion: bool,
    /// Apply the iterative bottleneck-removal pass of \[7\] afterwards
    /// (extension; not part of Algorithm 1).
    pub rebalance: bool,
}

impl Default for HeuristicPlanner {
    fn default() -> Self {
        Self {
            params: None,
            allow_conversion: true,
            rebalance: false,
        }
    }
}

impl HeuristicPlanner {
    /// Paper-faithful configuration (conversion on, no rebalance).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Algorithm 1 followed by the \[7\] improvement pass.
    pub fn with_rebalance() -> Self {
        Self {
            rebalance: true,
            ..Self::default()
        }
    }

    /// Star-growth-only ablation (no `shift_nodes`).
    pub fn without_conversion() -> Self {
        Self {
            allow_conversion: false,
            ..Self::default()
        }
    }

    /// Steps 1–2: every node ranked by `calc_sch_pow` with `n_nodes − 1`
    /// children, descending, ties to the lower node id. One pass over the
    /// catalog keys each node ([`batch::sch_pow_shared_degree`], the
    /// shared degree's terms hoisted once) as an integer
    /// ([`batch::descending_key`]) and builds the ranking's entries, with
    /// no array beside them. The ranking sorts lazily: the growth loop
    /// reads only its head (105 of 10⁶ nodes on the 4 × 250,000 grid), so
    /// it pays one selection pass and a sort of the head, and every
    /// prefix equals [`batch::sort_rate_desc_id_asc`]'s order.
    pub(crate) fn ranked_nodes(params: &ModelParams, platform: &Platform) -> NodeRanking {
        let d = platform.node_count().saturating_sub(1).max(1);
        let sch_pow = batch::sch_pow_shared_degree(params, d);
        NodeRanking::new(
            platform
                .nodes()
                .iter()
                .map(|r| (batch::descending_key(sch_pow(r.power.value())), r.id))
                .collect(),
        )
    }
}

impl Planner for HeuristicPlanner {
    fn name(&self) -> &str {
        if self.rebalance {
            "heuristic+rebalance"
        } else if self.allow_conversion {
            "heuristic"
        } else {
            "heuristic-no-conversion"
        }
    }

    fn plan(
        &self,
        platform: &Platform,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<DeploymentPlan, PlannerError> {
        let n = platform.node_count();
        if n < 2 {
            return Err(PlannerError::NotEnoughNodes {
                needed: 2,
                available: n,
            });
        }
        let mix_demand = single_demand(demand)?;
        let params = resolve_params(self.params, platform);

        // Steps 1–39 on the mix planner's loop. Weighted-sum, because with
        // one service (share 1) both objectives score exactly ρ, and only
        // weighted-sum accepts strict improvements alone — Algorithm 1's
        // rule; weighted-min's plateau step, meant for joint minima across
        // services, would accept an attach gaining less than 1e-9 here.
        let grower = MixPlanner {
            objective: MixObjective::WeightedSum,
            allow_conversion: self.allow_conversion,
            ..MixPlanner::default()
        };
        // Steps 3–7 need no branch: when they apply, scheduling binds the
        // seed pair, every attach lowers it, and a conversion needs two
        // servers — so the loop stops at the pair.
        let mix = ServiceMix::single(service.clone());
        let eval = grower.grow(&params, platform, &mix, &mix_demand, &[0]);
        let mut plan = realize_from_eval(&eval);

        // Extension: the [7] bottleneck-removal repair pass.
        if self.rebalance {
            plan = improve::rebalance(&params, platform, &plan, service, demand);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::throughput::{hier_ser_pow, sch_pow};
    use adept_hierarchy::validate::validate_relaxed;
    use adept_hierarchy::Slot;
    use adept_platform::generator::{heterogenized_cluster, lyon_cluster};
    use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate, NodeId};
    use adept_workload::Dgemm;
    use std::collections::HashSet;

    /// Relative tolerance for "strictly better" comparisons in the
    /// reference growth loop.
    const EPS: f64 = 1e-9;

    fn rho_of(platform: &Platform, plan: &DeploymentPlan, svc: &ServiceSpec) -> f64 {
        ModelParams::from_platform(platform)
            .evaluate(platform, plan, svc)
            .rho
    }

    // ---- The clone-and-full-evaluate reference ----

    /// Steps 1–2 as a full sort of every node: the order
    /// [`HeuristicPlanner::ranked_nodes`] reads lazily.
    fn sorted_nodes(params: &ModelParams, platform: &Platform) -> Vec<NodeId> {
        let d = platform.node_count().saturating_sub(1).max(1);
        let mut keyed: Vec<(f64, NodeId)> = platform
            .nodes()
            .iter()
            .map(|r| (sch_pow(params, r.power, d), r.id))
            .collect();
        batch::sort_rate_desc_id_asc(&mut keyed);
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// The agent of `plan` that keeps the highest scheduling power after
    /// receiving one more child. Ties break toward the lower slot.
    fn best_attach_agent(params: &ModelParams, platform: &Platform, plan: &DeploymentPlan) -> Slot {
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

    /// Attaches `node` as a server under the best agent; returns the updated
    /// plan.
    fn attach_best(
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        node: NodeId,
    ) -> DeploymentPlan {
        let best_agent = best_attach_agent(params, platform, plan);
        let mut next = plan.clone();
        next.add_server(best_agent, node)
            .expect("unused node under an agent always inserts");
        next
    }

    /// The `shift_nodes` conversion: promote the strongest server to an agent,
    /// rebalance all degrees over the enlarged agent set (waterfill), then
    /// grow servers from `queue` while the modelled throughput improves.
    /// Returns `(plan, queue nodes consumed, final rho)`, or `None` when no
    /// conversion is possible.
    ///
    /// `power_order` is the planner's node list sorted strongest-first —
    /// computed once per planning run (`sorted_nodes` ordering coincides with
    /// power order because `sch_pow` at fixed degree is strictly increasing in
    /// power) and filtered here by membership, instead of re-collecting and
    /// re-sorting the agent/server lists on every stalled-attachment probe.
    fn try_conversion(
        params: &ModelParams,
        platform: &Platform,
        plan: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
        queue: &std::collections::VecDeque<NodeId>,
        power_order: &[NodeId],
    ) -> Option<(DeploymentPlan, usize, f64)> {
        let server_set: HashSet<NodeId> = plan.servers().map(|s| plan.node(s)).collect();
        let agent_set: HashSet<NodeId> = plan.agents().map(|s| plan.node(s)).collect();
        let mut servers: Vec<NodeId> = power_order
            .iter()
            .copied()
            .filter(|n| server_set.contains(n))
            .collect();
        let victim = servers.remove(0);
        if servers.is_empty() {
            return None;
        }
        let agents: Vec<NodeId> = power_order
            .iter()
            .copied()
            .filter(|n| agent_set.contains(n) || *n == victim)
            .collect();

        let mut p = crate::planner::realize::realize_balanced(params, platform, &agents, &servers)?;
        let mut consumed = 0usize;
        let mut rho = params.evaluate(platform, &p, service).rho;
        while let Some(&more) = queue.get(consumed) {
            if demand.satisfied_by(rho) {
                break;
            }
            let grown = attach_best(params, platform, &p, more);
            let grown_rho = params.evaluate(platform, &grown, service).rho;
            if grown_rho > rho * (1.0 + EPS) {
                p = grown;
                rho = grown_rho;
                consumed += 1;
            } else {
                break;
            }
        }
        Some((p, consumed, rho))
    }

    /// The reference growth loop: every probe clones the plan and re-runs
    /// the full model.
    #[allow(clippy::too_many_arguments)]
    fn grow_full_clone(
        params: &ModelParams,
        platform: &Platform,
        service: &ServiceSpec,
        demand: ClientDemand,
        mut plan: DeploymentPlan,
        mut queue: std::collections::VecDeque<NodeId>,
        allow_conversion: bool,
        power_order: &[NodeId],
    ) -> DeploymentPlan {
        let mut current = params.evaluate(platform, &plan, service).rho;

        while !queue.is_empty() && !demand.satisfied_by(current) {
            let next_node = *queue.front().expect("queue checked non-empty");

            // Preferred action: plain attachment (steps 19–23's "take next
            // node from sorted_nodes[] as a server"). While this improves,
            // conversion is never cheaper in resources, so commit directly.
            let attach_plan = attach_best(params, platform, &plan, next_node);
            let attach_rho = params.evaluate(platform, &attach_plan, service).rho;
            if attach_rho > current * (1.0 + EPS) {
                plan = attach_plan;
                current = attach_rho;
                queue.pop_front();
                continue;
            }

            // Attachment stalled: try the shift_nodes conversion (steps
            // 16–24), committed only if it strictly beats the hierarchy.
            if allow_conversion && plan.server_count() >= 2 {
                if let Some(candidate) = try_conversion(
                    params,
                    platform,
                    &plan,
                    service,
                    demand,
                    &queue,
                    power_order,
                ) {
                    let (p, consumed, rho) = candidate;
                    if rho > current * (1.0 + EPS) {
                        plan = p;
                        current = rho;
                        for _ in 0..consumed {
                            queue.pop_front();
                        }
                        continue;
                    }
                }
            }
            break;
        }
        plan
    }

    /// [`HeuristicPlanner::plan`] on the reference: steps 1–7 as in the
    /// planner, growth by [`grow_full_clone`], then the full-scan
    /// rebalance when the planner asks for it.
    fn plan_full_clone(
        planner: HeuristicPlanner,
        platform: &Platform,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> DeploymentPlan {
        let params = resolve_params(planner.params, platform);
        let sorted = sorted_nodes(&params, platform);
        let plan = DeploymentPlan::agent_server(sorted[0], sorted[1]);
        let min_ser_cv =
            hier_ser_pow(&params, service, [platform.power(sorted[1])]).min(demand.rate());
        if sch_pow(&params, platform.power(sorted[0]), 1) < min_ser_cv {
            return plan;
        }
        let queue = sorted[2..].iter().copied().collect();
        let plan = grow_full_clone(
            &params,
            platform,
            service,
            demand,
            plan,
            queue,
            planner.allow_conversion,
            &sorted,
        );
        if planner.rebalance {
            return improve::rebalance_full(&params, platform, &plan, service, demand);
        }
        plan
    }

    #[test]
    fn dgemm10_yields_one_agent_one_server() {
        // Paper Table 4 row 1 (degree 1) and the Figure 2–3 finding.
        let platform = lyon_cluster(21);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 1);
        assert_eq!(plan.server_count(), 1);
    }

    #[test]
    fn dgemm1000_yields_star_with_all_nodes() {
        // Paper Table 4 row 4 and Section 5.3: "Heuristic generated a star
        // deployment for this problem size."
        let platform = lyon_cluster(21);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(1000).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        assert_eq!(plan.agent_count(), 1);
        assert_eq!(plan.server_count(), 20);
    }

    #[test]
    fn dgemm310_on_45_nodes_uses_intermediate_degree() {
        // Paper Table 4 row 3: the heuristic picks a large intermediate
        // degree (33 in the paper) and achieves a high fraction of optimal.
        let platform = lyon_cluster(45);
        let plan = HeuristicPlanner::paper()
            .plan(
                &platform,
                &Dgemm::new(310).service(),
                ClientDemand::Unbounded,
            )
            .unwrap();
        let root_degree = plan.degree(plan.root());
        assert!(
            root_degree > 10 && root_degree < 44,
            "expected intermediate root degree, got {root_degree}"
        );
    }

    #[test]
    fn demand_caps_growth() {
        // With a modest target the heuristic must not use all 30 nodes.
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let unbounded = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let capped = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::target(1.0))
            .unwrap();
        assert!(capped.len() < unbounded.len());
        assert!(rho_of(&platform, &capped, &svc) >= 1.0);
    }

    #[test]
    fn heuristic_beats_or_matches_star_and_balanced_on_heterogeneous() {
        // The Figure 6 headline: automatic > star, automatic > balanced.
        use crate::planner::baselines::{BalancedPlanner, StarPlanner};
        let platform = heterogenized_cluster(
            "orsay",
            60,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            42,
        );
        let svc = Dgemm::new(310).service();
        let auto = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let star = StarPlanner
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let balanced = BalancedPlanner { mid_agents: 7 }
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let (a, s, b) = (
            rho_of(&platform, &auto, &svc),
            rho_of(&platform, &star, &svc),
            rho_of(&platform, &balanced, &svc),
        );
        assert!(a >= s - 1e-9, "automatic {a} must beat star {s}");
        assert!(a >= b - 1e-9, "automatic {a} must beat balanced {b}");
    }

    #[test]
    fn plans_are_structurally_valid() {
        let platform = heterogenized_cluster(
            "x",
            33,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            5,
        );
        for size in [10u32, 100, 310, 1000] {
            let plan = HeuristicPlanner::paper()
                .plan(
                    &platform,
                    &Dgemm::new(size).service(),
                    ClientDemand::Unbounded,
                )
                .unwrap();
            assert!(
                validate_relaxed(&plan).is_empty(),
                "dgemm-{size} plan invalid"
            );
        }
    }

    #[test]
    fn rebalance_never_hurts() {
        let platform = lyon_cluster(45);
        let svc = Dgemm::new(310).service();
        let plain = HeuristicPlanner::paper()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let rebalanced = HeuristicPlanner::with_rebalance()
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        assert!(rho_of(&platform, &rebalanced, &svc) >= rho_of(&platform, &plain, &svc) - 1e-9);
    }

    #[test]
    fn single_node_platform_is_an_error() {
        let platform = lyon_cluster(1);
        assert!(matches!(
            HeuristicPlanner::paper().plan(
                &platform,
                &Dgemm::new(10).service(),
                ClientDemand::Unbounded
            ),
            Err(PlannerError::NotEnoughNodes { .. })
        ));
    }

    #[test]
    fn sorted_nodes_is_power_descending_on_uniform_network() {
        let platform = heterogenized_cluster(
            "x",
            20,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            3,
        );
        let params = ModelParams::from_platform(&platform);
        let mut ranking = HeuristicPlanner::ranked_nodes(&params, &platform);
        let sorted = ranking.prefix(usize::MAX);
        assert_eq!(
            sorted,
            sorted_nodes(&params, &platform),
            "lazy vs full sort"
        );
        for w in sorted.windows(2) {
            assert!(
                platform.power(w[0]).value() >= platform.power(w[1]).value(),
                "sched-power order must match power order on a uniform network"
            );
        }
    }

    #[test]
    fn incremental_and_full_clone_strategies_agree() {
        // The incremental probes must not change the planner's decisions:
        // on the Table 4 scenarios (homogeneous, all DGEMM sizes) and on
        // heterogenized platforms the planner and the clone-and-full-
        // evaluate reference must commit the same moves.
        let hetero = heterogenized_cluster(
            "orsay",
            55,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            13,
        );
        let homo = lyon_cluster(45);
        for platform in [&homo, &hetero] {
            for size in [10u32, 100, 310, 1000] {
                let svc = Dgemm::new(size).service();
                for planner in [
                    HeuristicPlanner::paper(),
                    HeuristicPlanner::with_rebalance(),
                    HeuristicPlanner::without_conversion(),
                ] {
                    let inc = planner
                        .plan(platform, &svc, ClientDemand::Unbounded)
                        .unwrap();
                    let full = plan_full_clone(planner, platform, &svc, ClientDemand::Unbounded);
                    let ri = rho_of(platform, &inc, &svc);
                    let rf = rho_of(platform, &full, &svc);
                    assert!(
                        (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                        "dgemm-{size} {}: incremental {ri} vs full {rf}",
                        planner.name()
                    );
                }
            }
        }
    }

    #[test]
    fn strategies_agree_under_demand_caps() {
        // The planner and the reference may realize differently-shaped
        // (but throughput-identical) trees; resource usage and the
        // achieved rate must match.
        fn assert_agree(
            planner: HeuristicPlanner,
            platform: &Platform,
            svc: &ServiceSpec,
            target: f64,
            case: &str,
        ) {
            let inc = planner
                .plan(platform, svc, ClientDemand::target(target))
                .unwrap();
            let full = plan_full_clone(planner, platform, svc, ClientDemand::target(target));
            let case = format!("{case} {} target {target}", planner.name());
            assert_eq!(inc.len(), full.len(), "{case}: node counts");
            assert_eq!(
                inc.agent_count(),
                full.agent_count(),
                "{case}: agent counts"
            );
            let (ri, rf) = (rho_of(platform, &inc, svc), rho_of(platform, &full, svc));
            assert!(
                (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                "{case}: rho {ri} vs {rf}"
            );
        }

        let lyon = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        for target in [0.5, 1.0, 3.0] {
            assert_agree(
                HeuristicPlanner::paper(),
                &lyon,
                &svc,
                target,
                "lyon dgemm-1000",
            );
        }
        // Targets at fractions of the unbounded rate stop the growth loop
        // part-way, for every DGEMM size and planner configuration.
        let hetero = heterogenized_cluster(
            "orsay",
            55,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            13,
        );
        for (name, platform) in [("lyon", &lyon), ("hetero", &hetero)] {
            for size in [10u32, 100, 310, 1000] {
                let svc = Dgemm::new(size).service();
                let unbounded = HeuristicPlanner::paper()
                    .plan(platform, &svc, ClientDemand::Unbounded)
                    .unwrap();
                let rho = rho_of(platform, &unbounded, &svc);
                for fraction in [0.25, 0.5, 0.95] {
                    for planner in [
                        HeuristicPlanner::paper(),
                        HeuristicPlanner::with_rebalance(),
                        HeuristicPlanner::without_conversion(),
                    ] {
                        let case = format!("{name} dgemm-{size}");
                        assert_agree(planner, platform, &svc, fraction * rho, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn site_aware_heuristic_beats_min_b_scalarization_across_sites() {
        // The tentpole's acceptance bar: on a cross-site scenario the
        // site-aware growth loop (joint power+link attach ranking,
        // concrete-child conversions, per-link ρ) must strictly beat the
        // historical min-bandwidth scalarization, judged under the
        // per-link model both times.
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        for seed in [11u64, 29] {
            let platform = multi_site_grid(
                2,
                20,
                MflopRate(400.0),
                MbitRate(100.0),
                MbitRate(5.0),
                seed,
            );
            let svc = Dgemm::new(310).service();
            let params = ModelParams::from_platform(&platform);
            let aware = HeuristicPlanner::paper()
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let scalar = HeuristicPlanner {
                params: Some(params.scalarized()),
                ..HeuristicPlanner::paper()
            }
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
            let rho_aware = params.evaluate(&platform, &aware, &svc).rho;
            let rho_scalar = params.evaluate(&platform, &scalar, &svc).rho;
            assert!(
                rho_aware > rho_scalar * 1.02,
                "seed {seed}: site-aware {rho_aware} must beat scalarized {rho_scalar}"
            );
        }
    }

    #[test]
    fn site_aware_plans_stay_structurally_valid() {
        use adept_platform::generator::multi_site_grid;
        use adept_platform::MbitRate;
        let platform = multi_site_grid(3, 12, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 5);
        for size in [10u32, 310, 1000] {
            for planner in [
                HeuristicPlanner::paper(),
                HeuristicPlanner::with_rebalance(),
                HeuristicPlanner::without_conversion(),
            ] {
                let plan = planner
                    .plan(
                        &platform,
                        &Dgemm::new(size).service(),
                        ClientDemand::Unbounded,
                    )
                    .unwrap();
                assert!(
                    validate_relaxed(&plan).is_empty(),
                    "dgemm-{size} {} plan invalid",
                    planner.name()
                );
            }
        }
    }

    #[test]
    fn planner_names_reflect_configuration() {
        assert_eq!(HeuristicPlanner::paper().name(), "heuristic");
        assert_eq!(
            HeuristicPlanner::with_rebalance().name(),
            "heuristic+rebalance"
        );
        assert_eq!(
            HeuristicPlanner::without_conversion().name(),
            "heuristic-no-conversion"
        );
    }
}
