//! Iterative bottleneck removal — the approach of the authors' earlier
//! work \[6, 7\] (*Automatic Deployment for Hierarchical Network Enabled
//! Servers*, HCW 2004), recast as a repair pass.
//!
//! > "In each iteration, mathematical models are used to analyze the
//! > existing deployment, identify the primary bottleneck, and remove the
//! > bottleneck by adding resources in the appropriate area of the
//! > system." (Section 2)
//!
//! Each iteration proposes a change to the **agent set** and keeps the
//! best strict improvement under the Eq. 16 model:
//!
//! * **promote** — the strongest non-agent node joins the agents
//!   (relieves an agent-scheduling bottleneck by spreading degree);
//! * **demote** — the weakest agent returns to the server pool (relieves
//!   a service bottleneck by freeing an over-provisioned level);
//! * **keep** — the agent set stays, but the server count is re-tuned.
//!
//! For every candidate agent set the pass re-tunes the **number of
//! servers** drawn from the pool (plan servers plus unused platform
//! nodes, strongest first) and re-realizes the tree with the balanced
//! waterfill of `realize` — so each move is evaluated
//! at its best achievable configuration, not just a one-node tweak.
//!
//! The pass never returns a worse plan than its input.

use super::realize::{realize, realize_balanced, HeapEntry};
use crate::model::throughput::sch_pow;
use crate::model::{IncrementalEval, ModelParams};
use adept_hierarchy::{DeploymentPlan, Slot};
use adept_platform::{NodeId, Platform};
use adept_workload::{ClientDemand, ServiceSpec};
use std::collections::{BinaryHeap, HashSet};

/// Relative tolerance for strict-improvement acceptance.
const EPS: f64 = 1e-9;

/// Sorts node ids by descending power, ties to the lower id — the one
/// ordering every strongest-first scan in the planners uses. Runs on
/// precomputed integer keys (positive finite powers order like their
/// IEEE-754 bit patterns) so site-sized lists sort without a `power()`
/// call per comparison.
pub(crate) fn by_power_desc(platform: &Platform, ids: &mut [NodeId]) {
    let mut keyed: Vec<(u64, NodeId)> = ids
        .iter()
        .map(|&id| (platform.power(id).value().to_bits(), id))
        .collect();
    keyed.sort_unstable_by_key(|&(bits, id)| (std::cmp::Reverse(bits), id));
    for (slot, (_, id)) in ids.iter_mut().zip(keyed) {
        *slot = id;
    }
}

/// Best plan for a fixed agent set, scanning the server count over `pool`
/// (strongest first). Returns the best `(plan, rho)` if any configuration
/// is feasible. The scan stops after the unimodal peak.
///
/// On a uniform network the scan mirrors the sweep planner: child slots
/// are waterfilled one at a time through a heap while the incremental
/// evaluator maintains ρ, so stepping from `s` to `s+1` servers costs
/// O(log n) instead of a fresh O(n) realize + evaluate — and only the
/// winning server count is realized into a tree, once.
fn best_for_agent_set(
    params: &ModelParams,
    platform: &Platform,
    service: &ServiceSpec,
    agents: &[NodeId],
    pool: &[NodeId],
) -> Option<(DeploymentPlan, f64)> {
    // The incremental scan's abstract waterfill ranks agents by power
    // alone and prices phantom children at each agent's own site; on a
    // multi-site platform the realized tree's true link costs would
    // diverge from that abstract estimate, so the pass evaluates each
    // server count on a realized tree through the (hetero-aware) full
    // model instead — correctness over the O(log n) shortcut on this
    // cold path.
    if params.uses_link_bandwidths(platform) {
        return best_for_agent_set_full(params, platform, service, agents, pool);
    }
    best_for_agent_set_incremental(params, platform, service, agents, pool)
}

/// The multi-site scan: one realize + full (per-link) evaluate per
/// server count. On a uniform network it is also the reference the
/// incremental scan is tested against.
fn best_for_agent_set_full(
    params: &ModelParams,
    platform: &Platform,
    service: &ServiceSpec,
    agents: &[NodeId],
    pool: &[NodeId],
) -> Option<(DeploymentPlan, f64)> {
    let mut best: Option<(DeploymentPlan, f64)> = None;
    let mut peak = f64::NEG_INFINITY;
    for s in 1..=pool.len() {
        let Some(plan) = realize_balanced(params, platform, agents, &pool[..s]) else {
            continue;
        };
        let rho = params.evaluate(platform, &plan, service).rho;
        if rho + EPS < peak {
            break; // past the sched/service crossing
        }
        peak = peak.max(rho);
        let better = best.as_ref().is_none_or(|(_, cur)| rho > cur * (1.0 + EPS));
        if better {
            best = Some((plan, rho));
        }
    }
    best
}

/// Incremental scan: O(log n) per server count, one realize at the end.
fn best_for_agent_set_incremental(
    params: &ModelParams,
    platform: &Platform,
    service: &ServiceSpec,
    agents: &[NodeId],
    pool: &[NodeId],
) -> Option<(DeploymentPlan, f64)> {
    let k = agents.len();
    if pool.is_empty() {
        return None;
    }
    let mut eval = IncrementalEval::from_agents(params, platform, agents, service);
    let mut heap: BinaryHeap<HeapEntry> = (0..k)
        .map(|i| HeapEntry {
            sp_after: sch_pow(params, platform.power(agents[i]), 1),
            agent: i,
        })
        .collect();
    let mut zero_agents = k;
    // Which agent received each child slot, in assignment order: counting
    // a prefix of this reconstructs the degree distribution at any `s`.
    let mut assignments: Vec<usize> = Vec::with_capacity(k - 1 + pool.len());

    // Waterfill step: hand the next child slot to the agent with the
    // highest post-assignment scheduling power.
    let pop_next = |heap: &mut BinaryHeap<HeapEntry>,
                    eval: &IncrementalEval,
                    zero_agents: &mut usize,
                    assignments: &mut Vec<usize>| {
        // audit: allow(unwrap, "improver invariant documented in the expect
        // message; the improvement parity tests exercise this path")
        let top = heap.pop().expect("k >= 1 agents in the heap");
        let i = top.agent;
        if eval.degree(Slot(i)) == 0 {
            *zero_agents -= 1;
        }
        assignments.push(i);
        heap.push(HeapEntry {
            sp_after: sch_pow(params, platform.power(agents[i]), eval.degree(Slot(i)) + 2),
            agent: i,
        });
        i
    };

    // The k-1 non-root agents each consume one (abstract) child slot.
    for _ in 0..k - 1 {
        let i = pop_next(&mut heap, &eval, &mut zero_agents, &mut assignments);
        eval.assign_child_slot(Slot(i))
            // audit: allow(unwrap, "improver invariant documented in the
            // expect message; the improvement parity tests exercise this
            // path")
            .expect("agent slots are valid");
    }

    let mut best: Option<(usize, f64)> = None;
    let mut peak = f64::NEG_INFINITY;
    for s in 1..=pool.len() {
        let i = pop_next(&mut heap, &eval, &mut zero_agents, &mut assignments);
        let node = pool[s - 1];
        eval.add_server(Slot(i), node, platform.power(node))
            // audit: allow(unwrap, "improver invariant documented in the
            // expect message; the improvement parity tests exercise this
            // path")
            .expect("pool nodes are unused");
        if zero_agents > 0 {
            continue; // an agent is still childless: dominated by smaller k
        }
        let rho = eval.rho();
        if rho + EPS < peak {
            break; // past the sched/service crossing
        }
        peak = peak.max(rho);
        let better = best.is_none_or(|(_, cur)| rho > cur * (1.0 + EPS));
        if better {
            best = Some((s, rho));
        }
    }

    let (s_best, rho) = best?;
    let mut degrees = vec![0usize; k];
    for &i in &assignments[..k - 1 + s_best] {
        degrees[i] += 1;
    }
    Some((realize(agents, &pool[..s_best], &degrees), rho))
}

/// Runs the bottleneck-removal pass until no move improves the modelled
/// throughput (or the demand is met). Returns the improved plan; never
/// worse than the input under the model.
pub fn rebalance(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
    demand: ClientDemand,
) -> DeploymentPlan {
    rebalance_by(params, platform, plan, service, demand, |agents, pool| {
        best_for_agent_set(params, platform, service, agents, pool)
    })
}

/// [`rebalance`] over an explicit per-agent-set scan `scan(agents,
/// pool)`; the tests pass the full-evaluate scan as the reference.
fn rebalance_by(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
    demand: ClientDemand,
    scan: impl Fn(&[NodeId], &[NodeId]) -> Option<(DeploymentPlan, f64)>,
) -> DeploymentPlan {
    let mut best_plan = plan.clone();
    let mut best_rho = params.evaluate(platform, &best_plan, service).rho;

    // Each iteration changes the agent set by at most one node and must
    // strictly improve, so 2n iterations is a generous bound.
    for _ in 0..platform.node_count() * 2 {
        if demand.satisfied_by(best_rho) {
            break;
        }
        let mut agents: Vec<NodeId> = best_plan.agents().map(|s| best_plan.node(s)).collect();
        by_power_desc(platform, &mut agents);
        let agent_set: HashSet<NodeId> = agents.iter().copied().collect();
        let mut pool: Vec<NodeId> = platform
            .nodes()
            .iter()
            .map(|r| r.id)
            .filter(|id| !agent_set.contains(id))
            .collect();
        by_power_desc(platform, &mut pool);

        let mut candidate: Option<(DeploymentPlan, f64)> = None;
        let mut consider = |cand: Option<(DeploymentPlan, f64)>| {
            let Some((p, rho)) = cand else { return };
            if rho > best_rho * (1.0 + EPS)
                && candidate
                    .as_ref()
                    .is_none_or(|(_, cur)| rho > cur * (1.0 + EPS))
            {
                candidate = Some((p, rho));
            }
        };

        // Keep: same agents, re-tuned server count.
        consider(scan(&agents, &pool));

        // Promote: the strongest pool node becomes an agent.
        if pool.len() >= 2 {
            let mut a2 = agents.clone();
            a2.push(pool[0]);
            by_power_desc(platform, &mut a2);
            consider(scan(&a2, &pool[1..]));
        }

        // Demote: the weakest agent returns to the pool.
        if agents.len() >= 2 {
            let a2: Vec<NodeId> = agents[..agents.len() - 1].to_vec();
            let mut p2 = pool.clone();
            p2.push(agents[agents.len() - 1]);
            by_power_desc(platform, &mut p2);
            consider(scan(&a2, &p2));
        }

        match candidate {
            Some((p, rho)) => {
                best_plan = p;
                best_rho = rho;
            }
            None => break,
        }
    }
    best_plan
}

/// The clone-and-full-evaluate [`rebalance`]: every server count of
/// every candidate agent set realized and scored by Eq. 16 from scratch
/// — the reference the parity tests hold the incremental scan to.
#[cfg(test)]
pub(crate) fn rebalance_full(
    params: &ModelParams,
    platform: &Platform,
    plan: &DeploymentPlan,
    service: &ServiceSpec,
    demand: ClientDemand,
) -> DeploymentPlan {
    rebalance_by(params, platform, plan, service, demand, |agents, pool| {
        best_for_agent_set_full(params, platform, service, agents, pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::baselines::StarPlanner;
    use crate::planner::sweep::SweepPlanner;
    use crate::planner::Planner;
    use adept_hierarchy::builder::star;
    use adept_platform::generator::lyon_cluster;
    use adept_workload::{ClientDemand, Dgemm};

    fn rho_of(platform: &Platform, plan: &DeploymentPlan, svc: &ServiceSpec) -> f64 {
        ModelParams::from_platform(platform)
            .evaluate(platform, plan, svc)
            .rho
    }

    #[test]
    fn rebalance_fixes_agent_bound_star() {
        // A 45-node star on DGEMM 310 is agent-bound; rebalance must find a
        // deeper shape with strictly better throughput.
        let platform = lyon_cluster(45);
        let svc = Dgemm::new(310).service();
        let star_plan = StarPlanner
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let improved = rebalance(
            &ModelParams::from_platform(&platform),
            &platform,
            &star_plan,
            &svc,
            ClientDemand::Unbounded,
        );
        let before = rho_of(&platform, &star_plan, &svc);
        let after = rho_of(&platform, &improved, &svc);
        assert!(
            after > before * 1.2,
            "expected >20% gain over the star, got {before} -> {after}"
        );
        assert!(improved.agent_count() > 1, "should have added agent levels");
    }

    #[test]
    fn rebalance_reaches_sweep_quality_from_a_bad_start() {
        let platform = lyon_cluster(25);
        for size in [100u32, 310] {
            let svc = Dgemm::new(size).service();
            let ids: Vec<NodeId> = platform.ids_by_power_desc();
            let bad = star(&ids[0..4]);
            let improved = rebalance(
                &ModelParams::from_platform(&platform),
                &platform,
                &bad,
                &svc,
                ClientDemand::Unbounded,
            );
            let (_, sweep_rho) = SweepPlanner::default().best_plan(&platform, &svc).unwrap();
            let got = rho_of(&platform, &improved, &svc);
            // Hill climbing can plateau one agent-count short of the sweep
            // optimum (moves must strictly improve), so 85% is the honest
            // bar; in the paper's words the heuristic performs "up to 90%"
            // of optimal in the hard middle regime.
            assert!(
                got >= sweep_rho * 0.85,
                "dgemm-{size}: rebalance {got} should reach >=85% of sweep {sweep_rho}"
            );
        }
    }

    #[test]
    fn rebalance_grows_server_bound_deployments() {
        // A 2-node star on DGEMM 1000 with 28 unused nodes: growth is the
        // right move and must be taken.
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let ids: Vec<NodeId> = platform.ids_by_power_desc();
        let small = star(&ids[0..2]);
        let improved = rebalance(
            &ModelParams::from_platform(&platform),
            &platform,
            &small,
            &svc,
            ClientDemand::Unbounded,
        );
        assert!(improved.server_count() > 1);
        assert!(rho_of(&platform, &improved, &svc) > rho_of(&platform, &small, &svc) * 5.0);
    }

    #[test]
    fn rebalance_is_a_no_op_at_a_local_optimum() {
        // DGEMM 10 on two nodes: 1 agent + 1 server is already optimal.
        let platform = lyon_cluster(2);
        let svc = Dgemm::new(10).service();
        let ids = platform.ids_by_power_desc();
        let p = star(&ids);
        let improved = rebalance(
            &ModelParams::from_platform(&platform),
            &platform,
            &p,
            &svc,
            ClientDemand::Unbounded,
        );
        assert!(improved.structurally_eq(&p));
    }

    #[test]
    fn rebalance_respects_demand() {
        let platform = lyon_cluster(30);
        let svc = Dgemm::new(1000).service();
        let ids: Vec<NodeId> = platform.ids_by_power_desc();
        let small = star(&ids[0..3]);
        let before = rho_of(&platform, &small, &svc);
        // Demand already met by the small plan: no changes allowed.
        let improved = rebalance(
            &ModelParams::from_platform(&platform),
            &platform,
            &small,
            &svc,
            ClientDemand::target(before * 0.5),
        );
        assert!(improved.structurally_eq(&small));
    }

    #[test]
    fn incremental_and_full_scans_pick_the_same_configuration() {
        use adept_platform::generator::heterogenized_cluster;
        use adept_platform::{BackgroundLoad, CapacityProbe, MflopRate};
        let hetero = heterogenized_cluster(
            "h",
            40,
            MflopRate(400.0),
            BackgroundLoad::default(),
            CapacityProbe::exact(),
            21,
        );
        let homo = lyon_cluster(40);
        for platform in [&homo, &hetero] {
            let params = ModelParams::from_platform(platform);
            let nodes: Vec<NodeId> = platform.ids_by_power_desc();
            for size in [10u32, 100, 310, 1000] {
                let svc = Dgemm::new(size).service();
                for k in [1usize, 2, 3, 5] {
                    let (agents, pool) = (&nodes[..k], &nodes[k..]);
                    let inc = best_for_agent_set(&params, platform, &svc, agents, pool);
                    let full = best_for_agent_set_full(&params, platform, &svc, agents, pool);
                    match (inc, full) {
                        (None, None) => {}
                        (Some((pi, ri)), Some((pf, rf))) => {
                            assert!(
                                (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                                "dgemm-{size} k={k}: rho {ri} vs {rf}"
                            );
                            assert_eq!(pi.server_count(), pf.server_count());
                            assert_eq!(pi.agent_count(), pf.agent_count());
                        }
                        (a, b) => panic!(
                            "dgemm-{size} k={k}: feasibility diverged ({:?} vs {:?})",
                            a.map(|x| x.1),
                            b.map(|x| x.1)
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn rebalance_strategies_agree() {
        let platform = lyon_cluster(45);
        let params = ModelParams::from_platform(&platform);
        for size in [100u32, 310] {
            let svc = Dgemm::new(size).service();
            let start = StarPlanner
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let inc = rebalance(&params, &platform, &start, &svc, ClientDemand::Unbounded);
            let full = rebalance_full(&params, &platform, &start, &svc, ClientDemand::Unbounded);
            let (ri, rf) = (
                rho_of(&platform, &inc, &svc),
                rho_of(&platform, &full, &svc),
            );
            assert!(
                (ri - rf).abs() <= 1e-9 * rf.max(1.0),
                "dgemm-{size}: {ri} vs {rf}"
            );
        }
    }

    #[test]
    fn rebalance_never_decreases_rho() {
        let platform = lyon_cluster(24);
        for size in [10u32, 100, 310, 1000] {
            let svc = Dgemm::new(size).service();
            let p = StarPlanner
                .plan(&platform, &svc, ClientDemand::Unbounded)
                .unwrap();
            let improved = rebalance(
                &ModelParams::from_platform(&platform),
                &platform,
                &p,
                &svc,
                ClientDemand::Unbounded,
            );
            assert!(
                rho_of(&platform, &improved, &svc) >= rho_of(&platform, &p, &svc) - 1e-9,
                "dgemm-{size}"
            );
        }
    }
}
